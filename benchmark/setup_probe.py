"""Set-up time, measured in a fresh interpreter and printed in seconds.

    python3 setup_probe.py ROOT WORKLOAD CONFIG
        from `import behaviorforest` until the config is loaded and the
        engine (or, for cli_novel, the CLI's argument parser) is ready
    python3 setup_probe.py --scipy
        `import scipy.stats` alone, the part of set-up that `core` pays
        for `gaussian_breakpoints`

Nothing but the standard library is imported before the clock starts.
"""

import os
import sys
import time


def main() -> None:
    if sys.argv[1:] == ["--scipy"]:
        t0 = time.perf_counter()
        import scipy.stats  # noqa: F401

        print(repr(time.perf_counter() - t0))
        return
    root, workload, config = sys.argv[1:4]
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import behaviorforest

    if workload == "cli_novel":
        from behaviorforest import cli

        cli.build_parser()
        behaviorforest.load_config(config)
    else:
        behaviorforest.DiscoveryEngine(behaviorforest.load_config(config))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
