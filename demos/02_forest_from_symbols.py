"""Detecting behaviors in a symbol stream and growing the forest.

Groups a hand-written symbol sequence into runs, feeds them through the
behavior detector, inserts each discovered path into the prefix forest,
and prints the resulting tree, both as text and as Graphviz DOT.
"""

import itertools

import numpy as np

from behaviorforest import (
    BehaviorDetector,
    BehaviorForest,
    forest_to_dot,
)

# Three quiet samples, an excursion (2, 3, 2), a return to quiet, then a
# second excursion (2, 3, 4) that is cut off by the end of the stream.
SYMBOLS = [1, 1, 1, 2, 3, 2, 1, 1, 1, 1, 1, 2, 3, 4]


def symbol_runs(symbols) -> np.ndarray:
    """One row (symbol, start, end, copies) per run of equal symbols.

    Each symbol stands for one kept copy covering one raw sample; this is
    the shape `PreprocessPipeline` hands the detector.
    """
    rows, start = [], 0
    for symbol, group in itertools.groupby(symbols):
        copies = len(list(group))
        rows.append((symbol, start, start + copies, copies))
        start += copies
    return np.array(rows, dtype=np.int64)


def main() -> None:
    detector = BehaviorDetector()  # defaults: 3 copies end a behavior, 2 arm one
    forest = BehaviorForest()

    runs = symbol_runs(SYMBOLS)
    print("stream:", SYMBOLS)
    print("runs (symbol, start, end, copies):", runs.tolist())
    # One run per call, so each behavior prints where it closes.
    for row in runs:
        for db in detector.step(row[None, :]):
            receipt = forest.insert(db.path)
            print(
                f"  at sample {row[2]}: behavior {db.path} raw span {db.raw_span} "
                f"({db.termination}), new path: {receipt.created_new_node}"
            )
    db = detector.flush()  # end of stream closes any open behavior
    if db is not None:
        receipt = forest.insert(db.path)
        print(
            f"  at end of stream: behavior {db.path} raw span {db.raw_span} "
            f"({db.termination}), new path: {receipt.created_new_node}"
        )

    print("\nforest (one line per node, indented by depth; traversals, completions):")
    for depth, symbol, weight, terminal in forest.iter_nodes():
        print(f"{'  ' * depth}{symbol}  weight={weight}  terminal={terminal}")

    print("\nterminal paths:", forest.terminal_paths())

    print("\nDOT export (render with: dot -Tpng forest.dot -o forest.png):")
    print(forest_to_dot(forest))


if __name__ == "__main__":
    main()
