"""Core types: breakpoint construction, config validation, stream admission."""

import math
import sys
import time

import numpy as np
import pytest

from behaviorforest.core import (
    BreakpointSpec,
    ConfigError,
    DimensionMismatchError,
    EngineConfig,
    gaussian_breakpoints,
)
from behaviorforest.io import config_from_dict
from behaviorforest.preprocess import PreprocessPipeline, fuse_symbols
from oracles import ReducedSymbol

MAX = sys.float_info.max

def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def quantile_by_bisection(p: float, lo: float = -12.0, hi: float = 12.0) -> float:
    """Invert the normal CDF by plain bisection; independent of scipy."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGaussianBreakpoints:
    @pytest.mark.parametrize("alpha", [2, 3, 4, 5, 7, 10, 16, 33, 64])
    def test_matches_bisection_oracle(self, alpha):
        bp = gaussian_breakpoints(alpha)
        assert len(bp) == alpha - 1
        for j, beta in enumerate(bp, start=1):
            oracle = quantile_by_bisection(j / alpha)
            assert beta == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("alpha", range(2, 65))
    def test_bit_identical_to_scipy_stats(self, alpha):
        from scipy.stats import norm

        want = norm.ppf([j / alpha for j in range(1, alpha)])
        got = np.array(gaussian_breakpoints(alpha))
        assert got.tobytes() == want.tobytes()

    def test_alpha_4_reference_values(self):
        bp = gaussian_breakpoints(4)
        assert bp[0] == pytest.approx(-0.6745, abs=2e-4)
        assert bp[1] == pytest.approx(0.0, abs=1e-12)
        assert bp[2] == pytest.approx(0.6745, abs=2e-4)

    def test_alpha_3_reference_values(self):
        bp = gaussian_breakpoints(3)
        assert bp[0] == pytest.approx(-0.4307, abs=2e-4)
        assert bp[1] == pytest.approx(0.4307, abs=2e-4)

    def test_alpha_2_is_single_zero(self):
        assert gaussian_breakpoints(2) == (0.0,)

    @pytest.mark.parametrize("alpha", range(2, 65))
    def test_antisymmetric_and_ascending(self, alpha):
        bp = gaussian_breakpoints(alpha)
        for j in range(1, alpha):
            assert bp[j - 1] == pytest.approx(-bp[alpha - j - 1], abs=1e-6)
        assert all(a < b for a, b in zip(bp, bp[1:]))

    @pytest.mark.parametrize("alpha", [1, 0, -3, 2.5, "4", None])
    def test_rejects_bad_alphabet_size(self, alpha):
        with pytest.raises(ConfigError):
            gaussian_breakpoints(alpha)


class TestBreakpointSpec:
    def test_alphabet_sizes_and_unified_size(self):
        spec = BreakpointSpec(((0.0, 1.0), (-1.0,)))
        assert spec.n_channels == 2
        assert spec.alphabet_sizes == (3, 2)

    def test_from_alphabet_sizes(self):
        spec = BreakpointSpec.from_alphabet_sizes([3, 3])
        assert spec.alphabet_sizes == (3, 3)
        assert spec.channels[0] == gaussian_breakpoints(3)

    def test_rejects_empty_channels(self):
        with pytest.raises(ConfigError):
            BreakpointSpec(())

    def test_rejects_empty_breakpoint_list(self):
        with pytest.raises(ConfigError):
            BreakpointSpec(((),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigError):
            BreakpointSpec(((0.0, bad),))

    # 2**53 and 2**53 + 1 are ascending ints but one float.
    @pytest.mark.parametrize(
        "ch", [(1.0, 1.0), (2.0, 1.0), (0.0, 3.0, 3.0), (2**53, 2**53 + 1)]
    )
    def test_rejects_non_ascending(self, ch):
        with pytest.raises(ConfigError):
            BreakpointSpec((ch,))

    # Both finite, but the gap overflows to inf, and margin * inf would be the
    # hysteresis filter's threshold offset.
    @pytest.mark.parametrize("ch", [(-1e308, 1e308), (-1.0, -9e307, 9e307), (-MAX, 1e300)])
    def test_rejects_gap_past_float_max(self, ch):
        with pytest.raises(ConfigError, match="finite gaps"):
            BreakpointSpec((ch,))

    @pytest.mark.parametrize("ch", [(-MAX, 0.0), (-8e307, 8e307), (-1e308, 0.0, 1e308)])
    def test_accepts_finite_gaps_up_to_float_max(self, ch):
        assert BreakpointSpec((ch,)).channels == (ch,)

    @pytest.mark.parametrize(
        "bad", ["0.5", True, None, [0.5], pytest.param(10**400, id="int_past_float_max")]
    )
    def test_rejects_non_numbers(self, bad):
        # No coercion: a string or bool must not load as the float it spells.
        with pytest.raises(ConfigError):
            BreakpointSpec(((-1.0, bad),))

    def test_ints_hash_as_floats(self):
        doc = {"breakpoints": [[0, 1]]}
        assert BreakpointSpec(((0, 1),)).channels == ((0.0, 1.0),)
        assert config_from_dict(doc).config_hash() == "f82b744ee56f"
        assert config_from_dict({"breakpoints": [[-0.5, 0.5]]}).config_hash() == "d35b306c653e"

    def test_fused_alphabet_bounded_by_int64(self):
        # 63 binary channels fuse to exactly 2**63 codes; 64 would wrap.
        assert BreakpointSpec(((0.0,),) * 63).alphabet_sizes == (2,) * 63
        with pytest.raises(ConfigError, match="2\\*\\*63"):
            BreakpointSpec(((0.0,),) * 64)
        sizes = (2**21,) * 3
        top = [np.array([a - 1], dtype=np.int64) for a in sizes]
        assert fuse_symbols(top, sizes).tolist() == [2**63 - 1]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BreakpointSpec.from_alphabet_sizes([2**22] * 3),
            lambda: config_from_dict({"alphabet_sizes": [4194304, 4194304, 4194304]}),
        ],
        ids=["from_alphabet_sizes", "config_from_dict"],
    )
    def test_oversized_alphabet_refused_before_quantiles(self, build):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="2\\*\\*63"):
            build()
        assert time.perf_counter() - start < 1.0


class TestEngineConfig:
    def make(self, **kw):
        return EngineConfig(BreakpointSpec(((0.0,),)), **kw)

    def test_defaults(self):
        cfg = self.make()
        assert cfg.log_base == 10
        assert cfg.relevance_threshold == 5
        assert cfg.hysteresis_margin == 0.05
        assert cfg.termination_run == 3
        assert cfg.initiation_context == 2

    @pytest.mark.parametrize(
        "kw",
        [
            {"log_base": 1},
            {"log_base": 2.0},
            {"relevance_threshold": 0},
            {"relevance_threshold": 1.5},
            {"hysteresis_margin": -0.01},
            {"hysteresis_margin": 0.5},
            {"hysteresis_margin": float("nan")},
            {"termination_run": 1},
            {"initiation_context": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(ConfigError):
            self.make(**kw)

    @pytest.mark.parametrize(
        "field", ["log_base", "relevance_threshold", "termination_run", "initiation_context"]
    )
    def test_rejects_bool_counts(self, field):
        # True passes an int check and equals 1, but hashes differently from 1.
        with pytest.raises(ConfigError):
            self.make(**{field: True})
        with pytest.raises(ConfigError):
            config_from_dict({"breakpoints": [0.0], field: True})

    def test_rejects_bool_margin(self):
        # False == 0.0, but a bool is not a margin; JSON false must not pass as 0.0.
        with pytest.raises(ConfigError):
            self.make(hysteresis_margin=False)
        with pytest.raises(ConfigError):
            config_from_dict({"breakpoints": [0.0], "hysteresis_margin": False})

    def test_config_hash_normalizes_margin(self):
        assert self.make(hysteresis_margin=0).config_hash() == "0bc7b8228b29"
        assert self.make(hysteresis_margin=0.0).config_hash() == "0bc7b8228b29"
        assert self.make(hysteresis_margin=0.05).config_hash() == "8a7f2449c9ad"
        doc = {"breakpoints": [0.0], "hysteresis_margin": 0}
        assert config_from_dict(doc).config_hash() == "0bc7b8228b29"

    def test_boundary_values_accepted(self):
        self.make(hysteresis_margin=0.0)
        self.make(hysteresis_margin=0.499)
        self.make(log_base=2, relevance_threshold=1, termination_run=2, initiation_context=1)

    def test_config_hash_stable_and_sensitive(self):
        a = self.make()
        b = self.make()
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 12
        for kw in [
            {"log_base": 3},
            {"relevance_threshold": 7},
            {"hysteresis_margin": 0.1},
            {"termination_run": 4},
            {"initiation_context": 3},
        ]:
            assert self.make(**kw).config_hash() != a.config_hash()
        other_bp = EngineConfig(BreakpointSpec(((1.0,),)))
        assert other_bp.config_hash() != a.config_hash()


class TestFrameTypes:
    def test_reduced_symbol_validation(self):
        rs = ReducedSymbol(2, (0, 5), 5)
        assert rs.run_length_raw == 5
        with pytest.raises(ValueError):
            ReducedSymbol(2, (0, 5), 0)
        with pytest.raises(ValueError):
            ReducedSymbol(2, (5, 0), 1)


class TestStreamAdmission:
    """The pipeline is the one place a stream's width is checked."""

    def test_accepts_matching_header(self):
        cfg = EngineConfig(BreakpointSpec(((0.0,), (0.0,))))
        runs = PreprocessPipeline(cfg, "s1").process_batch(np.array([[0.1, 0.2]]))
        assert runs.shape == (0, 4)

    def test_rejects_wrong_channel_count(self):
        cfg = EngineConfig(BreakpointSpec(((0.0,), (0.0,))))
        for chunk in (np.array([[0.1]]), np.empty((0, 3))):
            with pytest.raises(DimensionMismatchError, match="'s1'"):
                PreprocessPipeline(cfg, "s1").process_batch(chunk)
