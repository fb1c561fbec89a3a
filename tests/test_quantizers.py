"""Quantizer numerics: grid laws, power-of-two laws, normalization variants."""

import hashlib
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acev2.errors import (DegenerateInputError, NonPositiveScaleError,
                          OutOfRangeError, ParseError)
from acev2.quantizers import (
    _TRIAL_BLOCK,
    _per_trial_quantizer,
    BatchNormParams,
    DPReLUParams,
    LinearQuantizer,
    PoTQuantizer,
    double_quantize_scale,
    dprelu,
    fp_batchnorm,
    identity_quantizer,
    linear_quantize,
    norm_quantization_study,
    pot_quantize,
    quantization_mse,
    quantnorm,
    quantnorm_fold,
    symmetric_linear_quantizer,
    vanilla_qbn,
)

RNG = np.random.default_rng(1234)


def nearest_level(x: float, q: PoTQuantizer) -> float:
    """The level of ``q`` nearest ``x`` in value, the larger magnitude on
    a tie, by exact rational arithmetic over every level."""
    mag = abs(Fraction(x))
    levels = [Fraction(0)] + [Fraction(2) ** k for k in range(
        q.min_exponent, q.max_exponent + 1)]
    best = min(levels, key=lambda level: (abs(mag - level), -level))
    return math.copysign(float(best), x) if best else 0.0


def nearest_power_in_log2(scale: float) -> float:
    """The power of two nearest ``scale`` in log2, the larger on a tie, by
    exact rational arithmetic: of 2^(k-1) <= scale < 2^k, 2^k is nearer
    when scale / 2^(k-1) >= 2^k / scale, that is scale^2 >= 2^(2k-1)."""
    s = Fraction(scale)
    k = s.numerator.bit_length() - s.denominator.bit_length()
    while Fraction(2) ** k <= s:
        k += 1
    while Fraction(2) ** (k - 1) > s:
        k -= 1
    return 2.0 ** (k if s * s >= Fraction(2) ** (2 * k - 1) else k - 1)


def nudged(x: float, ulps: int) -> float:
    """``x`` moved ``ulps`` floats up (or down, for negative ``ulps``)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


class TestLinearQuantizer:
    def test_zero_maps_to_code_zero(self):
        q = LinearQuantizer(bits=8, scale=0.02)
        res = linear_quantize(np.array([0.0]), q)
        assert res.codes[0] == 0
        assert res.values[0] == 0.0

    def test_grid_points_are_fixed_points(self):
        q = LinearQuantizer(bits=6, scale=0.3, zero_point=0, symmetric=True)
        grid = q.grid()
        res = linear_quantize(grid, q)
        np.testing.assert_allclose(res.values, grid, atol=1e-12)
        assert res.saturated == 0

    def test_worked_example_against_nearest_grid_search(self):
        q = LinearQuantizer(bits=4, scale=0.1)
        res = linear_quantize(np.array([0.37]), q)
        assert res.codes[0] == 4
        assert res.values[0] == pytest.approx(0.4)
        # independent oracle: nearest grid point by exhaustive search
        grid = q.grid()
        nearest = grid[np.argmin(np.abs(grid - 0.37))]
        assert res.values[0] == pytest.approx(nearest)

    def test_nearest_grid_oracle_randomized(self):
        q = LinearQuantizer(bits=5, scale=0.07)
        grid = q.grid()
        xs = RNG.uniform(grid[0], grid[-1], size=2000)
        values = linear_quantize(xs, q).values
        for x, v in zip(xs[:200], values[:200]):
            best = grid[np.argmin(np.abs(grid - x))]
            assert abs(x - v) <= abs(x - best) + 1e-12

    def test_half_away_from_zero_rounding(self):
        q = LinearQuantizer(bits=8, scale=1.0)
        res = linear_quantize(np.array([0.5, -0.5, 1.5, -1.5]), q)
        np.testing.assert_array_equal(res.codes, [1, -1, 2, -2])

    def test_saturation_counted_not_raised(self):
        q = LinearQuantizer(bits=4, scale=0.1)
        res = linear_quantize(np.array([100.0, -100.0, 0.2]), q)
        assert res.saturated == 2
        assert res.values[0] == pytest.approx(0.7)   # clamped to +7 * 0.1
        assert res.values[1] == pytest.approx(-0.7)

    def test_idempotent_on_own_output(self):
        q = LinearQuantizer(bits=6, scale=0.05)
        xs = RNG.normal(0, 1, size=100_000)
        first = linear_quantize(xs, q)
        second = linear_quantize(first.values, q)
        np.testing.assert_array_equal(first.codes, second.codes)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(NonPositiveScaleError):
            LinearQuantizer(bits=8, scale=0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_a_non_finite_scale_is_out_of_range(self, scale):
        """NaN passes a ``<= 0`` check: it used to quantize 0.5 to code
        -2**63 with a RuntimeWarning, and an inf scale to NaN values."""
        with pytest.raises(OutOfRangeError, match="^scale must be finite"):
            LinearQuantizer(bits=8, scale=scale)

    @pytest.mark.parametrize("bits", [8.5, 8.0, True, np.int64(8), "8"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_rejects_bits_that_are_not_int(self, bits, symmetric):
        with pytest.raises(OutOfRangeError, match="bits must be an integer"):
            LinearQuantizer(bits=bits, scale=0.1, symmetric=symmetric)

    @pytest.mark.parametrize("zero_point", [math.nan, 0.5, 3.0, True],
                             ids=repr)
    def test_zero_point_must_be_an_int(self, zero_point):
        """A NaN zero point used to quantize 0.5 to code -2**63 with a
        RuntimeWarning; 0.5 gave code 5 with value 0.5, off code 5's 0.45."""
        with pytest.raises(OutOfRangeError,
                           match="^zero_point must be an integer"):
            LinearQuantizer(bits=8, scale=0.1, zero_point=zero_point)

    @pytest.mark.parametrize("zero_point", [0, 3])
    def test_an_int_zero_point_constructs(self, zero_point):
        q = LinearQuantizer(bits=8, scale=0.1, zero_point=zero_point,
                            symmetric=False)
        assert q.zero_point == zero_point
        res = linear_quantize(np.array([0.5]), q)
        assert res.codes.tolist() == [5 + zero_point]
        np.testing.assert_allclose(res.values, [0.5])

    def test_symmetric_needs_two_bits(self):
        with pytest.raises(OutOfRangeError, match="at least 2 bits, got 1"):
            LinearQuantizer(bits=1, scale=0.1)
        assert LinearQuantizer(bits=2, scale=0.1).code_range == (-1, 1)

    def test_asymmetric_one_bit_is_valid(self):
        q = LinearQuantizer(bits=1, scale=0.1, symmetric=False)
        assert q.code_range == (0, 1)
        res = linear_quantize(np.array([0.0, 0.1, 5.0]), q)
        np.testing.assert_array_equal(res.codes, [0, 1, 1])
        assert res.saturated == 1

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_zero_bits_is_rejected(self, symmetric):
        with pytest.raises(NonPositiveScaleError, match="at least one bit"):
            LinearQuantizer(bits=0, scale=0.1, symmetric=symmetric)


class TestPoTQuantizer:
    Q = PoTQuantizer(bits=4, max_exponent=0)

    def test_exact_levels_pass_through(self):
        out = pot_quantize(np.array([0.5, -2.0, 1.0]),
                           PoTQuantizer(bits=4, max_exponent=1))
        np.testing.assert_allclose(out, [0.5, -2.0, 1.0])

    def test_worked_example_against_level_search(self):
        out = pot_quantize(np.array([0.09]), self.Q)
        assert out[0] == pytest.approx(0.0625)
        levels = self.Q.levels()
        nearest = levels[np.argmin(np.abs(levels - 0.09))]
        assert out[0] == pytest.approx(nearest)

    def test_ties_resolve_toward_larger_magnitude(self):
        midpoint = (0.0625 + 0.125) / 2
        out = pot_quantize(np.array([midpoint, -midpoint]), self.Q)
        np.testing.assert_allclose(out, [0.125, -0.125])

    def test_flush_to_zero_below_half_smallest_level(self):
        smallest = 2.0 ** self.Q.min_exponent
        out = pot_quantize(np.array([smallest * 0.49, smallest * 0.51]), self.Q)
        assert out[0] == 0.0
        assert out[1] == smallest

    def test_sign_symmetry(self):
        xs = RNG.normal(0, 1, size=1000)
        np.testing.assert_allclose(pot_quantize(-xs, self.Q),
                                   -pot_quantize(xs, self.Q))

    def test_all_outputs_are_powers_of_two(self):
        xs = RNG.normal(0, 1, size=100_000)
        out = pot_quantize(xs, self.Q)
        nz = out[out != 0]
        logs = np.log2(np.abs(nz))
        np.testing.assert_array_equal(logs, np.round(logs))

    def test_nearest_level_oracle_randomized(self):
        levels = self.Q.levels()
        xs = RNG.uniform(-1.5, 1.5, size=500)
        out = pot_quantize(xs, self.Q)
        for x, v in zip(xs, out):
            best = levels[np.argmin(np.abs(levels - x))]
            assert abs(x - v) <= abs(x - best) + 1e-15

    @pytest.mark.parametrize("bits,top", [
        (bits, top) for bits in range(2, 9) for top in (-3, 0, 2)])
    def test_every_midpoint_goes_to_the_larger_level(self, bits, top):
        """Each midpoint between adjacent levels, zero and the smallest
        level included, both signs, and the float on either side of it,
        against the exact oracle."""
        q = PoTQuantizer(bits, top)
        mags = [0.0] + [2.0 ** k for k in range(q.min_exponent, top + 1)]
        mids = [(a + b) / 2 for a, b in zip(mags, mags[1:])]
        xs = [nudged(x, ulps) for mid in mids for x in (mid, -mid)
              for ulps in (-1, 0, 1)]
        got = pot_quantize(np.array(xs), q).tolist()
        assert [v.hex() for v in got] == [
            nearest_level(x, q).hex() for x in xs]

    @pytest.mark.parametrize("bits,top", [(2, 0), (4, 0), (4, -2), (8, 2)])
    def test_infinities_saturate_and_nan_passes_through(self, bits, top):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pot_quantize(np.array([np.inf, -np.inf, np.nan]),
                               PoTQuantizer(bits, top))
        assert got[:2].tolist() == [2.0 ** top, -2.0 ** top]
        assert np.isnan(got[2])

    @pytest.mark.parametrize("bits,top,name", [
        (4.0, 0, "bits"), (np.int64(4), 0, "bits"), (True, 0, "bits"),
        (4, 0.5, "max_exponent"), (4, True, "max_exponent"),
        (4, np.int64(0), "max_exponent")])
    def test_rejects_bits_and_exponents_that_are_not_int(self, bits, top,
                                                         name):
        with pytest.raises(OutOfRangeError, match=f"^{name} must be an "
                           "integer, got "):
            PoTQuantizer(bits, top)

    @pytest.mark.parametrize("bits,top,message", [
        (4, 1024, "leave the float range"),   # 2**1024 overflows
        (4, -1100, "leave the float range"),  # every level underflows
        (33, 0, "bits must be at most 12")])  # 2**32 levels
    def test_a_grid_past_the_float_range_is_out_of_range(self, bits, top,
                                                         message):
        with pytest.raises(OutOfRangeError, match=message):
            PoTQuantizer(bits, top)

    @pytest.mark.parametrize("bits,top", [(2, -1073), (4, -1067), (4, 1023)])
    def test_grids_at_the_float_range_edges_round_exactly(self, bits, top):
        """The smallest level may be 2**-1073, whose half is the smallest
        subnormal, and the largest 2**1023; each midpoint and the floats
        beside it go to the nearest level."""
        q = PoTQuantizer(bits, top)
        mags = [0.0] + [2.0 ** k for k in range(q.min_exponent, top + 1)]
        xs = [nudged(x, ulps) for a, b in zip(mags, mags[1:])
              for x in ((a + b) / 2, -(a + b) / 2) for ulps in (-1, 0, 1)]
        got = pot_quantize(np.array(xs + [math.inf]), q).tolist()
        assert [v.hex() for v in got] == [
            nearest_level(x, q).hex() for x in xs] + [(2.0 ** top).hex()]
        with pytest.raises(OutOfRangeError):
            PoTQuantizer(bits, top - 1 if top < 0 else top + 1)

    def test_twelve_bits_is_the_widest_grid(self):
        assert len(PoTQuantizer(12, 973).levels()) == 2 ** 12 - 1
        assert len(PoTQuantizer(12, 1023).levels()) == 2 ** 12 - 1
        with pytest.raises(OutOfRangeError, match="at most 12, got 13"):
            PoTQuantizer(13, 0)

    def test_level_count_fits_in_code_space(self):
        for bits in (2, 3, 4, 5):
            q = PoTQuantizer(bits=bits, max_exponent=0)
            assert len(q.levels()) <= 2 ** bits


class TestDoubleQuantization:
    def test_power_of_two_scale_is_unchanged(self):
        assert double_quantize_scale(0.125) == 0.125
        assert double_quantize_scale(1.0) == 1.0

    def test_rounds_in_log_space(self):
        assert double_quantize_scale(0.1) == 0.125

    @given(st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_log_space_nearest_oracle(self, scale):
        got = double_quantize_scale(scale)
        k = int(math.log2(got))
        for other in (k - 1, k + 1):
            assert (abs(math.log2(scale) - k)
                    <= abs(math.log2(scale) - other) + 1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveScaleError):
            double_quantize_scale(0.0)

    @pytest.mark.parametrize("scale,power", [
        (2 ** 2.5, 8.0), (2 ** -1.5, 0.5), (2 ** 10.5, 2048.0)])
    def test_a_float_just_above_a_log2_midpoint_rounds_up(self, scale,
                                                          power):
        assert double_quantize_scale(scale) == power
        assert nearest_power_in_log2(scale) == power

    def test_floats_near_each_log2_midpoint_match_the_exact_oracle(self):
        """Six floats either side of the float nearest 2^(k + 1/2), for
        k = -60..59, and the float nearest sqrt(1/2) with its neighbour
        below, which lie either side of sqrt(1/2)."""
        scales = [nudged(2.0 ** (k + 0.5), ulps) for k in range(-60, 60)
                  for ulps in range(-6, 7)]
        scales += [math.sqrt(0.5), nudged(math.sqrt(0.5), -1)]
        got = [double_quantize_scale(s) for s in scales]
        assert all(type(g) is float for g in got)
        assert got == [nearest_power_in_log2(s) for s in scales]
        assert got[-2:] == [1.0, 0.5]

    @pytest.mark.parametrize("scale", [math.inf, math.nan,
                                       sys.float_info.max])
    def test_a_scale_with_no_float_power_is_out_of_range(self, scale):
        """inf and NaN have no nearest power; the largest floats round to
        2^1024, past the float range."""
        with pytest.raises(OutOfRangeError,
                           match="finite and below 2\\*\\*1023.5"):
            double_quantize_scale(scale)

    def test_the_float_range_ends_at_the_log2_midpoint_below_2_1024(self):
        edge = math.ldexp(math.sqrt(0.5), 1024)  # just above 2^1023.5
        assert double_quantize_scale(nudged(edge, -1)) == 2.0 ** 1023
        with pytest.raises(OutOfRangeError):
            double_quantize_scale(edge)

    def test_dequantization_is_a_pure_shift(self):
        # scaling integer codes by 2^k must equal an exponent shift, bit
        # for bit, on a large random sample
        rng = np.random.default_rng(99)
        codes = rng.integers(-128, 128, size=100_000)
        for scale in (0.37, 3.0, 0.002):
            pot = double_quantize_scale(scale)
            k = int(math.log2(pot))
            multiplied = codes * pot
            shifted = np.ldexp(codes.astype(np.float64), k)
            np.testing.assert_array_equal(multiplied, shifted)


def random_params(rng, channels=8):
    return BatchNormParams(
        mu=rng.normal(0, 1, channels),
        gamma=rng.normal(1, 0.2, channels),
        sigma=rng.lognormal(0, 0.5, channels),
        beta=rng.normal(0, 1, channels),
    )


class TestNormalization:
    def test_identity_configuration(self):
        p = BatchNormParams(mu=np.zeros(4), gamma=np.ones(4),
                            sigma=np.sqrt(1 - 1e-3) * np.ones(4),
                            beta=np.zeros(4), epsilon=1e-3)
        x = RNG.normal(0, 1, (16, 4))
        np.testing.assert_allclose(fp_batchnorm(x, p), x, atol=1e-12)

    def test_centering_a_constant_tensor_yields_zeros(self):
        x = np.full((5, 3), 2.5)
        p = BatchNormParams(mu=np.full(3, 2.5), gamma=np.ones(3),
                            sigma=np.ones(3), beta=np.zeros(3))
        np.testing.assert_allclose(fp_batchnorm(x, p), 0.0, atol=1e-12)

    def test_formula_self_consistency(self):
        rng = np.random.default_rng(5)
        p = random_params(rng)
        x = rng.normal(0, 1, (32, 8))
        direct = (x - p.mu) * p.gamma / np.sqrt(p.sigma ** 2 + p.epsilon) + p.beta
        np.testing.assert_allclose(fp_batchnorm(x, p), direct, atol=1e-12)

    def test_vanilla_with_identity_quantizer_is_exact(self):
        rng = np.random.default_rng(6)
        p = random_params(rng)
        x = rng.normal(0, 1, (32, 8))
        np.testing.assert_array_equal(vanilla_qbn(x, p, identity_quantizer),
                                      fp_batchnorm(x, p))

    def test_vanilla_with_zero_gamma_reduces_to_quantized_beta(self):
        rng = np.random.default_rng(7)
        p = random_params(rng)
        p = BatchNormParams(p.mu, np.zeros_like(p.gamma), p.sigma, p.beta)
        q = symmetric_linear_quantizer(8)
        x = rng.normal(0, 1, (16, 8))
        np.testing.assert_allclose(vanilla_qbn(x, p, q),
                                   np.broadcast_to(q(p.beta), (16, 8)))

    def test_fused_identity_limit_matches_floating_point(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_params(rng)
            x = rng.normal(0, 1, (20, 8))
            err = np.max(np.abs(quantnorm(x, p) - fp_batchnorm(x, p)))
            assert err < 1e-6

    def test_fused_output_approaches_offset_as_sigma_grows(self):
        p = BatchNormParams(mu=np.ones(4), gamma=np.ones(4),
                            sigma=np.full(4, 1e9), beta=np.full(4, 0.7))
        x = RNG.normal(0, 1, (8, 4))
        s, b = quantnorm_fold(p)
        assert np.all(np.abs(s) < 1e-8)
        np.testing.assert_allclose(quantnorm(x, p), 0.7, atol=1e-6)

    def test_fused_beats_vanilla_on_most_trials(self):
        trials = norm_quantization_study(trials=200, seed=20240817)
        wins = sum(t.quantnorm_mse <= t.vanilla_mse for t in trials)
        assert wins >= 0.9 * len(trials)

    def test_study_is_reproducible(self):
        a = norm_quantization_study(trials=10, seed=42)
        b = norm_quantization_study(trials=10, seed=42)
        assert [(t.quantnorm_mse, t.vanilla_mse) for t in a] == \
               [(t.quantnorm_mse, t.vanilla_mse) for t in b]

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_a_non_finite_epsilon_is_out_of_range(self, epsilon):
        with pytest.raises(OutOfRangeError, match="^epsilon must be finite"):
            BatchNormParams(mu=np.zeros(4), gamma=np.ones(4),
                            sigma=np.ones(4), beta=np.zeros(4),
                            epsilon=epsilon)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_sigma_is_out_of_range(self, bad):
        """NaN passes a ``< 0`` check: it used to normalize to NaN, and an
        inf sigma sent every input to beta."""
        with pytest.raises(OutOfRangeError, match="^sigma must be finite"):
            BatchNormParams(mu=np.zeros(3), gamma=np.ones(3),
                            sigma=np.array([1.0, bad, 1.0]),
                            beta=np.zeros(3))

    def test_a_negative_infinite_sigma_is_a_negative_scale(self):
        with pytest.raises(NonPositiveScaleError,
                           match="^sigma must be non-negative"):
            BatchNormParams(mu=np.zeros(3), gamma=np.ones(3),
                            sigma=np.array([1.0, -math.inf, 1.0]),
                            beta=np.zeros(3))

    def test_param_length_mismatch_rejected(self):
        with pytest.raises(DegenerateInputError,
                           match="parameter vectors differ") as err:
            BatchNormParams(mu=np.zeros(3), gamma=np.ones(4),
                            sigma=np.ones(4), beta=np.zeros(4))
        assert not isinstance(err.value, ParseError)


class TestDPReLU:
    def test_identity_settings(self):
        p = DPReLUParams(eta=1.0, alpha=0.0, beta=0.0, gamma=1.0)
        x = RNG.normal(0, 1, 100)
        np.testing.assert_allclose(dprelu(x, p), x)

    def test_relu_settings(self):
        p = DPReLUParams(eta=1.0, alpha=0.0, beta=0.0, gamma=0.0)
        x = RNG.normal(0, 1, 100)
        np.testing.assert_allclose(dprelu(x, p), np.maximum(x, 0))

    def test_continuous_at_the_knee(self):
        p = DPReLUParams(eta=2.0, alpha=0.3, beta=0.1, gamma=0.5)
        assert dprelu(np.array([0.3]), p)[0] == pytest.approx(-0.1)
        below = dprelu(np.array([0.3 - 1e-9]), p)[0]
        above = dprelu(np.array([0.3 + 1e-9]), p)[0]
        assert below == pytest.approx(-0.1, abs=1e-8)
        assert above == pytest.approx(-0.1, abs=1e-8)


class TestMse:
    def test_identical_tensors(self):
        x = RNG.normal(0, 1, (4, 4))
        assert quantization_mse(x, x) == 0.0

    def test_constant_offset(self):
        x = RNG.normal(0, 1, (10, 10))
        assert quantization_mse(x, x + 0.5) == pytest.approx(0.25)

    def test_shape_mismatch(self):
        with pytest.raises(DegenerateInputError,
                           match=r"shapes differ: \(3,\) vs \(4,\)") as err:
            quantization_mse(np.zeros(3), np.zeros(4))
        assert not isinstance(err.value, ParseError)


class TestSymmetricQuantizer:
    @pytest.mark.parametrize("bits", [1, 0, -3])
    def test_fewer_than_two_bits_rejected_at_construction(self, bits):
        with pytest.raises(OutOfRangeError, match="at least 2 bits"):
            symmetric_linear_quantizer(bits)
        with pytest.raises(OutOfRangeError, match="at least 2 bits"):
            _per_trial_quantizer(bits)

    def test_two_bits_is_ternary(self):
        q = symmetric_linear_quantizer(2)
        np.testing.assert_array_equal(q(np.array([-2.0, -0.4, 1.2, 2.0])),
                                      [-2.0, 0.0, 2.0, 2.0])

    def test_scale_follows_the_absolute_maximum(self):
        # 4 bits: codes -7..7 on a grid of 0.7 / 7 = 0.1
        v = np.array([0.7, -0.25, 0.04, 0.05, -0.35])
        got = symmetric_linear_quantizer(4)(v)
        np.testing.assert_allclose(got, [0.7, -0.3, 0.0, 0.1, -0.4],
                                   atol=1e-15)
        lq = LinearQuantizer(bits=4, scale=0.7 / 7)
        np.testing.assert_array_equal(got, linear_quantize(v, lq).values)

    def test_all_zero_tensor_passes_through_as_a_copy(self):
        v = np.zeros((3, 4))
        got = symmetric_linear_quantizer(8)(v)
        np.testing.assert_array_equal(got, v)
        assert got is not v

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("tensor", [
        RNG.normal(0, 1, (1, 16)),
        RNG.normal(0, 1, (1, 1, 16)),
        RNG.normal(0, 1, (1, 64, 16)),
        np.zeros((1, 1, 16)),
        np.array([[[0.0, -3.0, 1.5, 3.0]]]),
    ], ids=["row", "params", "inputs", "zeros", "ties"])
    def test_one_trial_block_equals_the_tensor_quantizer(self, bits, tensor):
        np.testing.assert_array_equal(_per_trial_quantizer(bits)(tensor),
                                      symmetric_linear_quantizer(bits)(tensor))

    def test_each_trial_of_a_block_gets_its_own_scale(self):
        block = RNG.normal(0, 1, (5, 3, 16)) * np.array(
            [1.0, 1e-3, 0.0, 50.0, 1.0])[:, None, None]
        got = _per_trial_quantizer(8)(block)
        q = symmetric_linear_quantizer(8)
        for k in range(len(block)):
            np.testing.assert_array_equal(got[k], q(block[k]))


def study_one_trial_at_a_time(trials, seed, channels=16, samples=64, bits=8):
    """The study as a plain per-trial loop over the public layers: the
    reference the blocked study must reproduce bit for bit."""
    q = symmetric_linear_quantizer(bits)
    out = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        p = BatchNormParams(mu=rng.normal(0.0, 1.0, channels),
                            gamma=rng.normal(1.0, 0.2, channels),
                            sigma=rng.lognormal(0.0, 0.5, channels),
                            beta=rng.normal(0.0, 1.0, channels))
        x = rng.normal(0.0, 1.0, (samples, channels))
        ref = fp_batchnorm(x, p)
        out.append((quantization_mse(ref, quantnorm(x, p, q)),
                    quantization_mse(ref, vanilla_qbn(x, p, q))))
    return out


class TestNormStudy:
    @pytest.mark.parametrize("trials,seed,kwargs", [
        (1, 3, {}), (16, 4, {}), (17, 5, {}), (40, 6, {}),
        (19, 7, {"channels": 1, "samples": 1}),
        (18, 8, {"channels": 3, "samples": 5, "bits": 2}),
        (33, 9, {"channels": 32, "samples": 7, "bits": 16}),
    ])
    def test_matches_the_per_trial_loop_exactly(self, trials, seed, kwargs):
        got = norm_quantization_study(trials=trials, seed=seed, **kwargs)
        assert [(t.quantnorm_mse, t.vanilla_mse) for t in got] == \
            study_one_trial_at_a_time(trials, seed, **kwargs)
        assert all(type(t.quantnorm_mse) is float
                   and type(t.vanilla_mse) is float for t in got)

    def test_per_trial_output_is_pinned(self):
        # every MSE bit of these runs, taken from the one-trial-at-a-time
        # study; the trial counts straddle the block size
        lines = []
        for trials, seed in [(0, 1), (1, 1), (7, 2), (8, 3), (9, 4),
                             (15, 5), (16, 6), (17, 7), (31, 8), (32, 9),
                             (33, 42), (100, 20240817), (1000, 20240817)]:
            for k, r in enumerate(norm_quantization_study(trials=trials,
                                                          seed=seed)):
                lines.append(f"{trials} {seed} {k} {r.quantnorm_mse.hex()} "
                             f"{r.vanilla_mse.hex()}")
        assert len(lines) == 1269
        digest = hashlib.sha256(("\n".join(lines) + "\n").encode())
        assert digest.hexdigest() == (
            "f3aae14dde20b13d40cb1d06a6a56ed0421149a8bbbc60106939cfd7a276476a")

    def test_zero_trials_is_empty(self):
        assert norm_quantization_study(trials=0) == []

    def test_seeds_are_spawned_one_block_at_a_time(self, monkeypatch):
        """No spawn holds more than a block's children, so a long study
        keeps one block of them at a time; the trials are unchanged."""
        expected = norm_quantization_study(trials=40, seed=11)
        spawns = []

        class Recording(np.random.SeedSequence):
            def spawn(self, n):
                spawns.append(n)
                return super().spawn(n)

        monkeypatch.setattr(np.random, "SeedSequence", Recording)
        assert norm_quantization_study(trials=40, seed=11) == expected
        assert spawns and max(spawns) <= _TRIAL_BLOCK
        assert sum(spawns) == 40

    @pytest.mark.parametrize("kwargs", [
        {"trials": True}, {"trials": 2.0}, {"trials": np.int64(2)},
        {"seed": 1.0}, {"seed": False}, {"bits": 8.0}, {"bits": True},
        {"channels": 16.0}, {"samples": "64"}, {"samples": None},
        {"bits": 1}, {"bits": 0}, {"channels": 0}, {"samples": 0},
        {"channels": -1}, {"trials": -1}, {"seed": -1},
        {"trials": 0, "bits": 1}, {"trials": 0, "channels": 0},
    ], ids=repr)
    def test_bad_arguments_rejected_up_front(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError):
                norm_quantization_study(**{"trials": 3, **kwargs})


def test_readme_heterogeneous_quantizer_figures_hold():
    """README's "Why heterogeneous weight quantizers" block runs, and each
    ``# ~x`` figure holds to the significant digits it gives."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Why heterogeneous weight quantizers\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, pending, checked = {}, [], []
    for line in block.splitlines():
        if "# ~" not in line:
            pending.append(line)
            continue
        exec(compile("\n".join(pending), "README.md", "exec"), namespace)
        pending = []
        expression, claim = line.split("# ~")
        claimed = claim.split()[0]
        digits = len(claimed.replace(".", "").lstrip("0"))
        value = eval(expression, namespace)
        assert float(f"{value:.{digits}g}") == float(claimed), line
        checked.append(claimed)
    assert checked == ["0.036", "1.0", "0.038", "0.0001"]
