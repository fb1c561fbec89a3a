"""Acceptance gate: one test per published operating point or law.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Tolerances are fixed here, not tuned: exact for
table cells and constructions, ±5% for element counts and intensities,
±3 percentage points for overhead shares, ±10% for single-model cost
totals, ±15% for cross-family cost totals.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from acev2 import zoo
from acev2.analysis import analyze, bn_share
from acev2.census import (CAT_BATCHNORM, CAT_CONV, CAT_QUANT_SCALE,
                          census_graph)
from acev2.cost import (
    ADD,
    MULTIPLY,
    ace_add,
    ace_multiply,
    ace_shift,
    table_energy_correlation,
)
from acev2.formats import BIN, FP16, FP32, INT2, INT4, INT8, INT16, INT32
from acev2.oracle import fp_adder_breakdown, verify_multiply_formula
from acev2.quantizers import (
    BatchNormParams,
    LinearQuantizer,
    PoTQuantizer,
    double_quantize_scale,
    fp_batchnorm,
    linear_quantize,
    norm_quantization_study,
    pot_quantize,
    quantnorm,
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def test_01_cost_table_exactness():
    with criterion(1, "cost table exactness"):
        multiply = {FP32: 992, FP16: 240, INT8: 56, INT4: 12, INT2: 2,
                    INT32: 992, INT16: 240}
        for fmt, want in multiply.items():
            assert ace_multiply(fmt, fmt).bitadders == Fraction(want)
        add = {FP32: 192, FP16: 96, INT32: 32, INT16: 16, INT8: 8,
               INT4: 4, INT2: 2, BIN: 1}
        for fmt, want in add.items():
            assert ace_add(fmt, fmt).bitadders == Fraction(want)
        shift = {INT32: Fraction(32), INT16: Fraction(64, 5),
                 INT8: Fraction(24, 5), INT4: Fraction(8, 5),
                 INT2: Fraction(2, 5)}
        for fmt, want in shift.items():
            assert ace_shift(fmt, fmt.total_bits).bitadders == want


def test_02_multiplier_construction_matches_formula_to_64_bits():
    with criterion(2, "gate-level multiplier oracle, 64x64 sweep"):
        assert verify_multiply_formula(64) == []


def test_03_float_adder_bound():
    with criterion(3, "float-adder component bound"):
        for e, m in ((5, 10), (8, 23)):
            breakdown = fp_adder_breakdown(e, m)
            assert breakdown.total <= 6 * (e + m + 1)
        fp32 = fp_adder_breakdown(8, 23)
        fixed_add = ace_add(INT32, INT32).bitadders
        assert fp32.total / float(fixed_add) <= 6.0


def test_04_energy_correlation():
    with criterion(4, "cost-to-energy correlation"):
        assert table_energy_correlation() >= 0.99


def test_05_norm_overhead(mbv2_relu, mbv2_relu_report, resnet_binary,
                          resnet_binary_report):
    with criterion(5, "normalization overhead"):
        tally = census_graph(mbv2_relu)
        assert tally.count(MULTIPLY, CAT_BATCHNORM) == pytest.approx(
            6.67e6, rel=0.05)
        assert tally.count(ADD, CAT_BATCHNORM) == pytest.approx(
            6.67e6, rel=0.05)
        assert bn_share(mbv2_relu_report) == pytest.approx(0.4187, abs=0.03)

        rtally = census_graph(resnet_binary)
        assert rtally.count(MULTIPLY, CAT_BATCHNORM) == pytest.approx(
            10.58e6, rel=0.05)
        assert rtally.count(ADD, CAT_BATCHNORM) == pytest.approx(
            10.58e6, rel=0.05)
        assert bn_share(resnet_binary_report) == pytest.approx(0.4138,
                                                               abs=0.03)


def test_06_activation_overhead(mbv2_relu_report):
    with criterion(6, "parameterized-activation overhead"):
        base = float(mbv2_relu_report.total_ace)
        prelu = float(analyze(zoo.build_mobilenet_v2(
            4, 4, "prelu", "channelwise")).total_ace)
        dprelu = float(analyze(zoo.build_mobilenet_v2(
            4, 4, "dprelu", "channelwise")).total_ace)
        assert base == pytest.approx(20.44e9, rel=0.10)
        assert prelu == pytest.approx(26.5e9, rel=0.10)
        assert dprelu == pytest.approx(27.67e9, rel=0.10)
        assert prelu / base - 1 == pytest.approx(0.296, abs=0.03)
        assert dprelu / base - 1 == pytest.approx(0.353, abs=0.03)


def test_07_granularity_overhead(mbv2_relu_report):
    with criterion(7, "scale-granularity overhead"):
        chan_scale = mbv2_relu_report.ace_by_category[CAT_QUANT_SCALE]
        chan_overhead = float(chan_scale / mbv2_relu_report.total_ace)
        assert chan_overhead == pytest.approx(0.3252, abs=0.03)

        sub = analyze(zoo.build_mobilenet_v2(4, 4, "relu", "subchannelwise"))
        assert float(sub.total_ace) == pytest.approx(27.06e9, rel=0.10)
        sub_overhead = float(sub.ace_by_category[CAT_QUANT_SCALE]
                             / sub.total_ace)
        assert sub_overhead == pytest.approx(0.4897, abs=0.03)


def test_08_arithmetic_intensity_by_branch_count(resnet_binary_report):
    with criterion(8, "arithmetic intensity vs branches"):
        two = resnet_binary_report.arithmetic_intensity
        three = analyze(zoo.build_resnet50_branches(3)).arithmetic_intensity
        four = analyze(zoo.build_resnet50_branches(4)).arithmetic_intensity
        assert two == pytest.approx(73.5, rel=0.05)
        assert three == pytest.approx(49.66, rel=0.05)
        assert four == pytest.approx(36.75, rel=0.05)
        assert four == two / 2


def test_09_pot_scale_substitution():
    with criterion(9, "power-of-two scale substitution"):
        study = dict(pointwise_pot=False, quantnorm_bits=None, act_bits=4,
                     include_mid_norm=True)
        float_scales = float(analyze(zoo.build_pikelpn(
            "1x", pot_scales=False, **study)).total_ace)
        pot_scales = float(analyze(zoo.build_pikelpn(
            "1x", pot_scales=True, **study)).total_ace)
        assert float_scales == pytest.approx(20.91e9, rel=0.10)
        assert pot_scales == pytest.approx(15.93e9, rel=0.10)
        assert pot_scales / float_scales == pytest.approx(0.76, abs=0.05)


def test_10_family_scaling(pike_reports):
    with criterion(10, "low-precision family scaling"):
        published = {"1x": (8.50e9, 8.68e9), "2x": (15.56e9, 15.74e9),
                     "3x": (33.70e9, 33.97e9), "6x": (58.74e9, 59.10e9)}
        totals = []
        for scale, (lo_target, hi_target) in published.items():
            report = pike_reports[scale]
            total = float(report.total_ace)
            assert total == pytest.approx(lo_target, rel=0.15), scale
            assert total == pytest.approx(hi_target, rel=0.15), scale
            assert report.elementwise_share <= 0.05, scale
            totals.append(total)
        assert totals == sorted(totals)
        assert len(set(totals)) == len(totals)


def test_11_fused_norm_quantization():
    with criterion(11, "fused norm quantization properties"):
        rng = np.random.default_rng(31415)
        channels = 1000
        p = BatchNormParams(
            mu=rng.normal(0, 1, channels),
            gamma=rng.normal(1, 0.2, channels),
            sigma=rng.lognormal(0, 0.5, channels),
            beta=rng.normal(0, 1, channels),
        )
        x = rng.normal(0, 1, (64, channels))
        gap = np.max(np.abs(quantnorm(x, p) - fp_batchnorm(x, p)))
        assert gap < 1e-6

        trials = norm_quantization_study(trials=1000, seed=20240817)
        wins = sum(t.quantnorm_mse <= t.vanilla_mse for t in trials)
        assert wins >= 900


def test_12_quantizer_laws():
    with criterion(12, "quantizer laws on 1e5 samples"):
        rng = np.random.default_rng(2718)
        n = 100_000

        q = LinearQuantizer(bits=6, scale=0.04)
        xs = rng.normal(0, 1, n)
        once = linear_quantize(xs, q)
        twice = linear_quantize(once.values, q)
        assert np.array_equal(once.codes, twice.codes)

        pot = PoTQuantizer(bits=4, max_exponent=0)
        out = pot_quantize(rng.normal(0, 1, n), pot)
        nonzero = out[out != 0]
        logs = np.log2(np.abs(nonzero))
        assert np.array_equal(logs, np.round(logs))

        codes = rng.integers(-128, 128, n)
        scales = np.abs(rng.normal(0, 2, 16)) + 1e-4
        for scale in scales:
            pot_scale = double_quantize_scale(float(scale))
            k = int(np.log2(pot_scale))
            assert np.array_equal(codes * pot_scale,
                                  np.ldexp(codes.astype(np.float64), k))


# Each ablation knob of build_pikelpn: (off, on) and the category the
# technique makes cheaper.
ABLATIONS = {
    "pointwise_pot": ((False, True), CAT_CONV),
    "pot_scales": ((False, True), CAT_QUANT_SCALE),
    "quantnorm_bits": ((None, 8), CAT_BATCHNORM),
}


def test_13_ablation_lattice():
    """Every edge of the technique cube, at every scale: switching one
    technique on, the others held, lowers the total bit-adders (exactly),
    the energy and the technique's own category."""
    with criterion(13, "every technique lowers cost on every lattice edge"):
        edges = 0
        for scale in zoo.PIKE_SCALES:
            reports = {
                corner: analyze(zoo.build_pikelpn(
                    scale, **dict(zip(ABLATIONS, corner))))
                for corner in product(*(values for values, _ in
                                        ABLATIONS.values()))}
            for corner, low in reports.items():
                for k, (values, category) in enumerate(ABLATIONS.values()):
                    if corner[k] != values[0]:
                        continue
                    high = reports[corner[:k] + (values[1],) + corner[k + 1:]]
                    assert high.total_ace < low.total_ace
                    assert high.energy_mj < low.energy_mj
                    assert (high.ace_by_category.get(category, Fraction(0))
                            < low.ace_by_category[category])
                    edges += 1
        assert edges == 48
