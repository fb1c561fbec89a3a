"""Numeric quantizers and the quantized layers built from them.

Conventions, applied uniformly so every oracle is deterministic:
linear rounding is half away from zero; the normalization epsilon
defaults to 1e-3. Power-of-two rounding splits a magnitude into f * 2^e,
f in [0.5, 1), and takes 2^e if f >= 3/4 for weights (``pot_quantize``,
nearer in value) or f >= sqrt(1/2) for scales (``double_quantize_scale``,
nearer in log2), else 2^(e-1). Ties go up, +/-inf weights saturate at
the largest level, NaN weights stay NaN, and a scale must be finite.

The normalization variants matter here. A floating-point batch norm is

    y = (x - mu) * gamma / sqrt(sigma^2 + eps) + beta.

The naive quantized version pushes a quantizer Q through every
parameter independently, which compounds the errors of gamma and sigma
through the division. The fused alternative performs the division in
full precision and quantizes once:

    s = Q(gamma / sqrt(sigma^2 + eps))
    b = Q(mu) * s - Q(beta)
    y = x * s - b

The b expression is written so that with an identity Q the fused form
reduces exactly to the floating-point layer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .errors import (DegenerateInputError, NonPositiveScaleError,
                     OutOfRangeError)

DEFAULT_EPS = 1e-3

# Trials per block in norm_quantization_study. A block's temporaries are
# a few (block, samples, channels) arrays, ~0.7 MB at the defaults; 16
# trials already amortize numpy's per-call overhead.
_TRIAL_BLOCK = 16


def _require_ints(**values) -> None:
    """Each value must be exactly int, not an equal 8.0 or True."""
    for name, value in values.items():
        if type(value) is not int:
            raise OutOfRangeError(f"{name} must be an integer, got {value!r}")


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves going away from zero."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


class LinearQuantizer(namedtuple("LinearQuantizer", ("bits", "scale",
                                                     "zero_point",
                                                     "symmetric"))):
    """Affine quantizer: real values live on the grid scale * (q - zero_point).

    Symmetric quantizers use the code range [-(2^(bits-1) - 1), 2^(bits-1) - 1];
    asymmetric ones use [0, 2^bits - 1]. ``bits`` and ``zero_point`` are
    exact ints: a float zero point would put codes off the grid.
    """

    __slots__ = ()

    def __new__(cls, bits: int, scale: float, zero_point: int = 0,
                symmetric: bool = True) -> "LinearQuantizer":
        if scale <= 0:
            raise NonPositiveScaleError(f"scale must be > 0, got {scale}")
        if not math.isfinite(scale):
            raise OutOfRangeError(f"scale must be finite, got {scale}")
        _require_ints(bits=bits, zero_point=zero_point)
        if bits < 1:
            raise NonPositiveScaleError("need at least one bit")
        if symmetric:
            _symmetric_code_limit(bits)  # raises below 2 bits
        return tuple.__new__(cls, (bits, scale, zero_point, symmetric))

    @property
    def code_range(self) -> Tuple[int, int]:
        if self.symmetric:
            lim = _symmetric_code_limit(self.bits)
            return -lim, lim
        return 0, 2 ** self.bits - 1

    def grid(self) -> np.ndarray:
        """All representable real values, ascending."""
        lo, hi = self.code_range
        return (np.arange(lo, hi + 1) - self.zero_point) * self.scale


class LinearQuantResult(NamedTuple):
    codes: np.ndarray
    values: np.ndarray
    saturated: int


def linear_quantize(x: np.ndarray, q: LinearQuantizer) -> LinearQuantResult:
    """Quantize to integer codes and dequantize back to the grid.

    Out-of-range values saturate at the code limits; the count of
    saturated elements is reported rather than raised.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = q.code_range
    raw = round_half_away(x / q.scale) + q.zero_point
    codes = np.clip(raw, lo, hi)
    saturated = int(np.count_nonzero(raw != codes))
    values = (codes - q.zero_point) * q.scale
    return LinearQuantResult(codes.astype(np.int64), values, saturated)


class PoTQuantizer(namedtuple("PoTQuantizer", ("bits", "max_exponent"))):
    """Power-of-two quantizer: levels are 0 and +/- 2^k.

    One bit carries the sign; the remaining code space indexes exponents
    max_exponent, max_exponent - 1, ... downward, so the level count
    (including zero) stays within 2^bits. Every level, and half the
    smallest (the flush threshold), must be a finite nonzero float, so
    the exponents lie in [-1073, 1023]; bits stop at 12 (4,095 levels).
    """

    __slots__ = ()

    def __new__(cls, bits: int, max_exponent: int) -> "PoTQuantizer":
        _require_ints(bits=bits, max_exponent=max_exponent)
        if bits < 2:
            raise NonPositiveScaleError("need at least two bits (sign + level)")
        if bits > 12:
            raise OutOfRangeError(f"bits must be at most 12, got {bits}")
        self = tuple.__new__(cls, (bits, max_exponent))
        if self.min_exponent < -1073 or max_exponent > 1023:
            raise OutOfRangeError(
                f"levels 2**{self.min_exponent} .. 2**{max_exponent} leave "
                "the float range: exponents must lie in [-1073, 1023]")
        return self

    @property
    def min_exponent(self) -> int:
        return self.max_exponent - 2 ** (self.bits - 1) + 2

    def levels(self) -> np.ndarray:
        """All representable values, ascending, zero included."""
        mags = np.ldexp(1.0, np.arange(self.min_exponent,
                                       self.max_exponent + 1))
        return np.concatenate([-mags[::-1], [0.0], mags])


def pot_quantize(x: np.ndarray, q: PoTQuantizer) -> np.ndarray:
    """Round each element to the level nearest it in value, zero included."""
    x = np.asarray(x, dtype=np.float64)
    mag = np.abs(x)
    # clipped to the largest level first, so inf lands on it too
    frac, exp = np.frexp(np.minimum(mag, 2.0 ** q.max_exponent))
    exp = np.maximum(exp - (frac < 0.75), q.min_exponent)
    return np.where(mag < 2.0 ** q.min_exponent / 2, 0.0,
                    np.ldexp(np.sign(x), exp))


def double_quantize_scale(scale: float) -> float:
    """Quantize a quantizer's own scale factor to the nearest power of
    two in log2, so applying it becomes a pure shift. The float nearest
    sqrt(1/2) lies above it, so comparing with it is exact."""
    if scale <= 0:
        raise NonPositiveScaleError(f"scale must be > 0, got {scale}")
    frac, exp = math.frexp(scale)
    exp -= frac < math.sqrt(0.5)
    if not math.isfinite(scale) or exp > 1023:
        raise OutOfRangeError(
            f"scale must be finite and below 2**1023.5, got {scale}")
    return math.ldexp(1.0, exp)


class BatchNormParams(namedtuple("BatchNormParams", ("mu", "gamma", "sigma",
                                                     "beta", "epsilon"))):
    """Per-channel normalization statistics and affine parameters."""

    __slots__ = ()

    def __new__(cls, mu: np.ndarray, gamma: np.ndarray, sigma: np.ndarray,
                beta: np.ndarray, epsilon: float = DEFAULT_EPS
                ) -> "BatchNormParams":
        lengths = {np.size(mu), np.size(gamma), np.size(sigma), np.size(beta)}
        if len(lengths) != 1:
            raise DegenerateInputError(
                "batchnorm: parameter vectors differ in length")
        if np.any(np.asarray(sigma) < 0):
            raise NonPositiveScaleError("sigma must be non-negative")
        if not np.all(np.isfinite(sigma)):
            raise OutOfRangeError("sigma must be finite")
        if epsilon <= 0:
            raise NonPositiveScaleError("epsilon must be > 0")
        if not math.isfinite(epsilon):
            raise OutOfRangeError(f"epsilon must be finite, got {epsilon}")
        return tuple.__new__(cls, (mu, gamma, sigma, beta, epsilon))


Quantizer = Callable[[np.ndarray], np.ndarray]


def identity_quantizer(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


def _symmetric_code_limit(bits: int) -> int:
    if bits < 2:
        raise OutOfRangeError(
            f"a symmetric quantizer needs at least 2 bits, got {bits}")
    return 2 ** (bits - 1) - 1


def _symmetric_quantize(v: np.ndarray, lim: int, axis) -> np.ndarray:
    """Symmetric quantization onto the codes [-lim, lim]. Each slice that
    ``axis`` reduces over gets its own scale, its absolute maximum / lim
    (``axis=None``: one scale for the whole tensor). An all-zero slice
    passes through unchanged."""
    v = np.asarray(v, dtype=np.float64)
    amax = np.max(np.abs(v), axis=axis, keepdims=True, initial=0.0)
    zero = amax == 0.0
    scale = np.where(zero, 1.0, amax / lim)
    codes = np.clip(round_half_away(v / scale), -lim, lim)
    return np.where(zero, v, codes * scale)


def symmetric_linear_quantizer(bits: int) -> Quantizer:
    """Per-tensor symmetric quantizer whose scale adapts to the input's
    absolute maximum."""
    lim = _symmetric_code_limit(bits)
    return lambda v: _symmetric_quantize(v, lim, None)


def _per_trial_quantizer(bits: int) -> Quantizer:
    """The symmetric quantizer applied to each trial of a block (the
    leading axis) with that trial's own scale."""
    lim = _symmetric_code_limit(bits)
    return lambda v: _symmetric_quantize(v, lim, tuple(range(1, np.ndim(v))))


def fp_batchnorm(x: np.ndarray, p: BatchNormParams) -> np.ndarray:
    """Full-precision normalization, channels on the last axis."""
    return (x - p.mu) * p.gamma / np.sqrt(p.sigma ** 2 + p.epsilon) + p.beta


def vanilla_qbn(x: np.ndarray, p: BatchNormParams,
                q: Quantizer = identity_quantizer) -> np.ndarray:
    """Quantize each parameter independently, then normalize."""
    return ((x - q(p.mu)) * q(p.gamma)
            / np.sqrt(q(p.sigma) ** 2 + p.epsilon) + q(p.beta))


def quantnorm_fold(p: BatchNormParams,
                   q: Quantizer = identity_quantizer
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Precompute the fused (s, b) pair: the division runs in full
    precision and only the fused scale is quantized."""
    s = q(p.gamma / np.sqrt(p.sigma ** 2 + p.epsilon))
    b = q(p.mu) * s - q(p.beta)
    return s, b


def quantnorm(x: np.ndarray, p: BatchNormParams,
              q: Quantizer = identity_quantizer) -> np.ndarray:
    """Fused quantized normalization: x * s - b."""
    s, b = quantnorm_fold(p, q)
    return x * s - b


class DPReLUParams(NamedTuple):
    """Learned two-slope activation: eta and gamma are the positive and
    negative slopes around the knee at alpha, shifted down by beta."""

    eta: float
    alpha: float
    beta: float
    gamma: float


def dprelu(x: np.ndarray, p: DPReLUParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - p.alpha
    return np.where(shifted > 0, p.eta * shifted, p.gamma * shifted) - p.beta


def quantization_mse(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Mean squared elementwise difference."""
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape:
        raise DegenerateInputError(
            f"mse: shapes differ: {reference.shape} vs {candidate.shape}")
    return float(np.mean((reference - candidate) ** 2))


class NormComparisonTrial(NamedTuple):
    quantnorm_mse: float
    vanilla_mse: float


def norm_quantization_study(
    trials: int = 1000,
    channels: int = 16,
    samples: int = 64,
    bits: int = 8,
    seed: int = 20240817,
    epsilon: float = DEFAULT_EPS,
) -> list[NormComparisonTrial]:
    """Fixed-seed comparison of the two normalization quantizations.

    Each trial draws plausible per-channel statistics (gamma near one,
    log-normal sigma, standard-normal mu and beta), random inputs, and
    measures both variants' MSE against the full-precision layer under
    an adaptive symmetric quantizer. Per-trial generators derive from
    the root seed, so trials are reproducible and order-independent.

    Trials are drawn one by one but computed in blocks of
    ``_TRIAL_BLOCK``: a block stacks its trials on a leading axis and
    quantizes each with its own scale, so every trial's MSEs are the
    ones it would get alone. Each block spawns its own children from the
    root; successive spawns continue its child counter, so trial k gets
    the k-th child whatever the block size, and memory stays per block.
    """
    _require_ints(trials=trials, seed=seed, bits=bits, channels=channels,
                  samples=samples)
    if trials < 0 or seed < 0:
        raise OutOfRangeError(
            f"trials and seed must be >= 0, got {trials} and {seed}")
    if channels < 1 or samples < 1:
        raise OutOfRangeError(f"channels and samples must be >= 1, got "
                              f"{channels} and {samples}")
    q = _per_trial_quantizer(bits)
    root = np.random.SeedSequence(seed)
    results = []
    for start in range(0, trials, _TRIAL_BLOCK):
        block = root.spawn(min(_TRIAL_BLOCK, trials - start))
        params = np.empty((4, len(block), 1, channels))
        x = np.empty((len(block), samples, channels))
        for k, child in enumerate(block):
            rng = np.random.default_rng(child)
            params[:, k, 0] = (rng.normal(0.0, 1.0, channels),
                               rng.normal(1.0, 0.2, channels),
                               rng.lognormal(0.0, 0.5, channels),
                               rng.normal(0.0, 1.0, channels))
            x[k] = rng.normal(0.0, 1.0, (samples, channels))
        p = BatchNormParams(*params, epsilon=epsilon)
        ref = fp_batchnorm(x, p)
        results += map(NormComparisonTrial,
                       _per_trial_mse(ref, quantnorm(x, p, q)),
                       _per_trial_mse(ref, vanilla_qbn(x, p, q)))
    return results


def _per_trial_mse(reference: np.ndarray, candidate: np.ndarray) -> list:
    """``quantization_mse`` of each trial (leading-axis slice), as floats."""
    return np.mean((reference - candidate) ** 2, axis=(1, 2)).tolist()
