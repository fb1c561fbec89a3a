"""Programmatic builders for the graphs the analyzer is calibrated on.

All builders emit 224x224x3 single-image graphs:

  * a depthwise-separable family (narrow "pike" variants at four cost
    scales, plus the classic width-1.0 network it borrows its first and
    last blocks from);
  * an inverted-residual network for the normalization / activation /
    granularity overhead studies;
  * a bottleneck-residual network whose blocks can carry a configurable
    number of parallel skip branches.

PROVENANCE: layer tables follow the original public architecture
definitions (the residual network uses the variant that strides the
first 1x1 convolution of each downsampling block). Any format choice
made to match a published operating point is a keyword default or is
named in its builder's docstring, never a hidden constant.

A builder shares one object per distinct params mapping, format and
quantization annotation across its nodes (``ir.share_blocks``), as a
parse does. Its graph cannot change in place, as a parsed graph cannot:
to edit one, build a new ``Graph`` of nodes edited with ``_replace``.
Two builds share no params.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .formats import FP32, INT4, INT8, INT16, NumericFormat
from .ir import (
    Graph,
    GRANULARITY_SUBCHANNELWISE,
    KIND_ACTIVATION,
    KIND_ADD,
    KIND_BATCHNORM,
    KIND_CONV,
    KIND_DENSE,
    KIND_DWCONV,
    KIND_INPUT,
    KIND_OUTPUT,
    KIND_POOL,
    KIND_PWCONV,
    POT_SCALE,
    QuantizationAnnotation,
    TensorShape,
    share_blocks,
)

IMAGENET_INPUT = TensorShape(1, 224, 224, 3)
NUM_CLASSES = 1000


class _Builder:
    def __init__(self, name: str, input_shape: TensorShape = IMAGENET_INPUT):
        self.name = name
        self.input_shape = input_shape
        self.nodes: List[tuple] = []  # each node's fields
        self.add("in", KIND_INPUT, [])

    def add(self, node_id: str, kind: str, inputs: List[str],
            params: Optional[dict] = None,
            weight_format: Optional[NumericFormat] = None,
            act_format: Optional[NumericFormat] = None,
            quant: Optional[QuantizationAnnotation] = None) -> str:
        self.nodes.append((node_id, kind, params, inputs, weight_format,
                           act_format, quant))
        return node_id

    def finish(self, last: str) -> Graph:
        self.add("out", KIND_OUTPUT, [last])
        return Graph(self.name, self.input_shape, share_blocks(self.nodes))


# Depthwise-separable backbone: (stride, pointwise out channels).
_SEPARABLE_BLOCKS: Tuple[Tuple[int, int], ...] = (
    (1, 64), (2, 128), (1, 128), (2, 256), (1, 256), (2, 512),
    (1, 512), (1, 512), (1, 512), (1, 512), (1, 512),
    (2, 1024), (1, 1024),
)


def _scaled(channels: int, multiplier: float) -> int:
    return max(8, int(round(channels * multiplier)))


def build_mobilenet_v1(
    width: float = 1.0,
    weight_fmt: NumericFormat = INT8,
    act_fmt: NumericFormat = INT8,
) -> Graph:
    """Classic 28-layer depthwise-separable classifier.

    The stem convolution and the classifier head run at fp32 weights and
    int8 activations: mixed-precision deployments conventionally keep
    those at higher precision than the body. Integer-weight layers carry
    channelwise float scales; float-weight layers are unquantized.
    """
    if width <= 0:
        raise ValueError("width multiplier must be positive")

    quant = (QuantizationAnnotation(scale_format=FP32)
             if weight_fmt.is_fixed else None)

    b = _Builder(f"mobilenet_v1_{width:g}w")
    stem = _scaled(32, width)
    prev = b.add("conv1", KIND_CONV, ["in"],
                 {"kernel": [3, 3], "stride": 2, "out_channels": stem,
                  "padding": "same"},
                 weight_format=FP32, act_format=INT8)
    prev = b.add("conv1_bn", KIND_BATCHNORM, [prev])
    prev = b.add("conv1_relu", KIND_ACTIVATION, [prev], {"activation": "relu"})

    for i, (stride, out_c) in enumerate(_SEPARABLE_BLOCKS, start=1):
        dw = b.add(f"b{i}_dw", KIND_DWCONV, [prev],
                   {"kernel": [3, 3], "stride": stride, "padding": "same"},
                   weight_format=weight_fmt, act_format=act_fmt,
                   quant=quant)
        dw_bn = b.add(f"b{i}_dw_bn", KIND_BATCHNORM, [dw])
        dw_relu = b.add(f"b{i}_dw_relu", KIND_ACTIVATION, [dw_bn],
                        {"activation": "relu"})
        pw = b.add(f"b{i}_pw", KIND_PWCONV, [dw_relu],
                   {"out_channels": _scaled(out_c, width)},
                   weight_format=weight_fmt, act_format=act_fmt,
                   quant=quant)
        pw_bn = b.add(f"b{i}_pw_bn", KIND_BATCHNORM, [pw])
        prev = b.add(f"b{i}_pw_relu", KIND_ACTIVATION, [pw_bn],
                     {"activation": "relu"})

    pool = b.add("pool", KIND_POOL, [prev], {"pool": "global_avg"})
    fc = b.add("fc", KIND_DENSE, [pool], {"units": NUM_CLASSES},
               weight_format=FP32, act_format=INT8)
    return b.finish(fc)


class PikeScaleConfig(NamedTuple):
    """Operating point of one pike-family scale."""

    channel_multiplier: float
    pointwise_act: NumericFormat  # precision of the pointwise conv input
    remove_mid_norm: bool         # drop the norm between depthwise and pointwise


PIKE_SCALES = {
    "1x": PikeScaleConfig(1.0, INT8, True),
    "2x": PikeScaleConfig(1.0, INT16, False),
    "3x": PikeScaleConfig(1.5, INT16, False),
    "6x": PikeScaleConfig(2.0, INT16, False),
}


def build_pikelpn(
    scale: str = "1x",
    *,
    pointwise_pot: bool = True,
    pot_scales: bool = True,
    quantnorm_bits: Optional[int] = 8,
    act_bits: Optional[int] = None,
    include_mid_norm: Optional[bool] = None,
) -> Graph:
    """Low-precision separable network tuned for cheap elementwise ops.

    The default configuration is the shipping design: pointwise weights
    on a 4-bit power-of-two grid (their multiplies run as shifts, no
    scale factors needed), depthwise/stem/head weights 8-bit linear
    with power-of-two scale factors, normalization fused and quantized
    to 8 bits, no skip connections, no parameterized activations. The
    1x point also removes the norm between the depthwise and pointwise
    convolutions.

    The keyword knobs exist for quantizer ablations: linear pointwise
    weights (with scales), float scale factors, full-precision
    normalization, or a uniform activation width.
    """
    cfg = PIKE_SCALES[scale]
    mult = cfg.channel_multiplier
    if include_mid_norm is None:
        include_mid_norm = not cfg.remove_mid_norm

    dw_act = NumericFormat.fixed(act_bits) if act_bits else INT8
    pw_act = NumericFormat.fixed(act_bits) if act_bits else cfg.pointwise_act
    head_act = INT8

    scale_fmt = POT_SCALE if pot_scales else FP32
    norm_fmt = NumericFormat.fixed(quantnorm_bits) if quantnorm_bits else None
    norm_params = {"quantnorm": True} if quantnorm_bits else {}

    def norm(node_id: str, src: str, builder: _Builder) -> str:
        return builder.add(node_id, KIND_BATCHNORM, [src], norm_params,
                           weight_format=norm_fmt)

    pw_weight = INT4
    linear_quant = QuantizationAnnotation(scale_format=scale_fmt)
    pw_quant = (QuantizationAnnotation(scale_format=POT_SCALE,
                                       weight_quantizer="pot")
                if pointwise_pot else linear_quant)

    b = _Builder(f"pikelpn_{scale}")
    stem = _scaled(32, mult)
    prev = b.add("conv1", KIND_CONV, ["in"],
                 {"kernel": [3, 3], "stride": 2, "out_channels": stem,
                  "padding": "same"},
                 weight_format=INT8, act_format=head_act,
                 quant=linear_quant)
    prev = norm("conv1_norm", prev, b)
    prev = b.add("conv1_relu", KIND_ACTIVATION, [prev], {"activation": "relu"})

    for i, (stride, out_c) in enumerate(_SEPARABLE_BLOCKS, start=1):
        dw = b.add(f"b{i}_dw", KIND_DWCONV, [prev],
                   {"kernel": [3, 3], "stride": stride, "padding": "same"},
                   weight_format=INT8, act_format=dw_act,
                   quant=linear_quant)
        cursor = dw
        if include_mid_norm:
            cursor = norm(f"b{i}_dw_norm", cursor, b)
        pw = b.add(f"b{i}_pw", KIND_PWCONV, [cursor],
                   {"out_channels": _scaled(out_c, mult)},
                   weight_format=pw_weight, act_format=pw_act,
                   quant=pw_quant)
        pw_norm = norm(f"b{i}_pw_norm", pw, b)
        prev = b.add(f"b{i}_relu", KIND_ACTIVATION, [pw_norm],
                     {"activation": "relu"})

    pool = b.add("pool", KIND_POOL, [prev], {"pool": "global_avg"})
    fc = b.add("fc", KIND_DENSE, [pool], {"units": NUM_CLASSES},
               weight_format=INT8, act_format=head_act,
               quant=linear_quant)
    return b.finish(fc)


# Inverted-residual settings: (expansion, out channels, repeats, stride).
_INVERTED_RESIDUAL_BLOCKS = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def build_mobilenet_v2(
    weight_bits: int = 4,
    act_bits: int = 4,
    activation_kind: str = "relu",
    granularity: str = "channelwise",
) -> Graph:
    """Inverted-residual classifier with uniform integer formats.

    Every convolution is quantized at (weight_bits, act_bits) with
    float32 scale factors at the requested granularity; normalization
    and activation parameters stay in float32, which is exactly the
    configuration whose elementwise overhead the analyzer quantifies.
    """
    wf = NumericFormat.fixed(weight_bits)
    af = NumericFormat.fixed(act_bits)
    vectors = 2 if granularity == GRANULARITY_SUBCHANNELWISE else None

    quant = QuantizationAnnotation(granularity, FP32,
                                   vectors_per_channel=vectors)

    b = _Builder(f"mobilenet_v2_{weight_bits}w{act_bits}a_{activation_kind}")

    def conv_bn(node_id: str, kind: str, src: str, params: dict,
                activated: bool) -> str:
        conv = b.add(node_id, kind, [src], params,
                     weight_format=wf, act_format=af, quant=quant)
        bn = b.add(f"{node_id}_bn", KIND_BATCHNORM, [conv])
        if not activated:
            return bn
        return b.add(f"{node_id}_act", KIND_ACTIVATION, [bn],
                     {"activation": activation_kind})

    prev = conv_bn("conv1", KIND_CONV, "in",
                   {"kernel": [3, 3], "stride": 2, "out_channels": 32,
                    "padding": "same"}, activated=True)

    in_c = 32
    block = 0
    for expansion, out_c, repeats, first_stride in _INVERTED_RESIDUAL_BLOCKS:
        for r in range(repeats):
            block += 1
            stride = first_stride if r == 0 else 1
            tag = f"b{block}"
            entry = prev
            cursor = prev
            if expansion != 1:
                cursor = conv_bn(f"{tag}_expand", KIND_PWCONV, cursor,
                                 {"out_channels": in_c * expansion},
                                 activated=True)
            cursor = conv_bn(f"{tag}_dw", KIND_DWCONV, cursor,
                             {"kernel": [3, 3], "stride": stride,
                              "padding": "same"}, activated=True)
            cursor = conv_bn(f"{tag}_project", KIND_PWCONV, cursor,
                             {"out_channels": out_c}, activated=False)
            if stride == 1 and in_c == out_c:
                cursor = b.add(f"{tag}_add", KIND_ADD, [cursor, entry])
            prev = cursor
            in_c = out_c

    prev = conv_bn("conv_last", KIND_PWCONV, prev,
                   {"out_channels": 1280}, activated=True)
    pool = b.add("pool", KIND_POOL, [prev], {"pool": "global_avg"})
    fc = b.add("fc", KIND_DENSE, [pool], {"units": NUM_CLASSES},
               weight_format=wf, act_format=af, quant=quant)
    return b.finish(fc)


# Bottleneck stages: (blocks, mid channels, out channels, first stride).
_BOTTLENECK_STAGES = (
    (3, 64, 256, 1),
    (4, 128, 512, 2),
    (6, 256, 1024, 2),
    (3, 512, 2048, 2),
)


def build_resnet50_branches(
    branch_count: int = 2,
    weight_fmt: NumericFormat = NumericFormat.binary(),
    act_fmt: NumericFormat = NumericFormat.binary(),
) -> Graph:
    """Bottleneck-residual classifier with a configurable merge width.

    ``branch_count`` is the number of parallel paths a block keeps live:
    2 is the standard residual form (main path plus one skip); 3 and 4
    add further skip reads into each merge, mirroring the multi-branch
    designs whose memory pressure the intensity metric exposes. Stem and
    head activations are 8 bits, the usual concession in otherwise
    binary deployments; every conv carries a layerwise float32 scale.
    """
    if branch_count not in (2, 3, 4):
        raise ValueError("branch_count must be 2, 3, or 4")
    extra_skips = branch_count - 2
    quant = QuantizationAnnotation("layerwise", FP32)

    b = _Builder(f"resnet50_{branch_count}b_"
                 f"{weight_fmt.total_bits}w{act_fmt.total_bits}a")

    def conv(node_id: str, kind: str, src: str, params: dict,
             head: bool = False) -> str:
        node = b.add(node_id, kind, [src], params,
                     weight_format=weight_fmt,
                     act_format=INT8 if head else act_fmt,
                     quant=quant)
        return b.add(f"{node_id}_bn", KIND_BATCHNORM, [node])

    prev = conv("conv1", KIND_CONV, "in",
                {"kernel": [7, 7], "stride": 2, "out_channels": 64,
                 "padding": "same"}, head=True)
    prev = b.add("conv1_relu", KIND_ACTIVATION, [prev], {"activation": "relu"})
    prev = b.add("maxpool", KIND_POOL, [prev],
                 {"pool": "max", "kernel": [3, 3], "stride": 2,
                  "padding": "same"})

    block = 0
    for stage_idx, (blocks, mid_c, out_c, first_stride) in enumerate(
            _BOTTLENECK_STAGES, start=1):
        for r in range(blocks):
            block += 1
            stride = first_stride if r == 0 else 1
            tag = f"s{stage_idx}b{r + 1}"
            entry = prev

            cursor = conv(f"{tag}_reduce", KIND_PWCONV, entry,
                          {"out_channels": mid_c, "stride": stride})
            cursor = b.add(f"{tag}_reduce_relu", KIND_ACTIVATION, [cursor],
                           {"activation": "relu"})
            cursor = conv(f"{tag}_conv3", KIND_CONV, cursor,
                          {"kernel": [3, 3], "stride": 1,
                           "out_channels": mid_c, "padding": "same"})
            cursor = b.add(f"{tag}_conv3_relu", KIND_ACTIVATION, [cursor],
                           {"activation": "relu"})
            cursor = conv(f"{tag}_expand", KIND_PWCONV, cursor,
                          {"out_channels": out_c})

            if r == 0:
                skip = conv(f"{tag}_down", KIND_PWCONV, entry,
                            {"out_channels": out_c, "stride": stride})
            else:
                skip = entry
            merged = b.add(f"{tag}_add", KIND_ADD,
                           [cursor, skip] + [skip] * extra_skips)
            prev = b.add(f"{tag}_relu", KIND_ACTIVATION, [merged],
                         {"activation": "relu"})

    pool = b.add("pool", KIND_POOL, [prev], {"pool": "global_avg"})
    fc = b.add("fc", KIND_DENSE, [pool], {"units": NUM_CLASSES},
               weight_format=weight_fmt, act_format=INT8,
               quant=quant)
    return b.finish(fc)
