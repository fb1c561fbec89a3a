"""Exception types shared across the package."""


class AceV2Error(Exception):
    """Base class for all package errors."""


class MixedKindError(AceV2Error):
    """Fixed-point and floating-point operands mixed where forbidden."""


class UnsupportedOperandError(AceV2Error):
    """Operand format not admissible for the requested operation."""


class UnsupportedExtrapolationError(AceV2Error):
    """No measured energy and no sanctioned extrapolation for this op."""


class DegenerateInputError(AceV2Error):
    """Statistical input with zero variance or mismatched length."""


class OutOfRangeError(AceV2Error):
    """Bit width or parameter outside the supported range."""


class NonPositiveScaleError(AceV2Error):
    """Quantizer scale factors must be strictly positive."""


class ParseError(AceV2Error):
    """Malformed graph document.

    Carries ``path`` describing where in the document the problem sits
    (for example ``$.nodes[3].params.kernel``; ``.params.kernel`` from a
    node made in code), and ``message``, what is wrong there.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class UnknownKindError(ParseError):
    """Node kind not in the schema."""


class DanglingInputError(ParseError):
    """Node references an input id that does not exist."""

    def __init__(self, missing_id: str, path: str = ""):
        self.missing_id = missing_id
        super().__init__(f"unresolved input id {missing_id!r}", path)


class ShapeMismatchError(ParseError):
    """Incompatible tensor shapes at a node, which makes the document
    malformed; ``path`` is the node's ``$.nodes[i]`` once shape inference
    names it."""

    def __init__(self, node_id: str, message: str, path: str = ""):
        self.node_id = node_id
        self.reason = message
        super().__init__(f"{node_id}: {message}", path)


class AnalysisError(AceV2Error):
    """Cost evaluation failed for a tally entry, or for a graph's sum;
    carries the layer id, or the graph's name."""

    def __init__(self, layer_id: str, message: str):
        self.layer_id = layer_id
        super().__init__(f"{layer_id}: {message}")
