"""Cost analysis for quantized neural-network graphs.

Computes exact bit-adder effort, estimated 45nm arithmetic energy, and
arithmetic intensity for a model IR, with gate-level constructions that
independently verify the closed-form costs and numeric implementations
of the quantization schemes the costs assume.

The names below load their submodule on first use (PEP 562), so that
importing one submodule, such as ``acev2.oracle``, loads no other.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {  # exported name -> the submodule that defines it
    "CostReport": "analysis",
    "analyze": "analysis",
    "compare": "analysis",
    "OpTally": "census",
    "census_graph": "census",
    "AceCost": "cost",
    "EnergyCost": "cost",
    "ace_add": "cost",
    "ace_mac": "cost",
    "ace_multiply": "cost",
    "ace_shift": "cost",
    "energy_of_op": "cost",
    "pearson_correlation": "cost",
    "NumericFormat": "formats",
    "Graph": "ir",
    "parse_graph": "ir",
    "serialize_graph": "ir",
    "validate": "ir",
    "barrel_mux_count": "oracle",
    "dadda_adder_count": "oracle",
    "fp_adder_breakdown": "oracle",
    "verify_multiply_formula": "oracle",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
