"""The public stage functions the benchmark harness traces by name.

bench/workloads.py looks each of these up by module and name and times
it as one per-layer stage; a stage it cannot find is reported absent, not
as an error. So a rename or removal here must fail a test, and the
harness must change with it.
"""

import importlib

import pytest

TRACED_STAGES = {
    "ir": ("parse_graph", "validate", "topological_order", "infer_shapes",
           "serialize_graph"),
    "census": ("census_graph",),
    "analysis": ("analyze", "ace_report", "energy_report", "data_footprint",
                 "branch_factor", "arithmetic_intensity", "compare"),
    "oracle": ("dadda_adder_count", "verify_multiply_formula",
               "fp_adder_breakdown", "barrel_mux_count"),
    "quantizers": ("norm_quantization_study",),
    # priced per distinct key, and counted as pricing calls, by name
    "cost": ("ace_mac", "ace_multiply", "ace_add", "ace_shift",
             "energy_of_op"),
    # the traced analyze renders through these; without one it falls
    # back to a single cli.main call and the cli.render stage goes absent
    "cli": ("_report_payload", "_report_csv", "_report_table",
            "build_parser", "main"),
}


@pytest.mark.parametrize("stage", [
    f"{module}.{name}" for module, names in TRACED_STAGES.items()
    for name in names])
def test_traced_stage_exists(stage):
    module, name = stage.split(".")
    fn = getattr(importlib.import_module(f"acev2.{module}"), name, None)
    assert callable(fn), f"acev2.{stage}"
