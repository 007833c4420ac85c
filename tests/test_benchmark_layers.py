"""Every per-layer metric the benchmark declares must name a public ambrose
callable, and every argument the tracer reads must name a parameter of its
callable, so a rename fails here rather than in the traced benchmark run."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NOT_LAYERS = {"cli.import_s", "host.reference_s", "trace.overhead"}
SUFFIXES = ("calls", "s", "self_s", "rows_max", "levels")


def layer_names() -> list[str]:
    names = []
    for metric in json.loads(SPEC.read_text())["per_layer"]:
        name = metric["name"]
        if name in NOT_LAYERS:
            continue
        layer, _, suffix = name.rpartition(".")
        assert suffix in SUFFIXES, name
        names.append(layer)
    return names


@pytest.mark.parametrize("layer", layer_names())
def test_per_layer_name_is_public_callable(layer):
    module, *path = layer.split(".")
    obj = importlib.import_module(f"ambrose.{module}")
    for part in path:
        assert not part.startswith("_"), layer
        obj = getattr(obj, part)
    assert callable(obj), layer


# arguments that perfbench/run.py's TRACE_ATTRS reads by name from the
# signatures of traced layers
TRACED_ARGS = [("lie_core.nullspace", "mat"), ("homogeneity.build_tower", "kmax")]


@pytest.mark.parametrize("layer,arg", TRACED_ARGS)
def test_traced_argument_name_exists(layer, arg):
    module, name = layer.split(".")
    fn = getattr(importlib.import_module(f"ambrose.{module}"), name)
    assert arg in inspect.signature(fn).parameters, layer
