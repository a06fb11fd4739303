"""The benchmark's tracer patches package names by string; they must stay."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cfarmismatch import mcengine

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer,attr", _targets())
def test_traced_name_resolves(layer, attr):
    obj = importlib.import_module(f"cfarmismatch.{layer}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_pool_probe_names_resolve():
    assert callable(mcengine._map_chunks)
    assert isinstance(mcengine.ProcessPoolExecutor, type)
