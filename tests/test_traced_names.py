"""The benchmark's tracer patches package names by string; they must stay."""

import importlib
import importlib.util
import inspect
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


# The tracer's counters read these arguments by position (spans.COUNTERS).
@pytest.mark.parametrize("layer,func,index,name", [
    ("detect", "gen_data_batch", 6, "n_batch"),
    ("storep", "sample_pairs", 2, "size"),
    ("report", "write_csv", 0, "path"),
    ("report", "svg_plot", 0, "path"),
])
def test_counted_argument_position(layer, func, index, name):
    fn = getattr(importlib.import_module(f"cfarmismatch.{layer}"), func)
    assert list(inspect.signature(fn).parameters)[index] == name
