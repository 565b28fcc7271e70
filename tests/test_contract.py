"""Names other code depends on must keep resolving.

``aqnn.__all__`` is the package's public surface; ``bench/spans.py``
traces functions by (module, attribute path), and a name it cannot find
would otherwise fail only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import aqnn

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, path) for _, module, path, *_ in spans.TARGETS]


@pytest.mark.parametrize("name", aqnn.__all__)
def test_public_name_resolves(name):
    assert getattr(aqnn, name) is not None


@pytest.mark.parametrize("module,path", _span_targets())
def test_traced_name_resolves(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
