"""Names and formats other code depends on must keep working.

``aqnn.__all__`` is the package's public surface; ``bench/spans.py``
traces functions by (module, attribute path), and a name it cannot find
would otherwise fail only in a traced benchmark run. ``bench/inputs.py``
writes the benchmark's JSONL populations with its own writer, so a loader
that stopped reading them would otherwise fail only in a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import aqnn

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _span_targets():
    return [(module, path) for _, module, path, *_ in _bench_module("spans").TARGETS]


@pytest.mark.parametrize("name", aqnn.__all__)
def test_public_name_resolves(name):
    assert getattr(aqnn, name) is not None


@pytest.mark.parametrize("module,path", _span_targets())
def test_traced_name_resolves(module, path):
    assert callable(_resolve(module, path))


# The argument positions the bench/spans.py hooks read; a method's 0 is self.
TRACED_ARGS = [
    ("aqnn.models", "embed_many", {2: "ids", 3: "ledger"}),
    ("aqnn.models", "EmbeddingModel.embed", {2: "ledger"}),
    ("aqnn.dataset", "save_dataset", {0: "ds"}),
]


@pytest.mark.parametrize("module,path,args", TRACED_ARGS, ids=[t[1] for t in TRACED_ARGS])
def test_traced_argument_positions(module, path, args):
    assert (module, path) in _span_targets()
    names = list(inspect.signature(_resolve(module, path)).parameters)
    assert {pos: names[pos] for pos in args} == args


def test_benchmark_input_file_loads(tmp_path):
    inputs = _bench_module("inputs")
    pop = inputs.population(50, seed=3)
    path = tmp_path / "bench.jsonl"
    inputs.write_jsonl(pop, str(path))
    ds = aqnn.load_dataset(str(path))
    assert np.array_equal(ds.attrs, pop["attrs"])
    assert np.array_equal(ds.features, pop["oracle"])
    assert np.array_equal(ds.oracle_emb, pop["oracle"])
    assert np.array_equal(ds.proxy_emb, pop["proxy"])
    assert ds.attr_bounds == inputs.ATTR_BOUNDS
    assert ds.bounds_source == "declared"
