"""Names and formats other code depends on must keep working.

``aqnn.__all__`` is the package's public surface; ``bench/spans.py``
traces functions by (module, attribute path), and a name it cannot find
would otherwise fail only in a traced benchmark run. ``bench/inputs.py``
writes the benchmark's JSONL populations with its own writer, so a loader
that stopped reading them would otherwise fail only in a benchmark run.
The README's Python examples are run as written, so a signature they call
cannot change without them, and ``tools/grid_cells.py``, which imports the
benchmark's inputs and grid configuration, is run for one round. Every
mutant in ``tools/mutants.py`` must still name a snippet that occurs once in
``src`` and tests that exist, so its table cannot rot between mutant runs.
"""

import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aqnn

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


def test_readme_python_examples_run(capsys):
    # every fenced python block, in order, in one namespace: a later block
    # reads the dataset and names an earlier one made
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    # s_p oracle and s proxy calls, plus one of each for the query target
    assert capsys.readouterr().out.endswith("{'oracle_calls': 301, 'proxy_calls': 1001}\n")
    assert namespace["res"].algorithm == "pqe_pt_fixed:0.7"


def test_grid_cells_tool_runs():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "grid_cells.py"), "--rounds", "1"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    report = json.loads(out)
    assert set(report) == {"seed", "rounds", "cells_per_round", "round_ms_median",
                           "cell_ms_median"}
    assert report["rounds"] == 1 and report["round_ms_median"] > 0
    assert set(report["cell_ms_median"]) == {"sprint_v", "sprint_c", "two_phase", "top_k",
                                             "brute_force"}


def test_mutant_table_matches_the_source():
    spec = importlib.util.spec_from_file_location("_mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (ROOT / "src" / m.path).read_text(encoding="utf-8").count(m.snippet) == 1, m.name
        for node in m.tests:
            path, *names = node.split("::")
            function = names[-1].partition("[")[0]
            assert f"def {function}(" in (ROOT / path).read_text(encoding="utf-8"), node
