"""Mutation gate for the input rules and the loader's column layout: ``python3 tools/mutants.py``.

Run from the repository root. Copies ``src`` to a temporary directory and,
for each entry of ``MUTANTS``, replaces one exact source snippet in the
copy, runs only the tests named to kill it (``pytest -x -q``) against the
copy, and restores the file. A mutant is killed when those tests fail and
survives when they pass. Prints one line per mutant with the time taken,
and exits non-zero if any mutant survives or if the named tests fail on
the unmutated copy. Mutation analysis: DeMillo, Lipton and Sayward, "Hints
on Test Data Selection", IEEE Computer 11(4), 1978.

Each snippet must occur exactly once in its file; ``tests/test_contract.py``
checks that in the tier-1 suite, so the table cannot rot silently. Every
killer named here is deterministic: none relies on hypothesis to find the
input. A change that adds a check adds its mutants to the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120  # a mutant that hangs its tests counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # node ids, relative to the repository root


_LOAD = "tests/test_dataset.py::TestLoadDataset::"
_COLUMNS = "tests/test_dataset.py::TestLoadedColumns::"
_SETTINGS = "tests/test_sprint.py::test_search_rejects_settings_sprint_config_rejects"

MUTANTS = (
    # dataset._block: one mutant per JSONL record rule, in the rules' order
    Mutant("loader: missing vector read as zeros", "aqnn/dataset.py",
           "vectors = {key: [r[key] for r in records] for key in dims}",
           "vectors = {key: [r.get(key, [0.0] * dims[key]) for r in records] for key in dims}",
           (_LOAD + "test_record_without_embedding_rejected",)),
    Mutant("loader: bool attr accepted", "aqnn/dataset.py",
           "if not set(map(type, attrs)) <= _NUMBER:",
           "if not set(map(type, attrs)) <= _NUMBER | {bool}:",
           (_LOAD + "test_booleans_rejected",)),
    Mutant("loader: id not compared with its position", "aqnn/dataset.py",
           " or ids != list(range(start, start + len(records))):",
           ":",
           (_LOAD + "test_mismatched_id_names_line",)),
    Mutant("loader: attr overflow not caught", "aqnn/dataset.py",
           "except OverflowError:  # a JSON integer too large for a float\n"
           "        broken(\"attr",
           "except ValueError:\n"
           "        broken(\"attr",
           (_LOAD + "test_integer_too_large_for_a_float_names_line",)),
    Mutant("loader: bool vector element accepted", "aqnn/dataset.py",
           "or not set(map(type, chain.from_iterable(rows))) <= _NUMBER):",
           "or not set(map(type, chain.from_iterable(rows))) <= _NUMBER | {bool}):",
           (_LOAD + "test_booleans_rejected",)),
    Mutant("loader: vector one too long accepted", "aqnn/dataset.py",
           "if not set(map(len, rows)) <= {dim}:",
           "if not set(map(len, rows)) <= {dim, dim + 1}:",
           (_LOAD + "test_dimension_error_names_line",)),
    Mutant("loader: vector overflow not caught", "aqnn/dataset.py",
           "except OverflowError:\n"
           "            broken(f\"{key} holds",
           "except ValueError:\n"
           "            broken(f\"{key} holds",
           (_LOAD + "test_integer_too_large_for_a_float_names_line",)),
    Mutant("loader: a bad block re-checked last record first", "aqnn/dataset.py",
           "for i in range(len(records)):",
           "for i in reversed(range(len(records))):",
           (_LOAD + "test_ids_reindexed_densely",)),
    Mutant("loader: unparseable line wins over an earlier bad record", "aqnn/dataset.py",
           "_block(records, lines, n, dims)  # an earlier bad record wins",
           "pass",
           ("tests/test_loader_reference.py::test_bad_vector_then_invalid_json_in_one_block",)),
    # dataset.load_dataset: columns sized by the count, grown by doubling, cut to n rows
    Mutant("loader: columns never grow past the count", "aqnn/dataset.py",
           "if n + k > len(columns[0]):",
           "if False:",
           (_COLUMNS + "test_file_loads_equal[cr only]",)),
    Mutant("loader: no seek(0) after the count", "aqnn/dataset.py",
           "fh.seek(0)",
           "pass",
           (_COLUMNS + "test_file_loads_equal[plain]",)),
    Mutant("loader: columns not cut to n rows", "aqnn/dataset.py",
           "(col[:n] for col in columns)",
           "(col for col in columns)",
           (_COLUMNS + "test_file_loads_equal[plain]",)),
    # sprint._check_settings: the search settings rule
    Mutant("settings: no upper bound on a tolerance", "aqnn/sprint.py",
           "if not 0.0 < value < 1.0:",
           "if not 0.0 < value:",
           (_SETTINGS + "[sprint_v omega_v 1.5]",)),
    Mutant("settings: bool max_iters accepted", "aqnn/sprint.py",
           "type(max_iters) is not int",
           "not isinstance(max_iters, int)",
           (_SETTINGS + "[SprintConfig max_iters True]",)),
    Mutant("settings: non-integer size or seed accepted", "aqnn/sprint.py",
           "if not _is_integer(value):",
           "if False:",
           ("tests/test_sprint.py::test_sprint_config_sizes_and_seed_are_integers[seed 1.5]",)),
    # cli._resolve_queries
    Mutant("cli: random:k beyond the population not rejected", "aqnn/cli.py",
           "if k > n:",
           "if False:",
           ("tests/test_cli.py::TestBadInputFailsLoudly::test_bad_query_spec"
            "[random:301-random:301 draws more ids than the population of 300]",)),
)


def run_tests(src: str, tests: tuple[str, ...]) -> bool:
    """Whether ``tests`` pass with ``src`` as the package source."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    # -o pythonpath: pyproject's ``pythonpath = ["src"]`` would put the
    # repository's own src ahead of PYTHONPATH
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="aqnn-mutants-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if not run_tests(src, every_test):
            print("the named tests fail on the unmutated source", file=sys.stderr)
            return 1
        survivors = 0
        for m in MUTANTS:
            path = os.path.join(src, m.path)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            if original.count(m.snippet) != 1:
                raise SystemExit(f"{m.name}: snippet must occur once in src/{m.path}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            try:
                killed = not run_tests(src, m.tests)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            survivors += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {time.perf_counter() - start:5.1f} s"
                  f"  {m.name}", flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
