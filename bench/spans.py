"""In-memory spans around the public functions of each ``aqnn`` module.

``Tracer.installed()`` replaces every reference to a traced function in
the loaded ``aqnn`` modules, because ``sprint``, ``harness`` and the
package namespace import names such as ``pqe_pt`` and ``embed_many``
directly and look them up in their own globals. On exit the originals
are put back, so untraced rounds run the program unchanged.

A span has a name, a start, an end, the index of its parent span, the id
of the operation it belongs to (-1 in set-up) and two numbers a hook read
from the arguments or the result (rows, ids offered and ledger charges,
the chosen cutoff, the probe count; NaN when unused). Spans live in flat
typed arrays: lists of per-span objects would be traversed by every full
garbage collection and slow the program more the longer the trace grows.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

NAN = float("nan")
SEARCH = ("sprint.sprint_v", "sprint.sprint_c", "sprint.two_phase")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _ledger_total(ledger) -> int:
    return ledger.oracle_calls + ledger.proxy_calls


def _charges(pos, offered):
    """Hooks recording (ids offered to a model, ledger calls actually charged)."""
    def before(args, kwargs):
        return _ledger_total(_arg(args, kwargs, pos, "ledger"))

    def after(args, kwargs, out, pre):
        return offered(args, kwargs), _ledger_total(_arg(args, kwargs, pos, "ledger")) - pre

    return before, after


def _one(read):
    return lambda args, kwargs, out, pre: (read(args, kwargs, out), NAN)


_rows_out = _one(lambda a, k, out: len(out))
_probes = _one(lambda a, k, out: out.probes)
_cutoff = _one(lambda a, k, out: NAN if out.threshold_used is None else out.threshold_used)

# (span name, module, attribute path, before hook, after hook)
TARGETS = [
    ("dataset.load_dataset", "aqnn.dataset", "load_dataset", None, _rows_out),
    ("dataset.save_dataset", "aqnn.dataset", "save_dataset", None,
     _one(lambda a, k, out: len(_arg(a, k, 0, "ds")))),
    ("dataset.generate_synthetic", "aqnn.dataset", "generate_synthetic", None, None),
    ("models.embed_many", "aqnn.models", "embed_many",
     *_charges(3, lambda a, k: len(_arg(a, k, 2, "ids")))),
    ("models.EmbeddingModel.embed", "aqnn.models", "EmbeddingModel.embed",
     *_charges(2, lambda a, k: 1)),
    ("frnn.distances_from", "aqnn.frnn", "distances_from", None, _rows_out),
    ("frnn.exact_frnn", "aqnn.frnn", "exact_frnn", None, None),
    ("frnn.pqe_pt", "aqnn.frnn", "pqe_pt", None, _cutoff),
    ("frnn.top_k_baseline", "aqnn.frnn", "top_k_baseline", None, None),
    ("frnn.prf1", "aqnn.frnn", "prf1", None, None),
    ("sprint.draw_sample", "aqnn.sprint", "draw_sample", None, None),
    ("sprint.draw_pilot", "aqnn.sprint", "draw_pilot", None, None),
    ("sprint.SelectionContext.build", "aqnn.sprint", "SelectionContext.build", None, None),
    ("sprint.sprint_v", "aqnn.sprint", "sprint_v", None, _probes),
    ("sprint.sprint_c", "aqnn.sprint", "sprint_c", None, _probes),
    ("sprint.two_phase", "aqnn.sprint", "two_phase", None, _probes),
    ("sprint.select_neighbors", "aqnn.sprint", "select_neighbors", None, None),
    ("aggregate.aggregate", "aqnn.aggregate", "aggregate", None, None),
    ("harness.ground_truth", "aqnn.harness", "ground_truth", None, None),
    ("harness.run_experiment", "aqnn.harness", "run_experiment", None, None),
]
NAMES = [t[0] for t in TARGETS]


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.v1 = array("d")
        self.v2 = array("d")
        self.op = -1  # id of the operation being timed; -1 in set-up
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name_id, fn, before, after):
        stack = self._stack
        start, end, v1, v2 = self.start, self.end, self.v1, self.v2

        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            idx = len(start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            start.append(0.0)
            end.append(0.0)
            v1.append(NAN)
            v2.append(NAN)
            stack.append(idx)
            start[idx] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
            if after:
                v1[idx], v2[idx] = after(args, kwargs, out, pre)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every target while inside the block; restore the program on exit."""
        undo = []
        modules = [m for k, m in list(sys.modules.items()) if k == "aqnn" or k.startswith("aqnn.")]
        for name_id, (_, mod_name, path, before, after) in enumerate(TARGETS):
            module = sys.modules[mod_name]
            if "." in path:  # a method: replace it on its class
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                wrapper = self._wrap(name_id, raw.__func__ if is_cm else raw, before, after)
                setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
                undo.append((owner, attr, raw))
                continue
            fn = getattr(module, path)
            wrapper = self._wrap(name_id, fn, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, fn))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        def num(x):
            return None if math.isnan(x) else x

        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(json.dumps({
                    "id": i, "name": NAMES[self.name[i]], "start": self.start[i],
                    "end": self.end[i], "parent": None if self.parent[i] < 0 else self.parent[i],
                    "op": None if self.op_of[i] < 0 else self.op_of[i],
                    "v1": num(self.v1[i]), "v2": num(self.v2[i]),
                }) + "\n")


def layer_metrics(tr: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer figures from a trace of ``n_ops`` operations plus set-up.

    Per-op and per-call figures count spans inside operations only; the
    ``dataset.*`` figures are medians over every span, set-up included.
    Self time is a span's duration minus the time its child spans cover.
    """
    name = np.array(tr.name, dtype=np.int64)
    dur = np.array(tr.end) - np.array(tr.start)
    parent = np.array(tr.parent, dtype=np.int64)
    in_op = np.array(tr.op_of, dtype=np.int64) >= 0
    v1, v2 = np.array(tr.v1), np.array(tr.v2)
    child = np.zeros_like(dur)
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    own = dur - child
    ops = max(n_ops, 1)

    def mask(*names, op_only=True):
        m = np.isin(name, [NAMES.index(n) for n in names])
        return m & in_op if op_only else m

    def ms_per_op(*names, values=dur):
        return 1e3 * values[mask(*names)].sum() / ops

    def per_op(values, *names):
        return values[mask(*names)].sum() / ops

    def ms_per_call(n):
        m = mask(n)
        return 1e3 * dur[m].mean() if m.any() else 0.0

    def median(values, n):
        m = mask(n, op_only=False)
        return float(np.median(values[m])) if m.any() else 0.0

    # Distinct cutoffs per selection: pqe_pt spans grouped under their search span.
    search_ids = [NAMES.index(n) for n in SEARCH]
    cutoffs = defaultdict(set)
    pqe = np.nonzero(mask("frnn.pqe_pt"))[0]
    for i in pqe:
        p = parent[i]
        while p >= 0 and name[p] not in search_ids:
            p = parent[p]
        cutoffs[int(p) if p >= 0 else -int(i) - 1].add(None if math.isnan(v1[i]) else float(v1[i]))

    embeds = ("models.embed_many", "models.EmbeddingModel.embed")
    offered = v1[mask(*embeds)].sum()
    return {
        "frnn.pqe_pt.calls_per_op": pqe.size / ops,
        "frnn.pqe_pt.ms_per_call": ms_per_call("frnn.pqe_pt"),
        "frnn.pqe_pt.self_ms_per_op": ms_per_op("frnn.pqe_pt", values=own),
        "frnn.pqe_pt.distinct_cutoff_ratio":
            sum(map(len, cutoffs.values())) / pqe.size if pqe.size else 0.0,
        "sprint.probes_per_op": per_op(v1, *SEARCH),
        "sprint.draw_sample.ms_per_op": ms_per_op("sprint.draw_sample"),
        "sprint.draw_pilot.ms_per_op": ms_per_op("sprint.draw_pilot"),
        "sprint.SelectionContext.build.self_ms_per_op":
            ms_per_op("sprint.SelectionContext.build", values=own),
        "sprint.search.self_ms_per_op": ms_per_op(*SEARCH, values=own),
        "models.embed_many.ms_per_op": ms_per_op("models.embed_many"),
        "models.embed_many.ids_per_op": per_op(v1, "models.embed_many"),
        "models.ledger.new_charge_ratio": v2[mask(*embeds)].sum() / offered if offered else 0.0,
        "frnn.distances_from.ms_per_op": ms_per_op("frnn.distances_from"),
        "frnn.distances_from.rows_per_op": per_op(v1, "frnn.distances_from"),
        "frnn.exact_frnn.ms_per_op": ms_per_op("frnn.exact_frnn"),
        "frnn.top_k_baseline.ms_per_call": ms_per_call("frnn.top_k_baseline"),
        "frnn.prf1.ms_per_op": ms_per_op("frnn.prf1"),
        "harness.ground_truth.ms_per_call": ms_per_call("harness.ground_truth"),
        "harness.run_experiment.self_ms_per_op": ms_per_op("harness.run_experiment", values=own),
        "aggregate.aggregate.ms_per_op": ms_per_op("aggregate.aggregate"),
        "dataset.load_dataset.s": median(dur, "dataset.load_dataset"),
        "dataset.load_dataset.rows_per_s": median(v1 / dur, "dataset.load_dataset"),
        "dataset.save_dataset.s": median(dur, "dataset.save_dataset"),
        "dataset.save_dataset.rows_per_s": median(v1 / dur, "dataset.save_dataset"),
        "dataset.generate_synthetic.s": median(dur, "dataset.generate_synthetic"),
    }
