import numpy as np
import pytest
from hypothesis import given, strategies as st

from aqnn import CallLedger, embed_many, speedup
from aqnn.sprint import resolve_query_object

class SetLedger:
    """The set-of-ids ledger ``CallLedger`` replaced, kept as its reference."""

    def __init__(self):
        self._charged: dict[str, set[int]] = {"oracle": set(), "proxy": set()}

    @property
    def oracle_calls(self) -> int:
        return len(self._charged["oracle"])

    @property
    def proxy_calls(self) -> int:
        return len(self._charged["proxy"])

    def charge(self, role: str, ids) -> int:
        charged = self._charged[role]
        before = len(charged)
        charged.update(np.asarray(ids, dtype=np.int64).ravel().tolist())
        return len(charged) - before

    def as_dict(self) -> dict[str, int]:
        return {"oracle_calls": self.oracle_calls, "proxy_calls": self.proxy_calls}


_ID = st.integers(-1, 40)


def _charge_ids(charged: list[int]):
    """Ids for one charge: a scalar, an empty, unsorted or duplicated list, a
    strictly increasing array, or ids that earlier charges hold already."""
    options = [
        _ID,
        st.lists(_ID, max_size=12),
        st.lists(_ID, max_size=12, unique=True).map(lambda xs: np.array(sorted(xs), np.int64)),
    ]
    if charged:
        options.append(st.lists(st.sampled_from(charged), min_size=1, max_size=12)
                       .map(lambda xs: np.array(xs, np.int64)))
    return st.one_of(options)


class TestEmbedAccounting:
    def test_repeat_embed_charged_once(self, tiny_ds, models):
        oracle, _ = models
        ledger = CallLedger()
        obj = resolve_query_object(tiny_ds, 2)
        v1 = oracle.embed(obj, ledger)
        v2 = oracle.embed(obj, ledger)
        assert np.array_equal(v1, v2)
        assert ledger.oracle_calls == 1

    def test_distinct_objects_each_charged(self, tiny_ds, models):
        _, proxy = models
        ledger = CallLedger()
        for i in range(5):
            proxy.embed(resolve_query_object(tiny_ds, i), ledger)
        assert ledger.proxy_calls == 5
        assert ledger.oracle_calls == 0

    def test_embed_many_matches_per_object(self, tiny_ds, models):
        # ids repeated within and across batches, and the external-query
        # pseudo-id -1 beside the last row, charge as the per-object loop does
        last = len(tiny_ds) - 1
        batches = [np.array([1, 3, 5]), np.array([3, 3, last, 1]), np.array([1, 3, 5])]
        external = resolve_query_object(tiny_ds, tiny_ds.oracle_emb[0] + 0.5)
        for model in models:
            l1, l2 = CallLedger(), CallLedger()
            for ids in batches:
                bulk = embed_many(model, tiny_ds, ids, l1)
                objs = [resolve_query_object(tiny_ds, i) for i in ids]
                single = np.vstack([model.embed(obj, l2) for obj in objs])
                assert np.array_equal(bulk, single)
                assert l1.as_dict() == l2.as_dict()
            model.embed(external, l1)
            model.embed(external, l2)
            assert l1.as_dict() == l2.as_dict()
            calls = l1.oracle_calls if model.role == "oracle" else l1.proxy_calls
            assert calls == 5 and sum(l1.as_dict().values()) == 5

    def test_embed_many_of_all_ids_equals_indexed_rows(self, tiny_ds, models):
        # a scan of all of D may skip the copy, but returns the same rows
        # and charges every id
        for model in models:
            ledger = CallLedger()
            rows = embed_many(model, tiny_ds, tiny_ds.ids, ledger)
            matrix = tiny_ds.oracle_emb if model.role == "oracle" else tiny_ds.proxy_emb
            assert np.array_equal(rows, matrix[tiny_ds.ids])
            assert not rows.flags.writeable
            assert sum(ledger.as_dict().values()) == len(tiny_ds)

    @pytest.mark.parametrize("ids", [[5, 1, 1, 6], [0], [], "reversed"])
    def test_embed_many_of_other_ids_is_a_fresh_gather(self, tiny_ds, models, ids):
        # the fancy index it replaced is the reference; the gather belongs to
        # the caller, who may overwrite it without touching the stored matrix
        ids = tiny_ds.ids[::-1] if ids == "reversed" else np.array(ids, dtype=np.int64)
        for model in models:
            matrix = tiny_ds.oracle_emb if model.role == "oracle" else tiny_ds.proxy_emb
            rows = embed_many(model, tiny_ds, ids, CallLedger())
            assert np.array_equal(rows, matrix[ids]) and rows.dtype == matrix.dtype
            assert rows.flags.writeable and not np.shares_memory(rows, matrix)


    @given(st.lists(st.tuples(st.sampled_from(["oracle", "proxy"]),
                              st.lists(st.integers(-1, 40), max_size=12)), max_size=20))
    def test_counts_are_distinct_ids_charged(self, charges):
        ledger = CallLedger()
        seen = {"oracle": set(), "proxy": set()}
        for role, ids in charges:
            new = set(ids) - seen[role]
            seen[role] |= new
            assert ledger.charge(role, np.array(ids, dtype=np.int64)) == len(new)
        assert ledger.as_dict() == {
            "oracle_calls": len(seen["oracle"]), "proxy_calls": len(seen["proxy"])
        }


class TestCallLedger:
    @given(st.data())
    def test_matches_set_ledger(self, data):
        ledger, ref = CallLedger(), SetLedger()
        for _ in range(data.draw(st.integers(0, 20))):
            role = data.draw(st.sampled_from(["oracle", "proxy"]))
            ids = data.draw(_charge_ids(sorted(ref._charged[role])))
            assert ledger.charge(role, ids) == ref.charge(role, ids)
            assert ledger.as_dict() == ref.as_dict()

    def test_caller_reusing_its_array_leaves_counts(self):
        ledger = CallLedger()
        ids = np.arange(5, dtype=np.int64)
        ledger.charge("proxy", ids)
        ids[:] = 99
        assert ledger.charge("proxy", np.arange(5)) == 0
        assert ledger.proxy_calls == 5


class TestSpeedup:
    # Reported embedding-cost speedups at oracle:proxy cost ratio 2.
    @pytest.mark.parametrize(
        "brute,oracle_calls,proxy_calls,expected",
        [
            (8234, 600, 1000, 7.5),
            (4245, 150, 500, 10.6),
            (16225, 600, 1000, 14.8),
            (6990280, 20000, 35000, 186.4),
            (10000, 1200, 2000, 4.5),
        ],
    )
    def test_reference_rows(self, brute, oracle_calls, proxy_calls, expected):
        assert speedup(brute, oracle_calls, proxy_calls, 2.0) == pytest.approx(
            expected, abs=0.1
        )

    def test_requires_positive_denominator(self):
        with pytest.raises(ValueError):
            speedup(100, 0, 0, 2.0)

    @given(
        brute=st.integers(1, 10**6),
        o=st.integers(0, 10**5),
        p=st.integers(1, 10**5),
        ratio=st.floats(0.5, 10.0),
    )
    def test_monotonicity(self, brute, o, p, ratio):
        base = speedup(brute, o, p, ratio)
        assert speedup(brute + 1, o, p, ratio) > base
        assert speedup(brute, o + 1, p, ratio) < base
        assert speedup(brute, o, p + 1, ratio) < base
