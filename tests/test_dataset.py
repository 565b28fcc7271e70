import json
import re

import numpy as np
import pytest

from aqnn import (
    DataError,
    Dataset,
    SyntheticGenConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from aqnn.sprint import resolve_query_object


def _write_lines(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


HEADER = {"feature_dim": 2, "embedding_dim": 2, "attr_bounds": [0.0, 10.0]}


def _record(i, attr, feat):
    return {"id": i, "attr": attr, "features": feat, "oracle_emb": feat, "proxy_emb": feat}


class TestLoadDataset:
    def test_count_preserved(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_lines(
            path,
            [HEADER, _record(0, 1.0, [0.0, 0.0]), _record(1, 2.0, [1.0, 1.0]),
             _record(2, 3.0, [2.0, 2.0])],
        )
        ds = load_dataset(str(path))
        assert len(ds) == 3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty dataset"):
            load_dataset(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _write_lines(path, [HEADER])
        with pytest.raises(DataError, match="empty dataset"):
            load_dataset(str(path))

    def test_dimension_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = {"feature_dim": 4, "embedding_dim": 4}
        rows = [header]
        for i in range(3):
            rows.append(_record(i, 1.0, [0.0] * 4))
        rows.append({**_record(3, 1.0, [0.0] * 4), "features": [0.0] * 5})
        _write_lines(path, rows)
        with pytest.raises(DataError, match="line 5.*length 5, expected 4"):
            load_dataset(str(path))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(HEADER) + "\n{not json\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(str(path))

    def test_bounds_from_header_else_data(self, tmp_path):
        path = tmp_path / "nb.jsonl"
        _write_lines(
            path,
            [{"feature_dim": 2, "embedding_dim": 2},
             _record(0, 4.0, [0.0, 0.0]), _record(1, 9.0, [1.0, 1.0])],
        )
        ds = load_dataset(str(path))
        assert ds.attr_bounds == (4.0, 9.0)
        assert ds.bounds_source == "data"

    def test_ids_reindexed_densely(self, tmp_path):
        # an id that is not the record's position is an error, never re-indexed
        path = tmp_path / "ids.jsonl"
        _write_lines(
            path, [HEADER, _record(17, 1.0, [0.0, 0.0]), _record(99, 2.0, [1.0, 1.0])]
        )
        with pytest.raises(DataError, match="line 2: id 17 is not the record's position 0"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "second_id,message",
        [(0, "line 3: id 0 is not the record's position 1"),
         (2, "line 3: id 2 is not the record's position 1"),
         (True, "line 3: id True is not the record's position 1"),
         (1.0, "line 3: id 1.0 is not the record's position 1"),
         ("1", "line 3: id '1' is not the record's position 1")],
    )
    def test_mismatched_id_names_line(self, tmp_path, second_id, message):
        path = tmp_path / "ids.jsonl"
        _write_lines(path, [HEADER, _record(0, 1.0, [0.0, 0.0]),
                            _record(second_id, 2.0, [1.0, 1.0])])
        with pytest.raises(DataError, match=message):
            load_dataset(str(path))

    def test_id_may_be_left_out(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        first = _record(0, 1.0, [0.0, 0.0])
        del first["id"]
        _write_lines(path, [HEADER, first, _record(1, 2.0, [1.0, 1.0])])
        ds = load_dataset(str(path))
        assert list(ds.ids) == [0, 1] and list(ds.attrs) == [1.0, 2.0]

    @pytest.mark.parametrize(
        "record,message",
        [
            (_record(0, True, [0.0, 0.0]), "line 2: attr must be a number"),
            (_record(0, 1.0, [True, False]), "line 2: features must be a list of numbers"),
            ({**_record(0, 1.0, [0.0, 0.0]), "proxy_emb": [0.0, False]},
             "line 2: proxy_emb must be a list of numbers"),
        ],
    )
    def test_booleans_rejected(self, tmp_path, record, message):
        path = tmp_path / "bool.jsonl"
        _write_lines(path, [HEADER, record])
        with pytest.raises(DataError, match=message):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "key,value",
        [("feature_dim", 2.7), ("feature_dim", "x"), ("feature_dim", 0),
         ("feature_dim", True), ("embedding_dim", 2.0), ("embedding_dim", -1),
         ("embedding_dim", 0)],
    )
    def test_header_dims_must_be_integers(self, tmp_path, key, value):
        path = tmp_path / "dims.jsonl"
        _write_lines(path, [{**HEADER, key: value}, _record(0, 1.0, [0.0, 0.0])])
        with pytest.raises(DataError, match=f"line 1: {key} must be an integer"):
            load_dataset(str(path))

    def test_boolean_attr_bounds_rejected(self, tmp_path):
        path = tmp_path / "bounds.jsonl"
        _write_lines(path, [{**HEADER, "attr_bounds": [False, 10.0]},
                            _record(0, 1.0, [0.0, 0.0])])
        with pytest.raises(DataError, match="attr_bounds must be"):
            load_dataset(str(path))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_attr_bounds_rejected(self, tmp_path, literal):
        path = tmp_path / "bounds.jsonl"
        path.write_text(
            f'{{"feature_dim": 2, "embedding_dim": 2, "attr_bounds": [0.0, {literal}]}}\n'
            + json.dumps(_record(0, 1.0, [0.0, 0.0])) + "\n"
        )
        with pytest.raises(DataError, match="line 1: header attr_bounds must be finite"):
            load_dataset(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        lines = [json.dumps(HEADER), "", json.dumps(_record(0, 1.0, [0.0, 0.0])), "  ",
                 json.dumps(_record(1, 2.0, [1.0, 1.0]))]
        path.write_text("\n".join(lines) + "\n\n")
        assert len(load_dataset(str(path))) == 2

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text(json.dumps(HEADER) + "\n[1.0, [0.0, 0.0]]\n")
        with pytest.raises(DataError, match="line 2: expected a JSON object"):
            load_dataset(str(path))

    @pytest.mark.parametrize("missing", ["feature_dim", "embedding_dim"])
    def test_header_without_dims_rejected(self, tmp_path, missing):
        path = tmp_path / "nodims.jsonl"
        header = {k: v for k, v in HEADER.items() if k != missing}
        _write_lines(path, [header, _record(0, 1.0, [0.0, 0.0])])
        with pytest.raises(DataError, match="line 1: header must declare feature_dim "
                                            "and embedding_dim"):
            load_dataset(str(path))

    @pytest.mark.parametrize("column", ["oracle_emb", "proxy_emb"])
    def test_record_without_embedding_rejected(self, tmp_path, column):
        path = tmp_path / "plain.jsonl"
        missing = _record(1, 2.0, [1.0, 1.0])
        del missing[column]
        _write_lines(path, [HEADER, _record(0, 1.0, [0.0, 0.0]), missing])
        with pytest.raises(DataError, match="line 3: record needs attr, features, "
                                            "oracle_emb, proxy_emb"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "lines,message",
        [
            ([HEADER, _record(0, 1.0, [0.0, 0.0]), _record(1, 10**400, [1.0, 1.0])],
             "line 3: attr holds a number too large for a float"),
            ([HEADER, _record(0, 1.0, [0.0, -10**400])],
             "line 2: features holds a number too large for a float"),
            ([{**HEADER, "attr_bounds": [0, 10**400]}, _record(0, 1.0, [0.0, 0.0])],
             "line 1: header attr_bounds holds a number too large for a float"),
        ],
    )
    def test_integer_too_large_for_a_float_names_line(self, tmp_path, lines, message):
        path = tmp_path / "big.jsonl"
        _write_lines(path, lines)
        with pytest.raises(DataError, match=f"^{message}$"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "attr,message",
        [("7" * 5000, "line 2: number too large to read"),
         ("[" * 100_000 + "]" * 100_000, "line 2: JSON nested too deeply")],
    )
    def test_unparseable_value_names_line(self, tmp_path, attr, message):
        path = tmp_path / "value.jsonl"
        path.write_text(json.dumps(HEADER) + "\n"
                        + json.dumps(_record(0, 7, [0.0, 0.0])).replace("7", attr) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_dataset(str(path))

    def test_bytes_not_utf8_name_line(self, tmp_path):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(json.dumps(HEADER).encode() + b"\n"
                         + json.dumps({**_record(0, 1.0, [0.0, 0.0]), "note": "x"})
                         .encode().replace(b'"x"', b'"\xff"') + b"\n")
        with pytest.raises(DataError, match="^line 2: not UTF-8 text$"):
            load_dataset(str(path))

    def test_roundtrip_equality(self, tmp_path):
        cfg = SyntheticGenConfig(n_objects=40, embedding_dim=3, n_clusters=4,
                                 proxy_noise_sigma=0.3, seed=9)
        ds = generate_synthetic(cfg)
        path = tmp_path / "rt.jsonl"
        save_dataset(ds, str(path))
        again = load_dataset(str(path))
        assert again == ds
        # double round-trip for byte-stable serialization
        path2 = tmp_path / "rt2.jsonl"
        save_dataset(again, str(path2))
        assert path.read_text() == path2.read_text()


class TestGenerateSynthetic:
    def test_zero_noise_identity(self):
        ds = generate_synthetic(SyntheticGenConfig(n_objects=50, seed=4))
        assert np.array_equal(ds.proxy_emb, ds.oracle_emb)

    def test_zero_noise_distances_equal(self):
        ds = generate_synthetic(SyntheticGenConfig(n_objects=50, seed=4))
        q = ds.oracle_emb[0]
        d_o = np.linalg.norm(ds.oracle_emb - q, axis=1)
        d_p = np.linalg.norm(ds.proxy_emb - q, axis=1)
        assert np.array_equal(d_o, d_p)

    def test_deterministic(self):
        cfg = SyntheticGenConfig(n_objects=80, proxy_noise_sigma=0.5, seed=123)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        assert a == b
        assert np.array_equal(a.cluster_assignment, b.cluster_assignment)

    def test_seed_changes_output(self):
        a = generate_synthetic(SyntheticGenConfig(n_objects=80, seed=1))
        b = generate_synthetic(SyntheticGenConfig(n_objects=80, seed=2))
        assert a != b

    def test_attrs_clipped_to_bounds(self):
        cfg = SyntheticGenConfig(
            n_objects=500, attr_global_mean=5.0, attr_global_sd=10.0,
            attr_bounds=(0.0, 10.0), seed=6,
        )
        ds = generate_synthetic(cfg)
        assert ds.attrs.min() >= 0.0 and ds.attrs.max() <= 10.0

    def test_precondition_clusters(self):
        with pytest.raises(ValueError):
            SyntheticGenConfig(n_objects=3, n_clusters=5)

    @pytest.mark.parametrize("bounds", [[0.0, float("inf")], (float("nan"), 10.0)])
    def test_non_finite_bounds_rejected_as_list_or_tuple(self, bounds):
        with pytest.raises(ValueError, match="attr_bounds must be finite"):
            SyntheticGenConfig(n_objects=10, attr_bounds=bounds)

    def test_shift_moves_cluster_zero(self):
        base = dict(n_objects=2000, attr_global_mean=80.0, attr_global_sd=5.0,
                    attr_bounds=(0.0, 200.0), seed=99)
        shifted = generate_synthetic(
            SyntheticGenConfig(attr_neighborhood_shift=25.0, **base)
        )
        mask = shifted.cluster_assignment == 0
        assert shifted.attrs[mask].mean() > shifted.attrs[~mask].mean() + 15.0

    def test_zero_shift_matches_global_mean(self):
        # Monte-Carlo: pooled designated-cluster mean within 3 standard
        # errors of the configured global mean, over 100 seeds.
        mean, sd = 80.0, 10.0
        pooled = []
        for seed in range(100):
            cfg = SyntheticGenConfig(
                n_objects=200, n_clusters=4, attr_global_mean=mean, attr_global_sd=sd,
                attr_neighborhood_shift=0.0, attr_bounds=(0.0, 200.0), seed=seed,
            )
            ds = generate_synthetic(cfg)
            pooled.extend(ds.attrs[ds.cluster_assignment == 0])
        pooled = np.asarray(pooled)
        se = sd / np.sqrt(pooled.size)
        assert abs(pooled.mean() - mean) <= 3 * se


class TestAttributeBounds:
    def test_configured_clinical_range(self):
        ds = generate_synthetic(
            SyntheticGenConfig(n_objects=30, attr_bounds=(50.0, 120.0), seed=0)
        )
        assert ds.attr_bounds == (50.0, 120.0)

    def test_single_object_auto_bounds(self):
        zeros = np.zeros((1, 2))
        ds = Dataset(attrs=np.array([7.0]), features=zeros, oracle_emb=zeros, proxy_emb=zeros)
        assert ds.attr_bounds == (7.0, 7.0)

    def test_generated_bounds_pass_through(self):
        ds = generate_synthetic(
            SyntheticGenConfig(
                n_objects=30, attr_global_mean=2.5, attr_global_sd=1.0,
                attr_bounds=(0.0, 5.0), seed=0,
            )
        )
        assert ds.attr_bounds == (0.0, 5.0)


class TestDatasetInvariants:
    def test_bounds_must_cover_attrs(self):
        with pytest.raises(DataError, match="outside declared bounds"):
            Dataset(
                attrs=np.array([1.0, 50.0]),
                features=np.zeros((2, 2)),
                oracle_emb=np.zeros((2, 2)),
                proxy_emb=np.zeros((2, 2)),
                attr_bounds=(0.0, 10.0),
            )

    def test_embedding_dims_must_match(self):
        with pytest.raises(DataError, match="share one dimension"):
            Dataset(
                attrs=np.array([1.0]),
                features=np.zeros((1, 2)),
                oracle_emb=np.zeros((1, 3)),
                proxy_emb=np.zeros((1, 4)),
            )

    @pytest.mark.parametrize("name", ["attrs", "features", "oracle_emb", "proxy_emb"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, name, bad):
        arrays = {
            "attrs": np.full(4, 60.0),
            "features": np.ones((4, 2)),
            "oracle_emb": np.ones((4, 2)),
            "proxy_emb": np.ones((4, 2)),
        }
        arrays[name][2] = bad  # the whole row for matrices, one value for attrs
        with pytest.raises(DataError, match=f"{name} row 2 is not finite"):
            Dataset(**arrays, attr_bounds=(50.0, 120.0))

    def test_non_finite_json_literals_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"feature_dim": 2, "embedding_dim": 2}\n'
            '{"attr": 1.0, "features": [1, 0], "oracle_emb": [1, 0], "proxy_emb": [NaN, 0]}\n'
            '{"attr": 2.0, "features": [0, 1], "oracle_emb": [0, 1], "proxy_emb": [Infinity, 0]}\n'
        )
        with pytest.raises(DataError, match="proxy_emb row 0 is not finite"):
            load_dataset(str(path))

    def test_arrays_frozen(self, clean_ds):
        with pytest.raises(ValueError):
            clean_ds.attrs[0] = 1.0

    def test_object_view(self, tiny_ds):
        obj = resolve_query_object(tiny_ds, 5)
        assert obj.id == 5
        assert np.array_equal(obj.oracle_embedding, [3.0, 4.0])
