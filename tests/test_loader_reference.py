"""The chunked JSONL loader against the record-by-record loader it replaced.

``reference_load_dataset`` is that loader as it was, kept as the reference:
it converts each record to numpy rows as it reads them and stacks the rows
at the end. On every file, the chunked ``load_dataset`` must return an
equal ``Dataset`` or raise ``DataError`` with the reference's message.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aqnn import DataError, Dataset, SyntheticGenConfig, generate_synthetic, save_dataset
from aqnn import dataset as dataset_mod
from aqnn.dataset import load_dataset

_NUMBER = (int, float)


def _header_dim(header, key, line_no):
    dim = header[key]
    if type(dim) is not int or dim < 1:
        raise DataError(f"line {line_no}: {key} must be an integer >= 1, got {dim!r}")
    return dim


def _header_bounds(header, line_no):
    bounds = header.get("attr_bounds")
    if bounds is None:
        return None
    if (
        not isinstance(bounds, list)
        or len(bounds) != 2
        or not all(type(x) in _NUMBER for x in bounds)
    ):
        raise DataError(f"line {line_no}: header attr_bounds must be [a, b]")
    if not all(math.isfinite(x) for x in bounds):
        raise DataError(f"line {line_no}: header attr_bounds must be finite, got {bounds}")
    return float(bounds[0]), float(bounds[1])


def _parse_vector(record, key, dim, line_no):
    vec = record[key]
    if not isinstance(vec, list) or not all(type(x) in _NUMBER for x in vec):
        raise DataError(f"line {line_no}: {key} must be a list of numbers")
    if len(vec) != dim:
        raise DataError(f"line {line_no}: {key} has length {len(vec)}, expected {dim}")
    return np.asarray(vec, dtype=np.float64)


def reference_load_dataset(path):
    """Record by record: one numpy row per vector, stacked at the end."""
    header = None
    attrs = []
    features = []
    oracle_rows = []
    proxy_rows = []

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise DataError(f"line {line_no}: expected a JSON object")

            if header is None:
                if "feature_dim" not in record or "embedding_dim" not in record:
                    raise DataError(
                        f"line {line_no}: header must declare feature_dim and embedding_dim"
                    )
                header = record
                feature_dim = _header_dim(record, "feature_dim", line_no)
                embedding_dim = _header_dim(record, "embedding_dim", line_no)
                bounds = _header_bounds(record, line_no)
                continue

            if not record.keys() >= {"attr", "features", "oracle_emb", "proxy_emb"}:
                raise DataError(
                    f"line {line_no}: record needs attr, features, oracle_emb, proxy_emb"
                )
            if type(record["attr"]) not in _NUMBER:
                raise DataError(f"line {line_no}: attr must be a number")
            rid = record.get("id", len(attrs))
            if type(rid) is not int or rid != len(attrs):
                raise DataError(f"line {line_no}: id {rid!r} is not the record's position "
                                f"{len(attrs)}")
            attrs.append(float(record["attr"]))
            features.append(_parse_vector(record, "features", feature_dim, line_no))
            oracle_rows.append(_parse_vector(record, "oracle_emb", embedding_dim, line_no))
            proxy_rows.append(_parse_vector(record, "proxy_emb", embedding_dim, line_no))

    if header is None or not attrs:
        raise DataError("empty dataset")

    return Dataset(
        attrs=np.asarray(attrs),
        features=np.vstack(features),
        oracle_emb=np.vstack(oracle_rows),
        proxy_emb=np.vstack(proxy_rows),
        attr_bounds=bounds,
    )


def _outcome(load, path):
    """The loaded ``Dataset``, or the ``DataError`` message."""
    try:
        return load(str(path))
    except DataError as exc:
        return f"DataError: {exc}"


def assert_same_outcome(path):
    expected, got = _outcome(reference_load_dataset, path), _outcome(load_dataset, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, Dataset) and got == expected
        assert got.bounds_source == expected.bounds_source


VECTORS = ("features", "oracle_emb", "proxy_emb")
FAULTS = ("bool", "string", "null", "nested", "nan", "length", "id", "bool_id",
          "float_id", "missing", "json")
_values = st.one_of(st.floats(-1e6, 1e6, width=64), st.integers(-2**62, 2**62))


def _faulty_line(record: dict, pos: int, kind: str, data) -> str:
    """``record`` with one fault of ``kind``, as its line of text."""
    record = json.loads(json.dumps(record))
    if kind in ("bool", "string", "null", "nested", "nan"):
        key = data.draw(st.sampled_from(("attr",) + VECTORS))
        bad = {"bool": data.draw(st.booleans()), "string": "1.0", "null": None,
               "nan": float(data.draw(st.sampled_from(["nan", "inf", "-inf"])))}
        # "nested" wraps the value it replaces in a list
        if key == "attr":
            record["attr"] = bad.get(kind, [record["attr"]])
        else:
            j = data.draw(st.integers(0, len(record[key]) - 1))
            record[key][j] = bad.get(kind, [record[key][j]])
    elif kind == "length":
        key = data.draw(st.sampled_from(VECTORS))
        record[key] = record[key][:-1] if data.draw(st.booleans()) else record[key] + [0.0]
    elif kind == "id":
        record["id"] = data.draw(st.sampled_from([pos - 1, pos + 1, 2**70, str(pos)]))
    elif kind == "bool_id":
        record["id"] = pos == 1  # False at 0 and True at 1 compare equal to the position
    elif kind == "float_id":
        record["id"] = float(pos)
    elif kind == "missing":
        del record[data.draw(st.sampled_from(("attr",) + VECTORS))]
    else:  # a line that is not one JSON object
        text = json.dumps(record)
        return data.draw(st.sampled_from([text[:len(text) // 2], text + " " + text,
                                          f"[{text}]", "\ufeff" + text]))
    return json.dumps(record)


@settings(max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_chunked_loader_matches_reference(tmp_path, data):
    chunk = data.draw(st.integers(1, 4), label="chunk")
    feature_dim, embedding_dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 10), label="n")
    records = []
    for pos in range(n):
        record = {"attr": data.draw(_values)}
        if data.draw(st.booleans()):
            record["id"] = pos
        for key in VECTORS:
            dim = feature_dim if key == "features" else embedding_dim
            record[key] = data.draw(st.lists(_values, min_size=dim, max_size=dim))
        records.append(record)
    lines = [json.dumps(r) for r in records]
    for kind, pos in data.draw(st.lists(st.tuples(st.sampled_from(FAULTS),
                                                  st.integers(0, n - 1)), max_size=2),
                               label="faults"):
        lines[pos] = _faulty_line(records[pos], pos, kind, data)

    header = {"feature_dim": feature_dim, "embedding_dim": embedding_dim}
    attrs = [float(r["attr"]) for r in records]
    bounds = data.draw(st.sampled_from(["none", "cover", "narrow"]))
    if bounds != "none":
        header["attr_bounds"] = [min(attrs), max(attrs)] if bounds == "cover" \
            else [min(attrs) + 1.0, max(attrs)]
    fault = data.draw(st.sampled_from([None, "feature_dim", "embedding_dim", "attr_bounds"]),
                      label="header fault")
    if fault is not None:
        header[fault] = data.draw(st.sampled_from([0, 2.0, True, "2", [0.0], [False, 1.0]]))
        if data.draw(st.booleans()):  # a second fault, in a key checked after this one
            header["embedding_dim"] = 0
    text = [json.dumps(header)]
    for line in lines:
        text += [""] * data.draw(st.integers(0, 1)) + [line]
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(text) + "\n")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_mod, "_CHUNK", chunk)
        assert_same_outcome(path)


def _write_records(path, records, lines):
    header = {"feature_dim": 2, "embedding_dim": 2, "attr_bounds": [0.0, 10.0]}
    path.write_text("\n".join([json.dumps(header)] + lines) + "\n")


def _records(n):
    return [{"id": i, "attr": float(i), "features": [i, 0.0], "oracle_emb": [0.0, i],
             "proxy_emb": [0.5, i]} for i in range(n)]


@pytest.mark.parametrize("kind", FAULTS)
@pytest.mark.parametrize("pos", [2, 3])  # the last record of the first block, the first of the next
@settings(max_examples=4,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fault_either_side_of_a_block_boundary(tmp_path, kind, pos, data):
    records = _records(6)
    lines = [json.dumps(r) for r in records]
    lines[pos] = _faulty_line(records[pos], pos, kind, data)
    path = tmp_path / "d.jsonl"
    _write_records(path, records, lines)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_mod, "_CHUNK", 3)
        assert isinstance(_outcome(load_dataset, path), str)
        assert_same_outcome(path)


def test_bad_vector_then_invalid_json_in_one_block(tmp_path, monkeypatch):
    # the invalid JSON two lines on is read first, but the earlier bad record wins
    monkeypatch.setattr(dataset_mod, "_CHUNK", 8)
    records = _records(6)
    records[1]["features"] = [True, 0.0]
    lines = [json.dumps(r) for r in records]
    lines[3] = "{not json"
    path = tmp_path / "d.jsonl"
    _write_records(path, records, lines)
    with pytest.raises(DataError, match=r"^line 3: features must be a list of numbers$"):
        load_dataset(str(path))
    assert_same_outcome(path)


def test_load_peak_memory_below_reference(tmp_path):
    ds = generate_synthetic(SyntheticGenConfig(n_objects=20_000, seed=5))
    path = str(tmp_path / "pop.jsonl")
    save_dataset(ds, path)
    column_bytes = sum(a.nbytes for a in (ds.attrs, ds.features, ds.oracle_emb, ds.proxy_emb))
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == ds
    # The reference holds a numpy row per vector and stacks them, peaking at
    # 3.4x the column bytes on this file; the chunked build stays under 2x.
    assert peak < 2 * column_bytes
