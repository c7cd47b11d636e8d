"""Posting-list codec: round-trip, edge values, delta encoding."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from ts_type_filter_ray.state.postings import (decode_doc_ids, decode_varints,
                                               encode_doc_ids, encode_varints)


def test_empty():
    assert encode_varints([]) == b""
    assert decode_varints(b"").size == 0
    assert encode_doc_ids(np.array([], dtype=np.int64)) == b""
    assert decode_doc_ids(b"").size == 0


def test_known_values():
    # single-byte varints
    assert encode_varints([0, 1, 127]) == bytes([0, 1, 127])
    # 128 → two bytes 0x80 0x01
    assert encode_varints([128]) == bytes([0x80, 0x01])
    assert decode_varints(bytes([0x80, 0x01])).tolist() == [128]


@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
def test_varint_round_trip(values):
    assert decode_varints(encode_varints(values)).tolist() == values


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=200,
                unique=True))
def test_doc_ids_round_trip(ids):
    arr = np.sort(np.array(ids, dtype=np.int64))
    assert decode_doc_ids(encode_doc_ids(arr)).tolist() == arr.tolist()


def test_delta_compression_is_compact():
    # dense ascending ids → ~1 byte each after delta
    ids = np.arange(1_000_000, 1_010_000, dtype=np.int64)
    enc = encode_doc_ids(ids)
    assert len(enc) < 3 + len(ids) * 1.01


def test_merge_fallback_on_interleaved_doc_ranges():
    """Rows whose doc ranges interleave violate the row-sort fast path's
    assumption; the monotonicity guard must detect it and fall back to
    the full lexsort, producing sorted postings."""
    import numpy as np
    import pyarrow as pa

    from ts_type_filter_ray.stages.tokenizer import merge_bucket_table
    from ts_type_filter_ray.state.postings import (decode_doc_ids,
                                                   decode_varints)

    tbl = pa.table({
        "term": pa.array(["t", "t", "u"]),
        "part": pa.array([0, 0, 0], type=pa.int32()),
        "bucket": pa.array([0, 0, 0], type=pa.int32()),
        # interleaved: [1,5,9] vs [2,6] (not disjoint ranges)
        "doc_ids": pa.array([[1, 5, 9], [2, 6], [3]],
                            type=pa.list_(pa.int64())),
        "tfs": pa.array([[1, 2, 3], [4, 5], [6]],
                        type=pa.list_(pa.int32())),
        "dls": pa.array([[10, 10, 10], [20, 20], [30]],
                        type=pa.list_(pa.int32())),
    })
    out = merge_bucket_table(tbl, avgdl=10.0, k1=1.2, b=0.75)
    rows = {r["term"]: r for r in out.to_pylist()}
    assert decode_doc_ids(rows["t"]["doc_ids_enc"]).tolist() == [1, 2, 5, 6, 9]
    assert decode_varints(rows["t"]["tfs_enc"]).tolist() == [1, 4, 2, 5, 3]
    assert rows["t"]["df"] == 5
    assert decode_doc_ids(rows["u"]["doc_ids_enc"]).tolist() == [3]


def test_decode_varints_column_matches_rowwise():
    import numpy as np
    import pyarrow as pa

    from ts_type_filter_ray.state import postings as plib

    rng = np.random.default_rng(3)
    rows = []
    for n in [0, 1, 2, 5, 100, 0, 7, 300]:
        rows.append(np.sort(rng.integers(0, 2 ** 40, n)))
    enc_ids = [plib.encode_doc_ids(r) for r in rows]
    enc_raw = [plib.encode_varints(r) for r in rows]
    for typ in (pa.binary(), pa.large_binary()):
        arr = pa.array(enc_raw, type=typ)
        flat, off = plib.decode_varints_column(arr)
        for i, r in enumerate(rows):
            assert (flat[off[i]:off[i + 1]] == r).all()
        # sliced column (non-zero offset)
        flat, off = plib.decode_varints_column(arr.slice(2, 4))
        for i, r in enumerate(rows[2:6]):
            assert (flat[off[i]:off[i + 1]] == r).all()
        arr = pa.array(enc_ids, type=typ)
        flat, off = plib.decode_doc_ids_column(arr)
        for i, r in enumerate(rows):
            got = flat[off[i]:off[i + 1]]
            exp = plib.decode_doc_ids(enc_ids[i])
            assert (got == exp).all()


@given(st.lists(st.lists(st.integers(min_value=0, max_value=2**62),
                         min_size=1, max_size=80), max_size=20))
@example([[0]])
@example([[2**62], [1], [127], [128]])
def test_encode_varints_sliced_matches_per_run(runs):
    """One whole-array encode cut at the run starts equals encoding each
    run on its own, run by run and byte for byte (runs above ``_SMALL``
    values exercise encode_varints' numpy path)."""
    import pyarrow as pa

    from ts_type_filter_ray.state.postings import encode_varints_sliced

    flat = np.array([v for r in runs for v in r], dtype=np.int64)
    starts = np.cumsum([0] + [len(r) for r in runs])[:-1]
    out = encode_varints_sliced(flat, starts)
    assert out.type == pa.large_binary()
    assert out.to_pylist() == [encode_varints(r) for r in runs]
