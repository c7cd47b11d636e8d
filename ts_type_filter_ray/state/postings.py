"""Posting-list compression: delta + varint (LEB128) encoding of sorted
doc_id lists, parallel varint tf/doc-length lists, and block-max metadata.

The north star mandates posting lists "merged and delta/varint-compressed
by stateful actor-pool mergers" with "block-max WAND pruning"; there is no
Arrow primitive for this, so it lives here as plain-``bytes`` columns
(SURVEY.md §7.4). The reference itself stores postings as Python lists
(``ts_type_filter/inverted_index.py:44,62-65``); this is the at-scale
re-expression.

Layout per (term, doc_partition) row:
  - ``doc_ids``: varint(delta) of ascending doc_ids (first value absolute)
  - ``tfs``:     varint of term frequencies, parallel to doc_ids
  - ``dls``:     varint of document lengths, parallel to doc_ids
  - ``df``:      posting count in this row
  - ``max_impact``: max over docs of the BM25 tf-factor
    ``tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl))`` — multiplied by idf at query
    time it upper-bounds this row's score contribution (block-max WAND).
"""

from __future__ import annotations

import zlib

import numpy as np


def term_bucket(term: str, num_buckets: int) -> int:
    """Stable cross-process term → bucket hash (zlib.crc32, never the
    process-seeded builtin ``hash``)."""
    return zlib.crc32(term.encode("utf-8")) % num_buckets


_SMALL = 64  # below this, the scalar loop beats numpy's fixed call overhead


def _encode_varints_small(values) -> bytes:
    out = bytearray()
    for v in values:
        v = int(v)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


def encode_varints(values: np.ndarray | list[int]) -> bytes:
    """LEB128-encode a sequence of non-negative ints.

    Hybrid: scalar loop for short lists (posting rows are mostly tiny —
    per-call numpy overhead dominates there), vectorized numpy above
    ``_SMALL`` elements (hot terms)."""
    if len(values) < _SMALL:
        return _encode_varints_small(values)
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    # bytes per value = number of 7-bit groups
    nb = np.ones(v.size, dtype=np.int64)
    for k in range(1, 10):
        nb += (v >= np.uint64(1 << (7 * k))).astype(np.int64)
    total = int(nb.sum())
    ends = np.cumsum(nb)
    starts = ends - nb
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, nb)
    groups = (np.repeat(v, nb) >> (np.uint64(7) * offsets.astype(np.uint64))) \
        & np.uint64(0x7F)
    is_last = np.arange(total, dtype=np.int64) == np.repeat(ends - 1, nb)
    out = (groups | np.where(is_last, np.uint64(0), np.uint64(0x80)))
    return out.astype(np.uint8).tobytes()


def _decode_varints_small(buf: bytes) -> np.ndarray:
    out = []
    shift = 0
    cur = 0
    for byte in buf:
        cur |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            out.append(cur)
            cur = 0
            shift = 0
    return np.asarray(out, dtype=np.int64)


def decode_varints(buf: bytes) -> np.ndarray:
    """Decode LEB128 bytes back to an int64 array (hybrid scalar/numpy,
    same rationale as :func:`encode_varints`)."""
    if len(buf) < _SMALL:
        return _decode_varints_small(buf)
    a = np.frombuffer(buf, dtype=np.uint8)
    if a.size == 0:
        return np.empty(0, dtype=np.int64)
    term_idx = np.flatnonzero(a < 128)        # terminal byte of each varint
    starts = np.empty_like(term_idx)
    starts[0] = 0
    starts[1:] = term_idx[:-1] + 1
    lengths = term_idx - starts + 1
    offsets = np.arange(a.size, dtype=np.int64) - np.repeat(starts, lengths)
    pieces = (a & 0x7F).astype(np.int64) << (7 * offsets)
    return np.add.reduceat(pieces, starts)


def encode_doc_ids(doc_ids: np.ndarray) -> bytes:
    """Delta+varint encode an ascending doc_id array."""
    n = len(doc_ids)
    if n == 0:
        return b""
    if n < _SMALL:
        ids = [int(x) for x in doc_ids]
        deltas = [ids[0]] + [b - a for a, b in zip(ids, ids[1:])]
        return _encode_varints_small(deltas)
    arr = np.asarray(doc_ids, dtype=np.int64)
    deltas = np.empty_like(arr)
    deltas[0] = arr[0]
    np.subtract(arr[1:], arr[:-1], out=deltas[1:])
    return encode_varints(deltas)


def encode_varints_sliced(values: np.ndarray, starts: np.ndarray):
    """LEB128-encode one flat array in a single vectorized pass and cut
    the byte stream at the given run starts → a ``pa.LargeBinaryArray``
    with one element per run, built zero-copy from the (byte offsets,
    byte stream) pair. Element ``i`` is byte-identical to
    :func:`encode_varints` over ``values[starts[i]:starts[i + 1]]``
    (the last run ends at ``len(values)``), but the per-value work is
    one numpy pass over the whole bucket, and no Python object is made
    per run."""
    import pyarrow as pa
    v = np.asarray(values, dtype=np.uint64)
    n = v.size
    if n == 0:
        return pa.array([], type=pa.large_binary())
    nb = np.ones(n, dtype=np.int64)
    for k in range(1, 10):
        nb += (v >= np.uint64(1 << (7 * k))).astype(np.int64)
    ends_b = np.cumsum(nb)
    starts_b = ends_b - nb
    total = int(ends_b[-1])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts_b, nb)
    groups = (np.repeat(v, nb) >> (np.uint64(7) * offsets.astype(np.uint64))) \
        & np.uint64(0x7F)
    is_last = np.arange(total, dtype=np.int64) == np.repeat(ends_b - 1, nb)
    buf = (groups | np.where(is_last, np.uint64(0), np.uint64(0x80))
           ).astype(np.uint8)
    bounds = np.append(starts_b[np.asarray(starts, dtype=np.int64)], total)
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(bounds) - 1,
        [None, pa.py_buffer(bounds), pa.py_buffer(buf)])


def decode_doc_ids(buf: bytes) -> np.ndarray:
    deltas = decode_varints(buf)
    if deltas.size == 0:
        return deltas
    return np.cumsum(deltas)


def _binary_np(arr) -> tuple[np.ndarray, np.ndarray]:
    """(byte offsets int64 [n+1], flat data uint8) of an Arrow binary
    column, zero-copy and slice-aware."""
    import pyarrow as pa
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    off_dtype = np.int64 if arr.type == pa.large_binary() else np.int32
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.empty(0, dtype=np.uint8))
    return offsets, data


def decode_varints_column(arr) -> tuple[np.ndarray, np.ndarray]:
    """Decode an entire Arrow binary column of LEB128 buffers in ONE
    vectorized pass (varints are self-delimiting, so the concatenated
    byte stream decodes as a whole). Returns ``(flat int64 values,
    int64 value offsets [n+1])`` — the exact inputs of
    ``pa.LargeListArray.from_arrays``. Value-identical to calling
    :func:`decode_varints` row by row."""
    byte_off, data = _binary_np(arr)
    lo, hi = int(byte_off[0]), int(byte_off[-1])
    a = data[lo:hi]
    n_rows = len(byte_off) - 1
    if a.size == 0:
        return (np.empty(0, dtype=np.int64),
                np.zeros(n_rows + 1, dtype=np.int64))
    term_idx = np.flatnonzero(a < 128)        # terminal byte per varint
    starts = np.empty_like(term_idx)
    starts[0] = 0
    starts[1:] = term_idx[:-1] + 1
    lengths = term_idx - starts + 1
    offsets = np.arange(a.size, dtype=np.int64) - np.repeat(starts, lengths)
    pieces = (a & 0x7F).astype(np.int64) << (7 * offsets)
    flat = np.add.reduceat(pieces, starts)
    # values before each row boundary = terminal bytes before that byte
    val_off = np.searchsorted(term_idx, byte_off - lo, side="left")
    return flat, val_off


def decode_doc_ids_column(arr) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`decode_doc_ids`: delta+varint decode of a whole
    Arrow binary column → (flat ascending doc_ids, value offsets)."""
    deltas, val_off = decode_varints_column(arr)
    if deltas.size == 0:
        return deltas, val_off
    g = np.cumsum(deltas)
    starts = val_off[:-1]
    counts = np.diff(val_off)
    prior = np.where(starts > 0, g[np.maximum(starts - 1, 0)], 0)
    flat = g - np.repeat(prior, counts)
    return flat, val_off


def max_impact(tfs: np.ndarray, dls: np.ndarray, avgdl: float,
               k1: float, b: float) -> float:
    """Block-max metadata: max BM25 tf-factor over the row's postings."""
    if len(tfs) == 0:
        return 0.0
    if len(tfs) < _SMALL:
        return max(
            (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))
            for tf, dl in zip(tfs, dls))
    tfs = np.asarray(tfs, dtype=np.float64)
    dls = np.asarray(dls, dtype=np.float64)
    denom = tfs + k1 * (1.0 - b + b * dls / avgdl)
    return float(np.max(tfs * (k1 + 1.0) / denom))
