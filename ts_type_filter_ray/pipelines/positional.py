"""Positional inverted index: phrase and proximity queries answered from
a PERSISTED index instead of a corpus rescan.

The boolean/BM25 index (``pipelines/build.py``) stores (term → doc, tf,
dl); it cannot answer "docs containing the contiguous phrase 'order
fast'" or "docs where 'hash' and 'join' occur within 3 tokens" without
rescanning content (``functions/ngrams.phrase_match`` is that scan
shape). This module is the index-shaped answer — the layout every
production full-text engine uses for phrases:

  corpus ─map_batches(tokenize: lower + whitespace split + POSITIONS)
         ─ partial rows (term, part) → doc_ids / pcounts / positions
         ─ SpillDatasink → partials/bucket=*/<task>.arrow  (shuffle-free
           spill, state/spill.py)
  bucket ─ one merge task per bucket → delta/varint-compressed rows:
             doc_ids_enc   varint(delta doc_ids)
             pcounts_enc   varint(#positions per doc ≡ tf)
             poss_enc      varint(delta positions WITHIN each doc)

The index is written through the main index's write path
(``pipelines/build.py``): the same priced bucket wave, the same bucket
writer and markers, the same per-bucket ``_df.parquet`` (term, df)
counts, and the same per-bucket ``.compact.tmp`` compaction swap,
finished on load after a crash. Only the encoder (``_encode_positional``)
and its decoder (``_decode_rows``) are this module's own. Layout:
``root/stats.json`` and ``root/postings/bucket=*/`` holding
``merged.parquet``, one ``segment_<g>.parquet`` per extension, a
``_SUCCESS`` marker per segment and ``_df.parquet``.

Query routing stays bucket-pruned: a phrase's terms hash to their
buckets, the searcher reads only ``bucket=<h>`` files and filter-pushes
``term ∈ phrase`` into the Parquet scan, so a q-term phrase reads
O(q posting rows), never the corpus.

Phrase semantics (exact, nostem): token positions are 0-based indices
into the lowercased whitespace token sequence; a phrase [t0..tm] matches
doc d iff ∃p: pos(ti) = p+i for all i. Matching is one vectorized
``np.intersect1d`` fold over (doc << POS_BITS | pos) keys — shifting a
key by +1 moves to the next position and cannot cross a doc boundary
because every doc_len is validated < 2**POS_BITS at build time.

Proximity: |pos(a) - pos(b)| ≤ w within one doc, via the same key arrays
intersected at each offset in [-w, w] — O(w · (n_a + n_b) log) exact.

Tokenization is the repo-wide lowercase-whitespace SQL contract
(``lower(trim(text))`` split on ``\\s+``), so both operators sit on the
driver's value-exact DuckDB gate (parallel-unnest positional oracle).

Reference scope: ts_type_filter's index has no positions
(``inverted_index.py:44,62-65`` stores doc-id lists only) — this is one
of the engine's beyond-reference extensions (brief: training-data
pipeline operators; phrase containment is the benchmark-prompt /
boilerplate filter at 100 TB).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
from ray.data import Dataset

from ..stages.tokenizer import (encode_strings, split_whitespace,
                                stem_dictionary)
from ..state import postings as plib
from ..state.postings import term_bucket, term_buckets
from ..state.spill import SpillDatasink, read_spill, spill_files
from .build import (_bucket_dirs, _bucket_sources, _bucket_wave,
                    _clear_generation, _compact_one_bucket,
                    _count_one_bucket, _finish_swaps, _segment_files,
                    _write_bucket, _write_stats, committed_segment_files,
                    load_tombstones, sorted_member_mask)

#: positions live in the low bits of the (doc, pos) key; any doc with
#: doc_len >= 2**POS_BITS is rejected at build time so a +1 key shift
#: can never cross into the next document.
POS_BITS = 22
_MAX_DOC_LEN = (1 << POS_BITS) - 1
#: what a positional posting row keeps in the spill
_SPILL_COLUMNS = ("term", "part", "doc_ids", "pcounts", "poss")
#: what a positional segment file holds, one row per (term, part)
_SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()), ("part", pa.int32()), ("df", pa.int64()),
    ("doc_ids_enc", pa.binary()), ("pcounts_enc", pa.binary()),
    ("poss_enc", pa.binary())])


def tokenize_positions_task(batch: pa.Table, *,
                            num_term_buckets: int,
                            doc_part_bits: int,
                            stemmer=None) -> pa.Table:
    """Corpus batch → partial positional posting rows.

    Output: term:string, part:int32, bucket:int32, doc_ids:list<int64>,
    pcounts:list<int32>, poss:list<int32> (positions flattened per row,
    grouped by doc in doc_ids order, ascending within each doc).

    Fully vectorized: Arrow lower+split, one stable argsort over the
    fused (token code, doc) key — stability keeps positions ascending
    within each (term, doc) group without sorting positions themselves.

    ``stemmer`` (optional) maps each token position-preservingly —
    stemming touches only the batch's UNIQUE tokens (dictionary-encode
    trick), and tokens that stem to the same term merge: the stable
    sort keeps the merged group's positions ascending, so stemmed
    phrase/proximity semantics ("running tests" matches "run test"'s
    positions) come out of the same kernel. ``None`` keeps the
    lowercase-nostem behavior every SQL-oracle gate checks.
    """
    n_docs = batch.num_rows
    doc_np = batch["doc_id"].to_numpy(zero_copy_only=False)
    flat, par = split_whitespace(batch["content"], lower=True)

    empty = pa.table({
        "term": pa.array([], type=pa.string()),
        "part": pa.array([], type=pa.int32()),
        "bucket": pa.array([], type=pa.int32()),
        "doc_ids": pa.array([], type=pa.list_(pa.int64())),
        "pcounts": pa.array([], type=pa.list_(pa.int32())),
        "poss": pa.array([], type=pa.list_(pa.int32())),
    })
    if len(flat) == 0:
        return empty

    n_tok = np.bincount(par, minlength=n_docs)
    if n_tok.max(initial=0) > _MAX_DOC_LEN:
        raise ValueError(
            f"doc_len {int(n_tok.max())} exceeds positional limit "
            f"{_MAX_DOC_LEN} (POS_BITS={POS_BITS})")
    doc_start = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
    pos = np.arange(len(par), dtype=np.int64) - doc_start[par]

    codes, vocab = encode_strings(flat)
    if stemmer is not None:
        codes, vocab = stem_dictionary(
            codes, vocab.to_numpy(zero_copy_only=False), stemmer)

    # stable sort by (code, docidx): within each group, original order
    # (= ascending position) is preserved
    key = codes * n_docs + par
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    pos_s = pos[order]

    # (code, docidx) groups → per-group tf; group boundaries
    new_g = np.ones(len(key_s), dtype=bool)
    new_g[1:] = key_s[1:] != key_s[:-1]
    g_starts = np.flatnonzero(new_g)
    tf = np.diff(np.append(g_starts, len(key_s)))
    g_code = key_s[g_starts] // n_docs
    g_docidx = key_s[g_starts] % n_docs
    g_part = (doc_np[g_docidx] >> doc_part_bits).astype(np.int64)

    # (code, part) runs over the groups (docidx ascends within code)
    n_g = len(g_starts)
    new_run = np.ones(n_g, dtype=bool)
    new_run[1:] = (g_code[1:] != g_code[:-1]) | (g_part[1:] != g_part[:-1])
    run_starts = np.flatnonzero(new_run)
    run_ends = np.append(run_starts[1:], n_g)
    doc_offsets = pa.array(np.append(run_starts, n_g).astype(np.int32))
    # position list offsets per run: positions of a run are the g_starts
    # slice [g_starts[run_start], group_end_of(run_end-1))
    pos_run_starts = g_starts[run_starts]
    pos_total = len(key_s)
    pos_offsets = pa.array(
        np.append(pos_run_starts, pos_total).astype(np.int32))

    run_codes = g_code[run_starts]
    buckets = term_buckets(vocab.to_numpy(zero_copy_only=False),
                           num_term_buckets)

    return pa.table({
        "term": vocab.take(pa.array(run_codes)).cast(pa.string()),
        "part": pa.array(g_part[run_starts].astype(np.int32)),
        "bucket": pa.array(buckets[run_codes]),
        "doc_ids": pa.ListArray.from_arrays(
            doc_offsets, pa.array(doc_np[g_docidx], type=pa.int64())),
        "pcounts": pa.ListArray.from_arrays(
            doc_offsets, pa.array(tf.astype(np.int32))),
        "poss": pa.ListArray.from_arrays(
            pos_offsets, pa.array(pos_s.astype(np.int32))),
    })


@dataclass
class PositionalIndex:
    root: str
    num_documents: int
    num_terms: int
    num_postings: int
    num_positions: int
    doc_part_bits: int
    num_term_buckets: int
    #: LSM lifecycle (defaults keep pre-extension stats files loadable):
    #: segment_<g>.parquet files beside merged.parquet per bucket, and a
    #: never-reused id ceiling (extends allocate past it)
    num_segments: int = 1
    id_ceiling: int | None = None

    @property
    def postings_dir(self) -> str:
        return os.path.join(self.root, "postings")

    @property
    def next_doc_id(self) -> int:
        return self.id_ceiling if self.id_ceiling is not None \
            else self.num_documents

    @classmethod
    def load(cls, root: str) -> "PositionalIndex":
        _finish_swaps(root)
        with open(os.path.join(root, "stats.json")) as f:
            return cls(root=root, **json.load(f))

    def _dump(self) -> None:
        _write_stats(self.root, {k: v for k, v in self.__dict__.items()
                                 if k != "root"})


def _encode_positional(rows: pa.Table) -> pa.Table:
    """Partial positional rows (``term, part, doc_ids, pcounts, poss``)
    of one bucket → its compressed segment table: one row per (term,
    part) with ``df, doc_ids_enc, pcounts_enc, poss_enc``, terms in
    first-appearance order, docs ascending. The rows are exploded to
    (term, part, doc) groups and sorted — doc interleave across partial
    files is the norm — then every column is varint-encoded in one
    vectorized pass over the bucket."""
    tbl = rows.combine_chunks()
    codes, vocab = encode_strings(tbl["term"].combine_chunks())
    parts = tbl["part"].to_numpy(zero_copy_only=False).astype(np.int64)
    dcol = tbl["doc_ids"].combine_chunks()
    parent = pc.list_parent_indices(dcol).to_numpy(zero_copy_only=False)
    flat_doc = dcol.flatten().to_numpy(zero_copy_only=False)
    flat_cnt = tbl["pcounts"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False).astype(np.int64)
    order = np.lexsort((flat_doc, parts[parent], codes[parent]))
    code_s, part_s = codes[parent][order], parts[parent][order]
    doc_s, cnt_s = flat_doc[order].astype(np.int64), flat_cnt[order]

    # gather each doc group's position slice in sorted doc order
    flat_pos = tbl["poss"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False).astype(np.int64)
    grp_start = np.concatenate(([0], np.cumsum(flat_cnt)))[:-1]
    pos_s = flat_pos[np.repeat(grp_start[order], cnt_s)
                     + _ragged_arange(cnt_s)]

    # (term, part) runs over the sorted doc groups; doc ids delta-coded
    # within a run, positions within a doc (the first of each absolute)
    new_run = np.ones(len(doc_s), dtype=bool)
    new_run[1:] = (code_s[1:] != code_s[:-1]) | (part_s[1:] != part_s[:-1])
    starts = np.flatnonzero(new_run)
    doc_first = np.concatenate(([0], np.cumsum(cnt_s)))[:-1]
    d_delta = doc_s.copy()
    d_delta[1:] -= doc_s[:-1]
    d_delta[starts] = doc_s[starts]
    p_delta = pos_s.copy()
    p_delta[1:] -= pos_s[:-1]
    p_delta[doc_first] = pos_s[doc_first]
    return pa.table({
        "term": vocab.take(pa.array(code_s[starts])),
        "part": pa.array(part_s[starts].astype(np.int32)),
        "df": pa.array(np.diff(np.append(starts, len(doc_s))),
                       type=pa.int64()),
        "doc_ids_enc": plib.encode_varints_sliced(d_delta, starts),
        "pcounts_enc": plib.encode_varints_sliced(cnt_s, starts),
        "poss_enc": plib.encode_varints_sliced(p_delta, doc_first[starts]),
    }).cast(_SEGMENT_SCHEMA)


def _decode_rows(tbl: pa.Table):
    """The one decoder of positional segment rows (the query path's
    ``_term_keys`` and compaction's ``_positional_rows``): one
    vectorized pass per column → (flat doc ids, their per-row offsets,
    flat position counts, flat absolute positions)."""
    docs, doc_off = plib.decode_doc_ids_column(tbl["doc_ids_enc"])
    cnts, _ = plib.decode_varints_column(tbl["pcounts_enc"])
    dpos, _ = plib.decode_varints_column(tbl["poss_enc"])
    return docs, doc_off, cnts, _undelta_positions(dpos, cnts)


def _positional_rows(dest: str, tombs: np.ndarray
                     ) -> tuple[pa.Table, np.ndarray]:
    """Every segment row of bucket dir *dest*, decoded back to the
    partial (list-column) rows ``_encode_positional`` consumes — the
    compaction decoder — with the docs in *tombs* (sorted ids) purged.
    Also returns, per tombstone, whether this bucket held its doc."""
    tbl = pa.concat_tables([pq.read_table(f) for f in _segment_files(dest)]
                           ).combine_chunks()
    docs, doc_off, cnts, pos = _decode_rows(tbl)
    held = np.zeros(tombs.size, dtype=np.int64)
    dead = sorted_member_mask(tombs, docs)
    if dead.any():
        held[np.searchsorted(tombs, docs[dead])] = 1
        row = np.repeat(np.arange(tbl.num_rows), np.diff(doc_off))
        doc_off = np.concatenate(([0], np.cumsum(np.bincount(
            row[~dead], minlength=tbl.num_rows))))
        pos = pos[np.repeat(~dead, cnts)]
        docs, cnts = docs[~dead], cnts[~dead]
    pos_off = np.concatenate(([0], np.cumsum(cnts)))[doc_off]
    return pa.table({
        "term": tbl["term"], "part": tbl["part"],
        "doc_ids": pa.ListArray.from_arrays(
            pa.array(doc_off.astype(np.int32)), pa.array(docs)),
        "pcounts": pa.ListArray.from_arrays(
            pa.array(doc_off.astype(np.int32)),
            pa.array(cnts.astype(np.int32))),
        "poss": pa.ListArray.from_arrays(
            pa.array(pos_off.astype(np.int32)),
            pa.array(pos.astype(np.int32))),
    }), held


def _compact_positional_bucket(dest: str, tombs: np.ndarray) -> tuple:
    """Bucket task of positional compaction (``build._compact_one_bucket``
    with the positional codec, tombstoned docs purged): the bucket's
    (distinct terms, postings, positions) afterwards, and per tombstone
    whether the bucket held its doc."""
    held = np.zeros(tombs.size, dtype=np.int64)

    def decode(d: str) -> pa.Table:
        rows, held[:] = _positional_rows(d, tombs)
        return rows

    counts = _compact_one_bucket(dest, decode, _encode_positional)
    pcounts = pq.read_table(os.path.join(dest, "merged.parquet"),
                            columns=["pcounts_enc"])["pcounts_enc"]
    n_pos = int(plib.decode_varints_column(pcounts)[0].sum())
    return (*counts, n_pos, held)


def _merge_one_positional_bucket(bucket_dirs: list[str], dest: str,
                                 file_name: str) -> tuple[int, int, int]:
    """Bucket task of positional build and extend: the bucket's spill
    files under *bucket_dirs* → one positional segment *file_name* in
    *dest*. Returns (distinct terms, postings) over every segment of the
    bucket, plus the positions of the new segment. A bucket with no new
    rows is only counted."""
    if not bucket_dirs:
        return (*_count_one_bucket(dest), 0)
    rows = read_spill([f for d in bucket_dirs for f in spill_files(d)])
    n_pos = pc.sum(pc.list_value_length(rows["poss"])).as_py() or 0
    return (*_write_bucket(dest, _encode_positional(rows), file_name),
            n_pos)


def _undelta_positions(dpos: np.ndarray, cnts: np.ndarray) -> np.ndarray:
    """Invert the per-doc delta encoding of one posting row's positions
    (first position of each doc absolute, rest deltas): cumsum, then
    subtract the carried prefix at each doc start. Rows of a whole
    column decode in one call: a row boundary is a doc boundary."""
    pos = np.cumsum(dpos)
    starts = np.concatenate(([0], np.cumsum(cnts)))[:-1]
    carry = np.zeros(len(dpos), dtype=np.int64)
    if len(starts) > 1:
        carry[starts[1:]] = pos[starts[1:] - 1]
    return pos - np.maximum.accumulate(carry)


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated — vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(ends - counts, counts)
    return out


def build_positional_index(corpus: Dataset, out_dir: str, *,
                           num_term_buckets: int = 16,
                           doc_part_bits: int = 20,
                           batch_size: int = 256,
                           stemmer=None) -> PositionalIndex:
    """Build the positional index under *out_dir* (corpus must have
    ``doc_id:int64, content:string`` — same contract as ``build_index``).
    ``stemmer`` builds a STEMMED positional index (pass the same
    callable to :class:`PositionalSearcher` — the caller owns that
    contract, exactly like ``LocalSearcher``); ``None`` (default) is
    the lowercase-nostem mode the SQL-oracle gates check.
    """
    n_docs = corpus.count()
    if n_docs == 0:
        raise ValueError("cannot build a positional index over an "
                         "empty corpus")
    idx = PositionalIndex(out_dir, 0, 0, 0, 0, doc_part_bits,
                          num_term_buckets, num_segments=0, id_ceiling=0)
    return _add_generation(idx, corpus, int(n_docs), batch_size, stemmer)


def extend_positional_index(root: str, new_corpus: Dataset, *,
                            batch_size: int = 256,
                            stemmer=None) -> PositionalIndex:
    """LSM extension, mirroring ``build.extend_index``: the existing
    segments are untouched; the new documents tokenize + spill + merge
    into ONE new ``segment_<gen>.parquet`` per bucket at O(new docs)
    cost. New docs get ids past the never-reused ceiling (*new_corpus*
    carries dense 0-based ids, same contract as the corpus readers).
    ``PositionalSearcher`` needs no changes — ``_term_keys`` already
    unions every segment file of a term's bucket, and segment doc
    ranges are disjoint. ``stemmer`` must match the original build
    (caller-owned contract)."""
    idx = PositionalIndex.load(root)
    offset = idx.next_doc_id

    def shift_ids(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id",
            pc.add(batch["doc_id"], offset))

    n_new = new_corpus.count()
    if n_new == 0:
        raise ValueError("cannot extend with an empty corpus")
    return _add_generation(
        idx, new_corpus.map_batches(shift_ids, batch_format="pyarrow"),
        int(n_new), batch_size, stemmer)


def _add_generation(idx: PositionalIndex, corpus: Dataset, n_new: int,
                    batch_size: int, stemmer) -> PositionalIndex:
    """Add the *n_new* docs of *corpus* (ids already past
    ``idx.next_doc_id``) to *idx* as generation ``g = idx.num_segments``
    — ``g = 0`` replaces ``postings/`` with one ``merged.parquet`` per
    bucket, ``g > 0`` adds one ``segment_<g>.parquet`` per touched
    bucket — and write its stats. Tokenize + spill, then build.py's
    bucket wave; untouched buckets are only counted."""
    gen = idx.num_segments
    file_name = f"segment_{gen}.parquet" if gen else "merged.parquet"
    partials_dir = os.path.join(idx.root,
                                f"partials_ext{gen}" if gen else "partials")
    shutil.rmtree(partials_dir, ignore_errors=True)
    corpus.map_batches(
        tokenize_positions_task,
        fn_kwargs={"num_term_buckets": idx.num_term_buckets,
                   "doc_part_bits": idx.doc_part_bits,
                   "stemmer": stemmer},
        batch_format="pyarrow", batch_size=batch_size,
    ).write_datasink(SpillDatasink(partials_dir, _SPILL_COLUMNS))

    if gen == 0:
        shutil.rmtree(idx.postings_dir, ignore_errors=True)
    os.makedirs(idx.postings_dir, exist_ok=True)
    # a crashed attempt at this generation left segments + markers that
    # would short-circuit this run's merges
    _clear_generation(idx.postings_dir, file_name)
    idx.num_terms, idx.num_postings, n_pos = _bucket_wave(
        _merge_one_positional_bucket,
        [(dirs, dest, file_name)
         for dirs, dest in _bucket_sources(partials_dir, idx.postings_dir)],
        zero=(0, 0, 0))
    shutil.rmtree(partials_dir, ignore_errors=True)

    idx.id_ceiling = idx.next_doc_id + n_new
    idx.num_documents += n_new
    idx.num_positions += n_pos
    idx.num_segments = gen + 1
    idx._dump()
    return idx


def compact_positional_index(root: str) -> PositionalIndex:
    """Collapse extension segments back to one ``merged.parquet`` per
    bucket — results unchanged (pytest-pinned vs a fresh build over the
    union), reads per query drop back to one file per bucket. Each
    bucket swaps through ``.compact.tmp`` (``build._compact_one_bucket``),
    so a reader sees either a bucket's old segments or its new file.

    Like ``compact_index``, it purges :func:`~.build.delete_docs`
    tombstones: their postings drop from every bucket, the stats are
    recounted from what remains, and the tombstone files clear after
    the stats commit. ``num_documents`` drops by the tombstoned docs
    some bucket held: a deleted document with no token holds no posting
    here, so it stays counted."""
    idx = PositionalIndex.load(root)
    tombs = load_tombstones(root)
    idx.num_terms, idx.num_postings, idx.num_positions, held = _bucket_wave(
        _compact_positional_bucket,
        [(dest, tombs) for dest in _bucket_dirs(idx.postings_dir)],
        zero=(0, 0, 0, np.zeros(tombs.size, dtype=np.int64)))
    idx.num_documents -= int(np.count_nonzero(held))
    idx.num_segments = 1
    idx._dump()
    if tombs.size:
        shutil.rmtree(os.path.join(root, "tombstones"), ignore_errors=True)
    return idx


class PositionalSearcher:
    """Query-routed phrase/proximity matcher over a built positional
    index. Stateless across queries by design (each query reads only its
    terms' rows, bucket-pruned + term-filter-pushed) — wrap in an actor
    for a warm pool, same shape as ``LocalSearcher``."""

    def __init__(self, index: PositionalIndex, stemmer=None):
        self._index = index
        # must match the stemmer the index was built with (caller-owned
        # contract, same as LocalSearcher); None = lowercase-nostem
        self._stem = stemmer or (lambda t: t)
        # delete_docs visibility (same contract as LocalSearcher):
        # tombstoned docs never appear in phrase/proximity results
        self._tomb = load_tombstones(index.root)

    def _drop_deleted(self, ids: np.ndarray) -> np.ndarray:
        if self._tomb.size == 0 or ids.size == 0:
            return ids
        dead = sorted_member_mask(self._tomb, ids)
        return ids[~dead] if dead.any() else ids

    def _term_keys(self, terms: list[str]) -> dict[str, np.ndarray]:
        """term → ascending unique (doc << POS_BITS | pos) key array."""
        idx = self._index
        want = sorted(set(terms))
        buckets = sorted({term_bucket(t, idx.num_term_buckets)
                          for t in want})
        files = committed_segment_files(idx.postings_dir, idx.num_segments,
                                        buckets)
        if not files:
            return {t: np.empty(0, dtype=np.int64) for t in want}
        tbl = pads.dataset(files).to_table(
            filter=pc.field("term").isin(want),
            columns=["term", "doc_ids_enc", "pcounts_enc", "poss_enc"])
        docs, doc_off, cnts, pos = _decode_rows(tbl)
        keys = (np.repeat(docs, cnts) << POS_BITS) | pos
        # the wanted-term index of every key: row → doc → position
        term_of_row = pc.index_in(tbl["term"], value_set=pa.array(want))
        term_of_key = np.repeat(np.repeat(
            term_of_row.to_numpy(zero_copy_only=False), np.diff(doc_off)),
            cnts)
        return {t: np.sort(keys[term_of_key == i])
                for i, t in enumerate(want)}

    def phrase(self, phrase: str) -> np.ndarray:
        """doc_ids (ascending) containing the contiguous token sequence
        of *phrase* (lowercase-whitespace tokens)."""
        terms = [self._stem(t) for t in phrase.lower().split()]
        if not terms:
            return np.empty(0, dtype=np.int64)
        keys = self._term_keys(terms)
        cur = keys[terms[0]]
        for t in terms[1:]:
            if cur.size == 0:
                break
            cur = np.intersect1d(cur + 1, keys[t], assume_unique=True)
        if cur.size == 0:
            return np.empty(0, dtype=np.int64)
        return self._drop_deleted(np.unique(cur >> POS_BITS))

    def first_occurrences(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids ascending, first 0-based token position of *term* in
        each doc) — the stored positional data surfaced DIRECTLY rather
        than through a membership predicate, which is what lets a SQL
        oracle check the position values themselves. Keys come back
        sorted per term, so within each doc group the first key carries
        the minimum position; tombstoned docs are dropped pairwise."""
        t = self._stem(term.lower())
        keys = self._term_keys([t])[t]
        if keys.size == 0:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        docs = keys >> POS_BITS
        udocs, first = np.unique(docs, return_index=True)
        pos = keys[first] & _MAX_DOC_LEN
        if self._tomb.size:
            dead = sorted_member_mask(self._tomb, udocs)
            if dead.any():
                udocs, pos = udocs[~dead], pos[~dead]
        return udocs, pos

    def min_pair_distance(self, a: str, b: str
                          ) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids ascending, min |pos_a − pos_b| in each doc) over the
        docs containing BOTH terms — the proximity feature a
        second-stage ranker boosts by (``analytics.proximity_boost``).
        Vectorized: for every *a*-occurrence the nearest *b* position is
        the searchsorted left/right neighbor in *b*'s sorted
        (doc << POS_BITS | pos) keys (same-doc guarded), then a per-doc
        ``minimum.reduceat`` over the *a*-occurrence runs. Terms must be
        distinct (a self-pair's nearest neighbor is itself — the
        distinct-position contract belongs to :meth:`proximity`)."""
        ta, tb = self._stem(a.lower()), self._stem(b.lower())
        if ta == tb:
            raise ValueError(
                "min_pair_distance needs two distinct terms "
                f"(both stem to {ta!r})")
        keys = self._term_keys([ta, tb])
        ka, kb = keys[ta], keys[tb]
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if ka.size == 0 or kb.size == 0:
            return empty
        docs_a = ka >> POS_BITS
        at = np.searchsorted(kb, ka)
        sent = np.int64(1) << 62  # no same-doc neighbor on that side
        right = np.full(ka.size, sent)
        ok = (at < kb.size)
        sel = np.minimum(at, kb.size - 1)
        same = ok & ((kb[sel] >> POS_BITS) == docs_a)
        right[same] = kb[sel[same]] - ka[same]  # ≥ 0, same-doc pos diff
        left = np.full(ka.size, sent)
        okl = at > 0
        sell = np.maximum(at - 1, 0)
        samel = okl & ((kb[sell] >> POS_BITS) == docs_a)
        left[samel] = ka[samel] - kb[sell[samel]]
        dist = np.minimum(right, left)
        # per-doc minimum over the a-occurrence runs (docs_a ascending)
        new_doc = np.ones(docs_a.size, dtype=bool)
        new_doc[1:] = docs_a[1:] != docs_a[:-1]
        starts = np.flatnonzero(new_doc)
        udocs = docs_a[starts]
        mind = np.minimum.reduceat(dist, starts)
        keep = mind < sent  # docs where b co-occurs at all
        udocs, mind = udocs[keep], mind[keep]
        if self._tomb.size and udocs.size:
            dead = sorted_member_mask(self._tomb, udocs)
            if dead.any():
                udocs, mind = udocs[~dead], mind[~dead]
        return udocs, mind

    def ordered_window(self, phrase: str, gap: int) -> np.ndarray:
        """doc_ids (ascending) containing the phrase terms IN ORDER with
        every adjacent pair within *gap* positions — Indri's ``#odN``
        operator, the general k-term sloppy phrase the 2-term
        :meth:`ordered_proximity` special-cases (``gap=1`` ≡ exact
        phrase). Exact feasible-set propagation, not greedy: after step
        i the frontier is EVERY position of term i reachable by some
        valid chain (a position q of term i+1 is reachable iff its
        nearest frontier predecessor p < q in the same doc has
        q − p ≤ gap — any farther predecessor is also < q−gap), so a
        doc matches iff the last frontier is non-empty. Greedy
        earliest-next is NOT exact here: with t2 ∈ {5, 9}, t3 = 12,
        gap 5, only the t2 = 9 chain completes. Repeated terms are fine
        (frontier positions are term-i occurrences; a shared occurrence
        can serve both steps only if strictly increasing, which the
        q > p comparison enforces)."""
        if gap < 1:
            raise ValueError(f"gap must be >= 1, got {gap}")
        terms = [self._stem(t) for t in phrase.lower().split()]
        if not terms:
            return np.empty(0, dtype=np.int64)
        keys = self._term_keys(terms)
        cur = keys[terms[0]]
        for t in terms[1:]:
            if cur.size == 0:
                break
            kn = keys[t]
            if kn.size == 0:
                cur = kn
                break
            # nearest frontier predecessor strictly before each q
            at = np.searchsorted(cur, kn, side="left") - 1
            ok = at >= 0
            sel = np.maximum(at, 0)
            pred = cur[sel]
            ok &= (pred >> POS_BITS) == (kn >> POS_BITS)  # same doc
            ok &= (kn - pred) <= gap  # and within the window
            cur = kn[ok]
        if cur.size == 0:
            return np.empty(0, dtype=np.int64)
        return self._drop_deleted(np.unique(cur >> POS_BITS))

    def best_windows(self, query: str, window: int,
                     doc_ids) -> list[tuple[int, int, int, int]]:
        """Snippet selection: for each doc in *doc_ids*, the best
        *window*-token window — maximal (distinct query terms, total
        hits), tie → earliest start; windows are anchored at hit
        positions (dropping a hit-free prefix never loses hits). Returns
        (doc_id, start, distinct_terms, hits) rows ascending by doc_id;
        docs with no hits are omitted.

        Intended for the RESULT PAGE (the top-k docs a query returned),
        not the corpus: cost is O(Σ hits² per doc) over k docs — the
        candidate positions come from the same bucket-pruned term reads
        as phrase/proximity, so no content is fetched at all."""
        terms = sorted({self._stem(t) for t in query.lower().split()})
        if not terms:
            return []
        want = self._drop_deleted(
            np.asarray(sorted(set(int(d) for d in doc_ids)),
                       dtype=np.int64))
        if want.size == 0:
            return []
        keys = self._term_keys(terms)
        docs_l, pos_l, tid_l = [], [], []
        for ti, t in enumerate(terms):
            k = keys[t]
            if k.size == 0:
                continue
            d = k >> POS_BITS
            sel = np.searchsorted(want, d)
            ok = (sel < want.size) & (want[np.minimum(
                sel, want.size - 1)] == d)
            if not ok.any():
                continue
            docs_l.append(d[ok])
            pos_l.append((k & np.int64(_MAX_DOC_LEN))[ok])
            tid_l.append(np.full(int(ok.sum()), ti, dtype=np.int64))
        if not docs_l:
            return []
        docs = np.concatenate(docs_l)
        pos = np.concatenate(pos_l)
        tid = np.concatenate(tid_l)
        order = np.lexsort((pos, docs))
        docs, pos, tid = docs[order], pos[order], tid[order]
        out: list[tuple[int, int, int, int]] = []
        starts = np.flatnonzero(np.concatenate(
            ([True], docs[1:] != docs[:-1])))
        ends = np.append(starts[1:], len(docs))
        for s, e in zip(starts.tolist(), ends.tolist()):
            p = pos[s:e]
            t = tid[s:e]
            best = None  # (-distinct, -hits, start)
            for lo in range(len(p)):
                hi = int(np.searchsorted(p, p[lo] + window))
                distinct = len(set(t[lo:hi].tolist()))
                cand = (-distinct, -(hi - lo), int(p[lo]))
                if best is None or cand < best:
                    best = cand
            out.append((int(docs[s]), best[2], -best[0], -best[1]))
        return out

    def ordered_proximity(self, term_a: str, term_b: str,
                          window: int) -> np.ndarray:
        """doc_ids where *term_b* occurs AFTER *term_a* within *window*
        positions (1 ≤ pos_b − pos_a ≤ window) — the ordered span
        (Lucene ``SpanNearQuery(inOrder=true)`` for two terms;
        asymmetric: ``ordered_proximity(a, b, w)`` ≠
        ``ordered_proximity(b, a, w)``). Same key algebra as
        :meth:`proximity` restricted to positive shifts of the first
        term; ``window=1`` degenerates to the two-token phrase. For
        ``term_a == term_b`` the strict ordering already enforces two
        distinct positions."""
        if window < 1:
            return np.empty(0, dtype=np.int64)
        a = self._stem(term_a.lower())
        b = self._stem(term_b.lower())
        keys = self._term_keys([a, b])
        ka, kb = keys[a], keys[b]
        if ka.size == 0 or kb.size == 0:
            return np.empty(0, dtype=np.int64)
        docs: list[np.ndarray] = []
        mask = np.int64(_MAX_DOC_LEN)
        for off in range(1, window + 1):
            o = np.int64(off)
            # a positive shift stays in-doc iff pos+off does not
            # overflow the position field (same guard as proximity)
            ok_a = ka[(ka & mask) <= mask - o]
            hit = np.intersect1d(ok_a + o, kb, assume_unique=True)
            if hit.size:
                docs.append(hit >> POS_BITS)
        if not docs:
            return np.empty(0, dtype=np.int64)
        return self._drop_deleted(np.unique(np.concatenate(docs)))

    def proximity(self, term_a: str, term_b: str,
                  window: int) -> np.ndarray:
        """doc_ids where the two terms co-occur within *window* token
        positions (|pos_a - pos_b| ≤ window) at two DISTINCT positions.
        For distinct terms the distinct-position requirement is vacuous
        (two terms never share a position); for ``term_a == term_b`` it
        means the term must occur at least twice within the window —
        without it every single occurrence would trivially match itself
        (|p - p| = 0 ≤ w)."""
        a = self._stem(term_a.lower())
        b = self._stem(term_b.lower())
        keys = self._term_keys([a, b])
        ka, kb = keys[a], keys[b]
        if ka.size == 0 or kb.size == 0:
            return np.empty(0, dtype=np.int64)
        same = a == b
        docs: list[np.ndarray] = []
        mask = np.int64(_MAX_DOC_LEN)
        # only POSITIVE shifts, applied to each side in turn — a negative
        # shift at pos 0 would underflow the key into the previous doc's
        # position space. A positive shift stays in-doc iff pos+off does
        # not exceed the position field, guarded by the validity filter.
        # same-term: off 0 is the self-match (skipped) and the two
        # directions coincide, so offsets 1..w in one direction cover
        # every distinct pair.
        for off in range(0, window + 1):
            o = np.int64(off)
            if same and off == 0:
                continue
            ok_a = ka[(ka & mask) <= mask - o]
            hit = np.intersect1d(ok_a + o, kb, assume_unique=True)
            if hit.size:
                docs.append(hit >> POS_BITS)
            if off == 0 or same:
                continue
            ok_b = kb[(kb & mask) <= mask - o]
            hit = np.intersect1d(ok_b + o, ka, assume_unique=True)
            if hit.size:
                docs.append(hit >> POS_BITS)
        if not docs:
            return np.empty(0, dtype=np.int64)
        return self._drop_deleted(np.unique(np.concatenate(docs)))
