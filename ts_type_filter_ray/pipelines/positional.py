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
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
from ray.data import Dataset

from ..state import postings as plib
from ..state.postings import term_bucket
from ..state.spill import SpillDatasink, read_spill, spill_files

#: positions live in the low bits of the (doc, pos) key; any doc with
#: doc_len >= 2**POS_BITS is rejected at build time so a +1 key shift
#: can never cross into the next document.
POS_BITS = 22
_MAX_DOC_LEN = (1 << POS_BITS) - 1
#: what a positional posting row keeps in the spill
_SPILL_COLUMNS = ("term", "part", "doc_ids", "pcounts", "poss")


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
    trimmed = pc.utf8_trim_whitespace(batch["content"])
    toks = pc.utf8_split_whitespace(trimmed)
    flat = pc.utf8_lower(pc.list_flatten(toks))
    parents = pc.list_parent_indices(toks)
    if pc.any(pc.equal(trimmed, "")).as_py():
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        parents = parents.filter(keep)
    par = parents.to_numpy(zero_copy_only=False).astype(np.int64)

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

    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary.to_pylist()
    if stemmer is not None:
        stems = np.array([stemmer(t) for t in vocab], dtype=object)
        uniq, inv = np.unique(stems, return_inverse=True)
        codes = inv[codes].astype(np.int64)
        vocab = uniq.tolist()

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
    vocab_arr = np.array(vocab, dtype=object)
    run_terms = vocab_arr[run_codes].tolist()
    buckets = np.array([term_bucket(t, num_term_buckets)
                        for t in run_terms], dtype=np.int32)

    return pa.table({
        "term": pa.array(run_terms, type=pa.string()),
        "part": pa.array(g_part[run_starts].astype(np.int32)),
        "bucket": pa.array(buckets),
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
        _recover_postings_swap(root)
        with open(os.path.join(root, "stats.json")) as f:
            return cls(root=root, **json.load(f))

    def _dump(self) -> None:
        meta = {k: v for k, v in self.__dict__.items() if k != "root"}
        with open(os.path.join(self.root, "stats.json"), "w") as f:
            json.dump(meta, f, indent=1)


def _merge_one_positional_bucket(bucket_dir: str | None, out_dir: str,
                                 bucket: int,
                                 file_name: str = "merged.parquet",
                                 partial: pa.Table | None = None
                                 ) -> tuple[int, int, int]:
    """One bucket's partial spill files under *bucket_dir* — or the
    in-memory *partial* rows, for compaction — → one compressed
    positional segment (*file_name* — ``segment_<g>.parquet`` for LSM
    extensions). Returns (distinct_terms, postings, positions).
    Idempotent via a ``_SUCCESS``(.stem) marker (same two-phase-commit
    shape as the main merge)."""
    try:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
    except Exception:
        pass
    dest = os.path.join(out_dir, f"bucket={bucket}")
    stem = file_name.rsplit(".", 1)[0]
    marker = os.path.join(dest, ("_SUCCESS" if file_name == "merged.parquet"
                                 else f"_SUCCESS.{stem}"))
    out_file = os.path.join(dest, file_name)
    if not os.path.exists(marker):
        if partial is None:
            partial = read_spill(spill_files(bucket_dir))
        tbl = partial.combine_chunks()

        enc = tbl["term"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary.to_pylist()
        parts = tbl["part"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(parts) and int(parts.max()) >= (1 << 24):
            # rowkey packs part into the low 24 bits; a larger part would
            # silently collide (term,part) groups (ADVICE r3)
            raise ValueError(
                f"doc partition id {int(parts.max())} >= 2^24 — raise the "
                "rowkey part width or lower doc_part_bits")

        dcol = tbl["doc_ids"].combine_chunks()
        ccol = tbl["pcounts"].combine_chunks()
        pcol = tbl["poss"].combine_chunks()

        # explode to per-(term,part,doc) granularity and lexsort — a
        # positional bucket is positions/num_buckets; the simple exact
        # sort is the robust choice here (doc interleave across partial
        # files is the norm, not the exception)
        parent = pc.list_parent_indices(dcol).to_numpy(zero_copy_only=False)
        flat_doc = dcol.flatten().to_numpy(zero_copy_only=False)
        flat_cnt = ccol.flatten().to_numpy(
            zero_copy_only=False).astype(np.int64)
        rowkey = (codes[parent] << np.int64(24)) | parts[parent]
        order = np.lexsort((flat_doc, rowkey))
        key_s = rowkey[order]
        doc_s = flat_doc[order]
        cnt_s = flat_cnt[order]

        # gather each doc-group's position slice in sorted doc order
        flat_pos = pcol.flatten().to_numpy(zero_copy_only=False)
        grp_start = np.concatenate(([0], np.cumsum(flat_cnt)))[:-1]
        take_idx = (np.repeat(grp_start[order], cnt_s) +
                    _ragged_arange(cnt_s))
        pos_sorted = flat_pos[take_idx]

        # (term,part) run boundaries over the sorted doc groups
        n = len(key_s)
        new_run = np.ones(n, dtype=bool)
        if n:
            new_run[1:] = key_s[1:] != key_s[:-1]
        starts = np.flatnonzero(new_run)
        ends = np.append(starts[1:], n)
        pos_cum = np.concatenate(([0], np.cumsum(cnt_s)))

        terms_out, parts_out, dfs = [], [], []
        d_enc, c_enc, p_enc = [], [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            code = int(key_s[s] >> 24)
            part = int(key_s[s] & ((1 << 24) - 1))
            docs = doc_s[s:e]
            cnts = cnt_s[s:e]
            ps, pe = int(pos_cum[s]), int(pos_cum[e])
            poss = pos_sorted[ps:pe]
            # delta-encode positions within each doc (first absolute)
            dpos = np.diff(poss)
            first = np.concatenate(([0], np.cumsum(cnts)))[:-1]
            dpos = np.insert(dpos, 0, 0)  # placeholder at index 0
            dpos[first] = poss[first]
            terms_out.append(vocab[code])
            parts_out.append(part)
            dfs.append(len(docs))
            d_enc.append(plib.encode_doc_ids(docs))
            c_enc.append(plib.encode_varints(cnts))
            p_enc.append(plib.encode_varints(dpos))

        merged = pa.table({
            "term": pa.array(terms_out, type=pa.string()),
            "part": pa.array(parts_out, type=pa.int32()),
            "df": pa.array(dfs, type=pa.int64()),
            "doc_ids_enc": pa.array(d_enc, type=pa.binary()),
            "pcounts_enc": pa.array(c_enc, type=pa.binary()),
            "poss_enc": pa.array(p_enc, type=pa.binary()),
        })
        os.makedirs(dest, exist_ok=True)
        tmp = os.path.join(dest, ".merged.parquet.tmp")
        pq.write_table(merged, tmp)
        os.replace(tmp, out_file)
        open(marker, "w").close()
    # BUCKET-TOTAL counts across every segment file (not just the one
    # written here) — refreshes the per-bucket _counts.json cache
    return _count_positional_bucket(dest, force=True)


def _undelta_positions(dpos: np.ndarray, cnts: np.ndarray) -> np.ndarray:
    """Invert the per-doc delta encoding of one posting row's positions
    (first position of each doc absolute, rest deltas): cumsum, then
    subtract the carried prefix at each doc start. Shared by the query
    path (``_term_keys``) and compaction (``_decode_segments_to_partial``)
    so the encoding has exactly one decoder."""
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
    import shutil

    import ray

    os.makedirs(out_dir, exist_ok=True)
    partials_dir = os.path.join(out_dir, "partials")
    shutil.rmtree(partials_dir, ignore_errors=True)

    n_docs = corpus.count()
    if n_docs == 0:
        raise ValueError("cannot build a positional index over an "
                         "empty corpus")
    corpus.map_batches(
        tokenize_positions_task,
        fn_kwargs={"num_term_buckets": num_term_buckets,
                   "doc_part_bits": doc_part_bits,
                   "stemmer": stemmer},
        batch_format="pyarrow", batch_size=batch_size,
    ).write_datasink(SpillDatasink(partials_dir, _SPILL_COLUMNS))

    postings_dir = os.path.join(out_dir, "postings")
    shutil.rmtree(postings_dir, ignore_errors=True)
    os.makedirs(postings_dir, exist_ok=True)
    total_cpus = int(ray.cluster_resources().get("CPU", 8))
    per_task_cpus = max(1, total_cpus // 16)
    task = ray.remote(num_cpus=per_task_cpus)(_merge_one_positional_bucket)
    refs = []
    for name in sorted(os.listdir(partials_dir)):
        if not name.startswith("bucket="):
            continue
        bucket = int(name.split("=", 1)[1])
        refs.append(task.remote(os.path.join(partials_dir, name),
                                postings_dir, bucket))
    results = ray.get(refs)
    shutil.rmtree(partials_dir, ignore_errors=True)

    idx = PositionalIndex(
        root=out_dir,
        num_documents=int(n_docs),
        num_terms=sum(r[0] for r in results),
        num_postings=sum(r[1] for r in results),
        num_positions=sum(r[2] for r in results),
        doc_part_bits=doc_part_bits,
        num_term_buckets=num_term_buckets,
        num_segments=1,
        id_ceiling=int(n_docs),
    )
    idx._dump()
    return idx


def _recover_postings_swap(root: str) -> None:
    """Finish or roll back a compaction swap interrupted mid-flight —
    called by :meth:`PositionalIndex.load` and at the start of
    :func:`compact_positional_index`, so a crash between the two
    directory renames can never leave queries silently answering from
    a missing postings dir."""
    import shutil

    postings = os.path.join(root, "postings")
    tmp = os.path.join(root, "postings.compact.tmp")
    old = os.path.join(root, "postings.old")
    if not os.path.isdir(postings):
        if os.path.isdir(tmp) and os.path.exists(
                os.path.join(tmp, "_COMPLETE")):
            os.replace(tmp, postings)  # finish the committed swap
        elif os.path.isdir(old):
            os.replace(old, postings)  # roll back an uncommitted one
        elif os.path.exists(os.path.join(root, "stats.json")):
            raise FileNotFoundError(
                f"positional index at {root!r} has no postings dir and "
                "no recoverable swap state")
    if os.path.isdir(old):
        shutil.rmtree(old, ignore_errors=True)
    marker = os.path.join(postings, "_COMPLETE")
    if os.path.exists(marker):
        os.remove(marker)


def _count_positional_bucket(dest: str,
                             force: bool = False) -> tuple[int, int, int]:
    """(distinct_terms, postings, positions) across EVERY segment file of
    one bucket dir — terms are disjoint across buckets, so per-bucket
    distinct counts sum to the global count (same argument as the main
    index's ``_count_one_bucket``). Results are cached in
    ``_counts.json`` beside the segments (``force=True`` recomputes and
    rewrites), so an extension only pays the full varint-decode recount
    for buckets it actually touched."""
    cpath = os.path.join(dest, "_counts.json")
    if not force and os.path.exists(cpath):
        with open(cpath) as f:
            c = json.load(f)
        return int(c["terms"]), int(c["postings"]), int(c["positions"])
    files = [os.path.join(dest, f) for f in sorted(os.listdir(dest))
             if f.endswith(".parquet") and not f.startswith((".", "_"))]
    if not files:
        return 0, 0, 0
    tbl = pads.dataset(files).to_table(
        columns=["term", "df", "pcounts_enc"])
    n_terms = int(pc.count_distinct(tbl["term"]).as_py() or 0)
    n_post = int(pc.sum(tbl["df"]).as_py() or 0)
    n_pos = sum(int(plib.decode_varints(b.as_py()).sum())
                for b in tbl["pcounts_enc"])
    tmp = cpath + f".{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump({"terms": n_terms, "postings": n_post,
                   "positions": n_pos}, f)
    os.replace(tmp, cpath)
    return n_terms, n_post, n_pos


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
    import shutil

    import ray

    idx = PositionalIndex.load(root)
    offset = idx.next_doc_id
    gen = idx.num_segments

    def shift_ids(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id",
            pc.add(batch["doc_id"], offset))

    n_new = new_corpus.count()
    if n_new == 0:
        raise ValueError("cannot extend with an empty corpus")
    partials_dir = os.path.join(root, f"partials_ext{gen}")
    shutil.rmtree(partials_dir, ignore_errors=True)
    new_corpus.map_batches(shift_ids, batch_format="pyarrow").map_batches(
        tokenize_positions_task,
        fn_kwargs={"num_term_buckets": idx.num_term_buckets,
                   "doc_part_bits": idx.doc_part_bits,
                   "stemmer": stemmer},
        batch_format="pyarrow", batch_size=batch_size,
    ).write_datasink(SpillDatasink(partials_dir, _SPILL_COLUMNS))

    postings_dir = idx.postings_dir
    # clear leftovers of a CRASHED attempt at this same generation —
    # their _SUCCESS markers would short-circuit this run's merges and
    # silently keep the old attempt's (possibly different-corpus) data
    for d in os.listdir(postings_dir):
        if d.startswith("bucket="):
            removed = False
            for nm in (f"segment_{gen}.parquet",
                       f"_SUCCESS.segment_{gen}"):
                p = os.path.join(postings_dir, d, nm)
                if os.path.exists(p):
                    os.remove(p)
                    removed = True
            if removed:
                # the crashed attempt's force-recount cached counts that
                # INCLUDED the segment just deleted — a retry whose new
                # corpus doesn't touch this bucket would read the stale
                # cache into stats.json
                cpath = os.path.join(postings_dir, d, "_counts.json")
                if os.path.exists(cpath):
                    os.remove(cpath)
    total_cpus = int(ray.cluster_resources().get("CPU", 8))
    per_task_cpus = max(1, total_cpus // 16)
    task = ray.remote(num_cpus=per_task_cpus)(_merge_one_positional_bucket)
    touched: list[int] = []
    refs = []
    for name in sorted(os.listdir(partials_dir)):
        if not name.startswith("bucket="):
            continue
        bucket = int(name.split("=", 1)[1])
        touched.append(bucket)
        refs.append(task.remote(os.path.join(partials_dir, name),
                                postings_dir, bucket,
                                f"segment_{gen}.parquet"))
    counts = {b: c for b, c in zip(touched, ray.get(refs))}
    shutil.rmtree(partials_dir, ignore_errors=True)

    # untouched buckets still own vocabulary: their counts come from the
    # per-bucket _counts.json cache (one file read), so the extension's
    # recount cost tracks the buckets it touched, not the index size —
    # legacy caches missing → computed once and cached
    count = ray.remote(_count_positional_bucket)
    others = [int(d.split("=", 1)[1])
              for d in sorted(os.listdir(postings_dir))
              if d.startswith("bucket=")
              and int(d.split("=", 1)[1]) not in counts]
    counts.update(zip(others, ray.get(
        [count.remote(os.path.join(postings_dir, f"bucket={b}"))
         for b in others])))

    idx.num_documents += int(n_new)
    idx.num_terms = sum(c[0] for c in counts.values())
    idx.num_postings = sum(c[1] for c in counts.values())
    idx.num_positions = sum(c[2] for c in counts.values())
    idx.num_segments = gen + 1
    idx.id_ceiling = offset + int(n_new)
    idx._dump()
    return idx


def _decode_segments_to_partial(dest: str) -> pa.Table:
    """Every segment row of one bucket dir, decoded back to the PARTIAL
    (list-column) format ``_merge_one_positional_bucket`` consumes —
    the compaction adapter."""
    files = [os.path.join(dest, f) for f in sorted(os.listdir(dest))
             if f.endswith(".parquet") and not f.startswith((".", "_"))]
    tbl = pads.dataset(files).to_table(
        columns=["term", "part", "doc_ids_enc", "pcounts_enc", "poss_enc"])
    terms, parts = [], []
    docs_l, cnts_l, poss_l = [], [], []
    for i in range(tbl.num_rows):
        docs = plib.decode_doc_ids(tbl["doc_ids_enc"][i].as_py())
        cnts = plib.decode_varints(tbl["pcounts_enc"][i].as_py())
        dpos = plib.decode_varints(tbl["poss_enc"][i].as_py())
        pos = _undelta_positions(dpos, cnts)
        terms.append(tbl["term"][i].as_py())
        parts.append(tbl["part"][i].as_py())
        docs_l.append(docs.tolist())
        cnts_l.append(cnts.astype(np.int32).tolist())
        poss_l.append(pos.astype(np.int32).tolist())
    return pa.table({
        "term": pa.array(terms, type=pa.string()),
        "part": pa.array(parts, type=pa.int32()),
        "doc_ids": pa.array(docs_l, type=pa.list_(pa.int64())),
        "pcounts": pa.array(cnts_l, type=pa.list_(pa.int32())),
        "poss": pa.array(poss_l, type=pa.list_(pa.int32())),
    })


def _compact_one_positional_bucket(postings_dir: str, tmp_dir: str,
                                   bucket: int) -> tuple[int, int, int]:
    """Decode one bucket's segments to partial format, re-merge into a
    single ``merged.parquet`` under *tmp_dir* (the swap happens on the
    driver once every bucket committed)."""
    dest = os.path.join(postings_dir, f"bucket={bucket}")
    return _merge_one_positional_bucket(
        None, tmp_dir, bucket, partial=_decode_segments_to_partial(dest))


def compact_positional_index(root: str) -> PositionalIndex:
    """Collapse extension segments back to one ``merged.parquet`` per
    bucket — results unchanged (pytest-pinned vs a fresh build over the
    union), reads per query drop back to one file per bucket. Two-phase:
    every bucket compacts into a tmp dir, then one atomic directory
    swap."""
    import shutil

    import ray

    idx = PositionalIndex.load(root)
    postings_dir = idx.postings_dir
    tmp_dir = os.path.join(root, "postings.compact.tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)
    buckets = [int(d.split("=", 1)[1])
               for d in sorted(os.listdir(postings_dir))
               if d.startswith("bucket=")]
    task = ray.remote(_compact_one_positional_bucket)
    results = ray.get([task.remote(postings_dir, tmp_dir, b)
                       for b in buckets])
    # commit marker BEFORE the renames: a crash between the two
    # os.replace calls is then recoverable — PositionalIndex.load /
    # the next compact run finishes the swap (or rolls back an
    # uncommitted one) via _recover_postings_swap
    open(os.path.join(tmp_dir, "_COMPLETE"), "w").close()
    old = os.path.join(root, "postings.old")
    shutil.rmtree(old, ignore_errors=True)
    os.replace(postings_dir, old)
    os.replace(tmp_dir, postings_dir)
    shutil.rmtree(old, ignore_errors=True)
    marker = os.path.join(postings_dir, "_COMPLETE")
    if os.path.exists(marker):
        os.remove(marker)
    idx.num_terms = sum(r[0] for r in results)
    idx.num_postings = sum(r[1] for r in results)
    idx.num_positions = sum(r[2] for r in results)
    idx.num_segments = 1
    idx._dump()
    return idx


class PositionalSearcher:
    """Query-routed phrase/proximity matcher over a built positional
    index. Stateless across queries by design (each query reads only its
    terms' rows, bucket-pruned + term-filter-pushed) — wrap in an actor
    for a warm pool, same shape as ``LocalSearcher``."""

    def __init__(self, index: PositionalIndex, stemmer=None):
        from .build import load_tombstones

        self._index = index
        # must match the stemmer the index was built with (caller-owned
        # contract, same as LocalSearcher); None = lowercase-nostem
        self._stem = stemmer or (lambda t: t)
        # delete_docs visibility (same contract as LocalSearcher):
        # tombstoned docs never appear in phrase/proximity results
        self._tomb = load_tombstones(index.root)

    def _drop_deleted(self, ids: np.ndarray) -> np.ndarray:
        from .build import sorted_member_mask
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
        files = []
        for b in buckets:
            d = os.path.join(idx.postings_dir, f"bucket={b}")
            if os.path.isdir(d):
                files.extend(os.path.join(d, f)
                             for f in sorted(os.listdir(d))
                             if f.endswith(".parquet")
                             and not f.startswith((".", "_")))
        out: dict[str, list[np.ndarray]] = {t: [] for t in want}
        if files:
            tbl = pads.dataset(files).to_table(
                filter=pc.field("term").isin(want),
                columns=["term", "doc_ids_enc", "pcounts_enc", "poss_enc"])
            for i in range(tbl.num_rows):
                term = tbl["term"][i].as_py()
                docs = plib.decode_doc_ids(tbl["doc_ids_enc"][i].as_py())
                cnts = plib.decode_varints(tbl["pcounts_enc"][i].as_py())
                dpos = plib.decode_varints(tbl["poss_enc"][i].as_py())
                pos = _undelta_positions(dpos, cnts)
                keys = ((np.repeat(docs, cnts) << POS_BITS) | pos)
                out[term].append(keys)
        return {t: (np.sort(np.concatenate(a)) if a
                    else np.empty(0, dtype=np.int64))
                for t, a in out.items()}

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
            from .build import sorted_member_mask
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
            from .build import sorted_member_mask
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
