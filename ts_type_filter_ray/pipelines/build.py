"""Distributed index build: corpus Dataset → compressed postings + docs
table + global stats, all Parquet under one index root.

Ray-Data-first shape (SURVEY.md §3.1 "Ray shape", §7):

  corpus ─read → TokenizePartials(emit_meta=True) → SpillDatasink ─ ONE
               fused task per read task: partial posting rows + per-doc
               metadata rows ► partials/bucket=*/<task>.arrow
               (metadata rows land under bucket=-1)
  bucket=-1 ── bundled docs tasks ────────► docs/  (doc_id, sha256, …)
               + (N, avgdl) reduce ───────► stats.json  (BM25 globals)
  bucket>=0 ── one merge task per bucket ─► postings/bucket=* (+ counters)

The per-slice partial aggregation inside ``TokenizePartials`` is the
combiner that bounds the exchange; ``part = doc_id >> doc_part_bits``
bounds every posting row (hot-term skew, SURVEY.md §4). The exchange
itself is a **bucket-partitioned LZ4 Arrow IPC spill**
(``state/spill.py``) rather than an object-store groupby shuffle —
measured faster and better-scaling here, and it doubles as the
checkpoint artifact (state/manifest.py shares the layout and the merge).
Postings land partitioned by ``bucket = crc32(term) % num_term_buckets``
so a query routes to its buckets' files only; per-term df stays
derivable because each term lives in exactly one bucket.

Index root layout (Parquet + one JSON):
  root/docs/*.parquet     root/postings/bucket=*/merged.parquet
  root/stats.json         (root/partials/bucket=*/*.arrow during the build)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from ray.data import Dataset

from ..oracle.index import BM25_B, BM25_K1
from ..stages.tokenizer import DEFAULT_DOC_PART_BITS, TokenizePartials
from ..state.postings import term_bucket  # noqa: F401  (re-export for query)
from ..state.spill import SpillDatasink, read_spill, spill_files

DEFAULT_TERM_BUCKETS = 32


@dataclass
class IndexStats:
    num_documents: int
    total_doc_len: int
    num_unique_terms: int
    num_postings: int
    k1: float
    b: float
    doc_part_bits: int
    num_term_buckets: int
    # incremental extensions (extend_index): number of postings segment
    # generations per bucket, and the MINIMUM avgdl any live segment's
    # block-max metadata was computed with — the searcher scales its
    # pruning upper bounds by max(1, avgdl/min_merge_avgdl), which keeps
    # WAND pruning EXACT under a drifted avgdl (tf_factor grows at most
    # linearly in avgdl). None ⇔ single-generation index (factor 1).
    num_segments: int = 1
    min_merge_avgdl: float | None = None
    # deletions (delete_docs): compaction purges tombstoned docs, which
    # leaves HOLES in the id space — the next extend_index must not
    # reuse a live id, so the id ceiling is tracked independently of
    # num_documents. None ⇔ no deletions ever compacted (ceiling =
    # num_documents, the dense-id invariant) — also the back-compat
    # default for stats.json files written before this field existed.
    id_ceiling: int | None = None

    @property
    def next_doc_id(self) -> int:
        return self.id_ceiling if self.id_ceiling is not None \
            else self.num_documents

    @property
    def avgdl(self) -> float:
        # int-sum / int-count: bit-identical to the oracle's
        # sum(self._doc_len) / n (oracle/index.py).
        return self.total_doc_len / self.num_documents

    @property
    def impact_correction(self) -> float:
        if self.min_merge_avgdl is None or self.min_merge_avgdl <= 0:
            return 1.0
        return max(1.0, self.avgdl / self.min_merge_avgdl)


@dataclass
class BuiltIndex:
    root: str
    stats: IndexStats
    timings: dict | None = None  # per-phase wall seconds (fresh builds)

    @property
    def docs_dir(self) -> str:
        return os.path.join(self.root, "docs")

    @property
    def postings_dir(self) -> str:
        return os.path.join(self.root, "postings")

    @property
    def tombstones_dir(self) -> str:
        return os.path.join(self.root, "tombstones")

    @classmethod
    def load(cls, root: str) -> "BuiltIndex":
        with open(os.path.join(root, "stats.json")) as f:
            return cls(root=root, stats=IndexStats(**json.load(f)))


def build_index(corpus: Dataset, out_dir: str, *,
                doc_part_bits: int = DEFAULT_DOC_PART_BITS,
                num_term_buckets: int = DEFAULT_TERM_BUCKETS,
                tokenize_batch_size: int = 256,
                breaker=None, stemmer=None, keep_partials: bool = False,
                k1: float = BM25_K1, b: float = BM25_B,
                stopwords=None) -> BuiltIndex:
    """Build the full index under *out_dir* and return its handle.

    *corpus* must have columns ``doc_id:int64, content:(large_)string``
    (plus any metadata columns, carried into ``docs/``).

    ``stopwords`` (lowercase surface forms) are dropped at index time —
    from postings AND doc_len — as if never written (Lucene StopFilter
    semantics; see ``stages/tokenizer.py``).
    """
    os.makedirs(out_dir, exist_ok=True)

    import shutil

    # ONE corpus pass — tokenize emits partial posting rows AND per-doc
    # metadata rows (sha256/doc_len, ``bucket = -1``) in the same stream,
    # spilled partitioned by term bucket. This replaces an
    # in-object-store groupby shuffle with a shuffle-free partitioned
    # write: each tokenize task writes one LZ4 Arrow IPC file under every
    # bucket directory it touched. The combined stream halves corpus
    # reads vs the r1 two-pass layout and keeps doc_len on the same
    # breaker as the postings.
    import time
    timings: dict[str, float] = {}

    partials_dir = os.path.join(out_dir, "partials")
    shutil.rmtree(partials_dir, ignore_errors=True)
    t0 = time.perf_counter()
    _tokenize_spill(corpus, partials_dir, doc_part_bits, num_term_buckets,
                    tokenize_batch_size, breaker, stemmer, stopwords)
    timings["tokenize_spill"] = time.perf_counter() - t0

    # docs table + global doc stats from the (small, content-free)
    # metadata partition — raw Ray tasks over bundles of meta files (a
    # Dataset read→map→write→read→aggregate here costs ~2 s of fixed
    # job-launch overhead per build, dwarfing the actual work; the task
    # count still scales with the corpus because meta files ∝ write tasks)
    meta_dir = os.path.join(partials_dir, "bucket=-1")
    if not os.path.isdir(meta_dir):
        raise ValueError("cannot build an index over an empty corpus")
    docs_dir = os.path.join(out_dir, "docs")
    shutil.rmtree(docs_dir, ignore_errors=True)
    t0 = time.perf_counter()
    n_docs, total_dl = _write_docs_table(spill_files(meta_dir), docs_dir)
    timings["docs_table"] = time.perf_counter() - t0
    if n_docs == 0:
        raise ValueError("cannot build an index over an empty corpus")
    avgdl = total_dl / n_docs

    # one merge task per bucket directory (shared-nothing: bucket
    # partitioning makes each task independent; idempotent
    # partition-named outputs allow re-runs to skip finished buckets).
    shutil.rmtree(os.path.join(out_dir, "postings"), ignore_errors=True)
    t0 = time.perf_counter()
    n_terms, n_postings = merge_partial_buckets(
        partials_dir, os.path.join(out_dir, "postings"), avgdl, k1, b)
    timings["merge"] = time.perf_counter() - t0

    if not keep_partials:
        shutil.rmtree(partials_dir, ignore_errors=True)

    stats = IndexStats(
        num_documents=n_docs,
        total_doc_len=total_dl,
        num_unique_terms=n_terms,
        num_postings=n_postings,
        k1=k1, b=b,
        doc_part_bits=doc_part_bits,
        num_term_buckets=num_term_buckets,
        num_segments=1,
        min_merge_avgdl=avgdl,
    )
    with open(os.path.join(out_dir, "stats.json"), "w") as f:
        json.dump(stats.__dict__, f, indent=1)
    return BuiltIndex(root=out_dir, stats=stats, timings=timings)


def extend_index(root: str, new_corpus: Dataset, *,
                 tokenize_batch_size: int = 256,
                 breaker=None, stemmer=None,
                 stopwords=None) -> BuiltIndex:
    """Incrementally add *new_corpus* to an existing index — LSM-style:
    the old postings are untouched; the new documents tokenize + spill +
    merge into ONE new segment file per bucket
    (``postings/bucket=*/segment_<gen>.parquet``) and new docs shards
    land beside the old ones. Tokenize and merge cost O(new docs) —
    never a re-tokenize or rewrite of the existing index. One cost does
    grow with the index: each touched bucket still reads its older
    segments' ``(term, df)`` columns once, to refresh its
    ``_df.parquet`` and count the bucket's vocabulary.

    Correctness under extension (all EXACT):
    - new docs get ids ``old_N + i`` (*new_corpus* must carry the dense
      0-based ids the corpus readers assign), so segment doc sets are
      disjoint and a doc contributes at most one posting per term —
      per-doc BM25 accumulation is unchanged;
    - query-time scores decode tf/dl from the segments and apply the
      CURRENT (N, avgdl, df) from stats.json, so scores equal a
      from-scratch build's bit-for-bit (pytest-pinned);
    - per-term df sums across segment rows at searcher load (the
      (term, part) sort + reduceat already does this);
    - block-max metadata frozen at each segment's merge-time avgdl stays
      a VALID upper bound via ``IndexStats.impact_correction``
      (tf_factor is increasing in avgdl at rate < linear).

    Breaker/stemmer/stopwords (and k1/b) must match the original build —
    they are not serialized in the index, so the caller owns that
    contract (same as ``LocalSearcher``)."""
    import shutil
    import time

    import pyarrow as pa

    old = BuiltIndex.load(root)
    st = old.stats
    # next_doc_id, not num_documents: after a deletion+compaction the id
    # space has holes and num_documents < the ceiling — reusing a live
    # id would silently alias two documents
    offset = st.next_doc_id
    gen = st.num_segments  # segment_1 is the first extension
    timings: dict[str, float] = {}

    def shift_ids(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pcc
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id",
            pcc.add(batch["doc_id"], offset))

    shifted = new_corpus.map_batches(shift_ids, batch_format="pyarrow")

    partials_dir = os.path.join(root, f"partials_ext{gen}")
    shutil.rmtree(partials_dir, ignore_errors=True)
    t0 = time.perf_counter()
    _tokenize_spill(shifted, partials_dir, st.doc_part_bits,
                    st.num_term_buckets, tokenize_batch_size,
                    breaker, stemmer, stopwords)
    timings["tokenize_spill"] = time.perf_counter() - t0

    meta_dir = os.path.join(partials_dir, "bucket=-1")
    if not os.path.isdir(meta_dir):
        raise ValueError("cannot extend with an empty corpus")
    t0 = time.perf_counter()
    n_new, dl_new = _write_docs_table(spill_files(meta_dir),
                                      os.path.join(root, "docs"),
                                      prefix=f"docs_g{gen}")
    timings["docs_table"] = time.perf_counter() - t0
    if n_new == 0:
        raise ValueError("cannot extend with an empty corpus")

    n_docs = st.num_documents + n_new
    total_dl = st.total_doc_len + dl_new
    avgdl = total_dl / n_docs  # the post-extension global avgdl

    t0 = time.perf_counter()
    postings_dir = os.path.join(root, "postings")
    # a PREVIOUS crashed attempt at this generation may have left
    # per-bucket segment_<gen> files + _SUCCESS markers; their marker
    # would short-circuit this run's merge and silently keep the old
    # attempt's data (possibly from a different corpus) — clear them
    _clear_generation(postings_dir, f"segment_{gen}")
    n_terms, n_postings = merge_partial_buckets(
        partials_dir, postings_dir, avgdl, st.k1, st.b,
        file_name=f"segment_{gen}.parquet")
    # each merge task counted its whole bucket (every segment); a bucket
    # whose terms got no new postings is untouched by the merge wave but
    # still owns vocabulary, so only those get a separate count
    merged_dirs = {d for d in os.listdir(partials_dir)
                   if d.startswith("bucket=") and d != "bucket=-1"}
    untouched = [os.path.join(postings_dir, d)
                 for d in sorted(os.listdir(postings_dir))
                 if d.startswith("bucket=") and d not in merged_dirs]
    u_terms, u_postings = _count_buckets(untouched)
    n_terms += u_terms
    n_postings += u_postings
    timings["merge"] = time.perf_counter() - t0
    shutil.rmtree(partials_dir, ignore_errors=True)

    old_min = st.min_merge_avgdl if st.min_merge_avgdl else st.avgdl
    stats = IndexStats(
        num_documents=n_docs,
        total_doc_len=total_dl,
        num_unique_terms=n_terms,
        num_postings=n_postings,
        k1=st.k1, b=st.b,
        doc_part_bits=st.doc_part_bits,
        num_term_buckets=st.num_term_buckets,
        num_segments=gen + 1,
        min_merge_avgdl=min(old_min, avgdl),
        id_ceiling=(offset + n_new if st.id_ceiling is not None else None),
    )
    with open(os.path.join(root, "stats.json"), "w") as f:
        json.dump(stats.__dict__, f, indent=1)
    return BuiltIndex(root=root, stats=stats, timings=timings)


def _tokenize_spill(corpus: Dataset, partials_dir: str, doc_part_bits: int,
                    num_term_buckets: int, batch_size: int,
                    breaker, stemmer, stopwords) -> Dataset:
    """Tokenize *corpus* into partial posting rows plus doc-meta rows
    and spill them under *partials_dir* through
    :class:`~..state.spill.SpillDatasink`, partitioned by term bucket.

    Both forms run in the stateless task pool on whole blocks (the
    tokenizer cuts them into *batch_size*-doc slices itself), so when the
    corpus read needs no block split — ``read_corpus`` sizes it so — the
    executor fuses read → tokenize → write into one task per read task:
    partials never transit the object store, every CPU serves every
    stage, and no CPU is pinned to an actor that would starve the read
    on a one-CPU cluster. The default breaker/stemmer with no stopwords
    uses the per-worker ``tokenize_task`` singleton; opaque user
    callables or a stopword set ship inside a ``TokenizePartials``
    instance. Returns the written Dataset (its ``stats()`` show the
    executed operators)."""
    if breaker is None and stemmer is None and stopwords is None:
        from ..stages.tokenizer import tokenize_task
        partials = corpus.map_batches(
            tokenize_task,
            fn_kwargs={"doc_part_bits": doc_part_bits,
                       "num_term_buckets": num_term_buckets,
                       "emit_meta": True, "batch_size": batch_size},
            batch_format="pyarrow", batch_size=None)
    else:
        partials = corpus.map_batches(
            TokenizePartials(doc_part_bits, num_term_buckets, breaker,
                             stemmer, True, stopwords, batch_size),
            batch_format="pyarrow", batch_size=None)
    partials.write_datasink(SpillDatasink(partials_dir))
    return partials


def _clear_generation(postings_dir: str, stem: str) -> None:
    """Remove every bucket's ``<stem>.parquet`` + ``_SUCCESS.<stem>``
    (leftovers of a crashed extension attempt at the same generation —
    their markers would make a retry with different data silently keep
    the stale segments)."""
    if not os.path.isdir(postings_dir):
        return
    for d in os.listdir(postings_dir):
        if not d.startswith("bucket="):
            continue
        for name in (f"{stem}.parquet", f"_SUCCESS.{stem}"):
            p = os.path.join(postings_dir, d, name)
            if os.path.exists(p):
                os.remove(p)


def _docs_from_meta_files(srcs: list[str], dest: str) -> tuple[int, int]:
    """One docs-table shard: a bundle of meta spill files → one docs
    parquet file. Returns (n_docs, total_doc_len) for the reduce."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..stages.tokenizer import meta_rows_to_docs

    docs = meta_rows_to_docs(read_spill(srcs))
    pq.write_table(docs, dest)
    dl = pc.sum(docs["doc_len"]).as_py() or 0
    return docs.num_rows, int(dl)


def _write_docs_table(files: list[str], docs_dir: str,
                      max_tasks: int = 32,
                      prefix: str = "docs") -> tuple[int, int]:
    """Fan bundled Ray tasks over the meta spill *files*; reduce
    (n_docs, total_doc_len). Bundling keeps the task count bounded —
    per-task driver dispatch is the non-scaling cost on one node.
    ``prefix`` namespaces extension generations' shards beside the
    originals."""
    import ray

    os.makedirs(docs_dir, exist_ok=True)
    n_bundles = max(1, min(len(files), max_tasks))
    task = ray.remote(_docs_from_meta_files)
    refs = []
    for b in range(n_bundles):
        lo = b * len(files) // n_bundles
        hi = (b + 1) * len(files) // n_bundles
        if hi <= lo:
            continue
        refs.append(task.remote(
            files[lo:hi],
            os.path.join(docs_dir, f"{prefix}_{b:05d}.parquet")))
    results = ray.get(refs)
    return sum(r[0] for r in results), sum(r[1] for r in results)


def sorted_member_mask(sorted_ref, ids):
    """Boolean mask over *ids*: membership in the ASCENDING unique
    array *sorted_ref* — the one searchsorted/minimum idiom behind
    every tombstone check (LocalSearcher, TermRoutedService, the
    forward index, the one-off query paths)."""
    import numpy as np
    if sorted_ref.size == 0 or ids.size == 0:
        return np.zeros(ids.size, dtype=bool)
    pos = np.searchsorted(sorted_ref, ids)
    return ((pos < sorted_ref.size)
            & (sorted_ref[np.minimum(pos, sorted_ref.size - 1)] == ids))


def load_tombstones(root: str):
    """Sorted unique tombstoned doc_ids (empty array if none). Every
    tombstone generation file under ``root/tombstones/`` unions in —
    the set is bounded by deletions, the small side by contract."""
    import numpy as np
    import pyarrow.parquet as pq

    tdir = os.path.join(root, "tombstones")
    if not os.path.isdir(tdir):
        return np.empty(0, dtype=np.int64)
    arrays = []
    for f in sorted(os.listdir(tdir)):
        if f.endswith(".parquet") and not f.startswith((".", "_")):
            arrays.append(pq.read_table(os.path.join(tdir, f))["doc_id"]
                          .to_numpy(zero_copy_only=False))
    if not arrays:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(arrays).astype(np.int64))


def delete_docs(root: str, doc_ids) -> BuiltIndex:
    """Mark *doc_ids* deleted — the Lucene-style visibility/statistics
    split: deleted docs become invisible to every query surface
    immediately (searchers load the tombstone set and filter results;
    deletion beats pinning), while corpus statistics (N, avgdl, df,
    block-max bounds) stay FROZEN until :func:`compact_index` purges
    the postings and docs table and recomputes them. Cost is O(ids):
    one appended tombstone generation file, atomic tmp+rename,
    idempotent under re-delete. Deleting an id that was never indexed
    is a no-op by construction. Works on ANY index root with a
    stats.json — the main index and the positional index share the
    tombstone layout (both searchers load it). Returns the BuiltIndex
    for main-index roots, None for other index kinds."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    if not os.path.exists(os.path.join(root, "stats.json")):
        raise FileNotFoundError(f"no index at {root!r} (missing stats.json)")
    try:
        idx = BuiltIndex.load(root)
    except TypeError:  # a positional (or other) index's stats schema
        idx = None
    ids = np.unique(np.asarray(sorted(set(int(d) for d in doc_ids)),
                               dtype=np.int64))
    if ids.size == 0:
        return idx
    tdir = os.path.join(root, "tombstones")
    os.makedirs(tdir, exist_ok=True)
    gen = len([f for f in os.listdir(tdir) if f.endswith(".parquet")])
    tmp = os.path.join(tdir, f".gen_{gen}.{os.getpid()}.tmp")
    pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64())}),
                   tmp)
    os.replace(tmp, os.path.join(tdir, f"gen_{gen:05d}.parquet"))
    return idx


def upsert_docs(root: str, replace_doc_ids, new_corpus: Dataset,
                **extend_kwargs) -> BuiltIndex:
    """UPDATE = re-add under FRESH ids + delete (the LSM upsert): the
    replacements land as a new segment at O(new docs) cost, THEN the
    replaced ids are tombstoned (immediately invisible, statistics
    frozen) — extend-before-delete, so a failing extension (empty or
    malformed corpus) changes nothing instead of half-committing a
    destructive delete. Ids are never reused (``id_ceiling``), so
    readers holding old ids can still distinguish "deleted" from
    "replaced by". ``compact_index`` later purges the tombstones and
    recomputes statistics. *new_corpus* carries dense 0-based ids like
    any corpus (extend shifts them past the ceiling).
    Breaker/stemmer/stopwords (passed through to ``extend_index``) must
    match the original build (same contract as ``extend_index``)."""
    ceiling = BuiltIndex.load(root).stats.next_doc_id
    ids = sorted(set(int(d) for d in replace_doc_ids))
    if ids and ids[-1] >= ceiling:
        raise ValueError(
            f"replace_doc_ids contains id {ids[-1]} >= the id ceiling "
            f"{ceiling} — only existing docs can be replaced")
    out = extend_index(root, new_corpus, **extend_kwargs)
    delete_docs(root, ids)
    return out


def _purge_one_docs_shard(path: str, tombs) -> tuple[int, int]:
    """Rewrite one docs shard without tombstoned rows (to ``.purge.tmp``
    beside it — the caller swaps after every bucket compacted). Returns
    the surviving (n_docs, total_doc_len)."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    tbl = pq.read_table(path)
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    pos = np.searchsorted(tombs, ids)
    dead = (pos < len(tombs)) & (tombs[np.minimum(pos, len(tombs) - 1)]
                                 == ids)
    if dead.any():
        tbl = tbl.filter(~dead)
    pq.write_table(tbl, path + ".purge.tmp")
    dl = pc.sum(tbl["doc_len"]).as_py() or 0
    return tbl.num_rows, int(dl)


def _compact_one_bucket(dest: str, avgdl: float, k1: float,
                        b: float, tombs=None) -> tuple[int, int]:
    """Rewrite one bucket's segment files as a single fresh
    ``merged.parquet`` (block-max metadata recomputed at the CURRENT
    avgdl). Decode → partial-shaped rows → the ordinary bucket merge; no
    re-tokenize. Two-phase commit: the compacted table lands in
    ``.compact.tmp`` before any visible file is removed, so a crash at
    any point leaves either the old segments or a finishable tmp —
    re-running compacts/finishes idempotently.

    ``tombs`` (sorted np.int64) PURGES those doc_ids from every posting
    while rewriting — rows whose doc list empties are dropped, df and
    block-max recompute from the survivors (delete_docs purge path)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.tokenizer import merge_bucket_table
    from ..state import postings as plib

    try:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
    except Exception:
        pass

    tmp = os.path.join(dest, ".compact.tmp")
    seg_files = [os.path.join(dest, f) for f in sorted(os.listdir(dest))
                 if f.endswith(".parquet") and not f.startswith((".", "_"))]
    if seg_files:
        tbls = [pq.read_table(f) for f in seg_files]
        rows = pa.concat_tables(tbls).combine_chunks()
        # one vectorized varint pass over each whole column — no per-row
        # decode (r3 open thread: batched segment decode)
        ids_flat, ids_off = plib.decode_doc_ids_column(rows["doc_ids_enc"])
        tfs_flat, tfs_off = plib.decode_varints_column(rows["tfs_enc"])
        dls_flat, dls_off = plib.decode_varints_column(rows["dls_enc"])
        if tombs is not None and len(tombs) and len(ids_flat):
            # per-posting keep mask (tfs/dls share the doc segmenting),
            # per-row surviving counts via reduceat over the row starts,
            # rows with no survivors dropped below via the table filter
            tombs = np.asarray(tombs, dtype=np.int64)
            pos = np.searchsorted(tombs, ids_flat)
            dead = ((pos < len(tombs))
                    & (tombs[np.minimum(pos, len(tombs) - 1)] == ids_flat))
            keep = ~dead
            off = np.asarray(ids_off, dtype=np.int64)
            new_counts = np.add.reduceat(keep.astype(np.int64), off[:-1])
            new_counts[np.diff(off) == 0] = 0  # reduceat quirk guard
            ids_flat = ids_flat[keep]
            tfs_flat = tfs_flat[keep]
            dls_flat = dls_flat[keep]
            new_off = np.zeros(len(new_counts) + 1, dtype=np.int64)
            np.cumsum(new_counts, out=new_off[1:])
            ids_off = tfs_off = dls_off = new_off
            alive_rows = new_counts > 0
        else:
            alive_rows = None
        partial = pa.table({
            "term": rows["term"],
            "part": rows["part"],
            "doc_ids": pa.LargeListArray.from_arrays(
                pa.array(ids_off, type=pa.int64()),
                pa.array(ids_flat, type=pa.int64())),
            "tfs": pa.LargeListArray.from_arrays(
                pa.array(tfs_off, type=pa.int64()),
                pa.array(tfs_flat, type=pa.int64())),
            "dls": pa.LargeListArray.from_arrays(
                pa.array(dls_off, type=pa.int64()),
                pa.array(dls_flat, type=pa.int64())),
        })
        if alive_rows is not None:
            partial = partial.filter(pa.array(alive_rows))
        if partial.num_rows:
            merged = merge_bucket_table(partial, avgdl, k1, b)
        else:
            # every posting in this bucket was tombstoned
            merged = pa.table({
                "term": pa.array([], type=pa.string()),
                "part": pa.array([], type=pa.int32()),
                "df": pa.array([], type=pa.int64()),
                "doc_ids_enc": pa.array([], type=pa.large_binary()),
                "tfs_enc": pa.array([], type=pa.large_binary()),
                "dls_enc": pa.array([], type=pa.large_binary()),
                "max_impact": pa.array([], type=pa.float64()),
            })
        pq.write_table(merged, tmp)
        # visible-state swap: markers first (invalidate), then segments
        for f in sorted(os.listdir(dest)):
            if f.startswith("_SUCCESS"):
                os.remove(os.path.join(dest, f))
        for f in seg_files:
            os.remove(f)
        fresh = ("merged.parquet", merged)
    elif not os.path.exists(tmp):
        raise FileNotFoundError(f"nothing to compact in {dest}")
    else:
        fresh = None  # finishing a crashed run: the tmp is read back
    os.replace(tmp, os.path.join(dest, "merged.parquet"))
    open(os.path.join(dest, "_SUCCESS"), "w").close()
    return _count_one_bucket(dest, fresh)


def compact_index(root: str) -> BuiltIndex:
    """Collapse an extended index's segments back to one file per bucket
    and reset ``min_merge_avgdl`` to the current avgdl — restores the
    tightest block-max pruning after a run of :func:`extend_index` calls
    (the LSM compaction step). Query results are unchanged (pytest-pinned
    bit-identical); only the pruning bound tightens.

    If :func:`delete_docs` tombstones exist, compaction also PURGES
    them: tombstoned postings drop from every bucket, the docs table
    drops those rows, and N / total_doc_len / df / block-max recompute
    from the survivors — queries afterwards equal an oracle built over
    only the surviving documents (pytest-pinned). The tombstone files
    clear last, so a crash mid-purge re-runs to the same state. Doc ids
    are NEVER reassigned (holes are fine; ``IndexStats.id_ceiling``
    keeps the next extend collision-free)."""
    import numpy as np
    import ray

    old = BuiltIndex.load(root)
    st = old.stats
    postings_dir = os.path.join(root, "postings")
    tombs = load_tombstones(root)
    total_cpus = int(ray.cluster_resources().get("CPU", 8))
    per_task_cpus = max(1, total_cpus // 16)

    if tombs.size:
        # surviving docs table first — its reduce is the post-purge
        # (N, total_doc_len) the bucket rewrites price their block-max
        # metadata with
        docs_dir = os.path.join(root, "docs")
        shard_paths = [os.path.join(docs_dir, f)
                       for f in sorted(os.listdir(docs_dir))
                       if f.endswith(".parquet")
                       and not f.startswith((".", "_"))]
        tombs_ref = ray.put(tombs)
        purge_task = ray.remote(_purge_one_docs_shard)
        doc_results = ray.get([purge_task.remote(p, tombs_ref)
                               for p in shard_paths])
        n_docs = sum(r[0] for r in doc_results)
        total_dl = sum(r[1] for r in doc_results)
        if n_docs == 0:
            raise ValueError("compacting these tombstones would delete "
                             "every document in the index")
        avgdl = total_dl / n_docs
    else:
        tombs_ref = None
        n_docs, total_dl, avgdl = (st.num_documents, st.total_doc_len,
                                   st.avgdl)

    task = ray.remote(num_cpus=per_task_cpus)(_compact_one_bucket)
    refs = [task.remote(os.path.join(postings_dir, d), avgdl, st.k1,
                        st.b, tombs_ref)
            for d in sorted(os.listdir(postings_dir))
            if d.startswith("bucket=")]
    results = ray.get(refs)

    if tombs.size:
        # visible-state swap in dependency order: docs shards, stats,
        # then tombstones last — a crash before the tombstone removal
        # re-runs the purge idempotently (purging already-purged
        # postings is a no-op)
        for p in shard_paths:
            os.replace(p + ".purge.tmp", p)
        id_ceiling = st.next_doc_id
    else:
        id_ceiling = st.id_ceiling

    stats = IndexStats(
        num_documents=n_docs,
        total_doc_len=total_dl,
        num_unique_terms=sum(r[0] for r in results),
        num_postings=sum(r[1] for r in results),
        k1=st.k1, b=st.b,
        doc_part_bits=st.doc_part_bits,
        num_term_buckets=st.num_term_buckets,
        num_segments=1,
        min_merge_avgdl=avgdl,
        id_ceiling=id_ceiling,
    )
    with open(os.path.join(root, "stats.json"), "w") as f:
        json.dump(stats.__dict__, f, indent=1)
    if tombs.size:
        import shutil
        shutil.rmtree(os.path.join(root, "tombstones"), ignore_errors=True)
    return BuiltIndex(root=root, stats=stats)


def _write_bucket_df(dest: str, term_df: "pa.Table") -> "pa.Table":
    """Persist the bucket's GLOBAL per-term df as ``_df.parquet``
    (term-ascending (term, df), df summed over every part and segment).
    A term lives in exactly one bucket, so concatenating these files
    yields the global df table — ``serve.SearchService`` reads them
    column-pruned instead of rebuilding a vocab-sized Python dict from
    the full postings metadata (VERDICT r3 #5). The ``_`` prefix keeps
    the file invisible to the hive-partitioned postings dataset scan.
    Atomic (unique tmp + rename) and idempotent — concurrent recounts of
    the same bucket write identical bytes. Returns the written table."""
    import pyarrow.parquet as pq
    agg = (term_df.group_by("term").aggregate([("df", "sum")])
           .rename_columns(["term", "df"]).sort_by("term"))
    tmp = os.path.join(dest, f"._df.{os.getpid()}.tmp")
    pq.write_table(agg, tmp)
    os.replace(tmp, os.path.join(dest, "_df.parquet"))
    return agg


def _count_one_bucket(dest: str, fresh=None) -> tuple[int, int]:
    """(distinct terms, Σ df) over every segment file of one bucket dir,
    from the two tiny dictionary-encoded ``(term, df)`` columns. Also
    refreshes the bucket's persisted ``_df.parquet`` from the same
    columns (the counting sites — merge, extend, compact, recount — are
    exactly the moments the bucket's df table may have changed).

    ``fresh = (file name, table)`` is a segment the caller has just
    written: its columns come from that in-memory table, and only the
    bucket's other segments are read."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    seg_files = [os.path.join(dest, f) for f in sorted(os.listdir(dest))
                 if f.endswith(".parquet") and not f.startswith((".", "_"))]
    parts = []
    if fresh is not None:
        name, tbl = fresh
        seg_files.remove(os.path.join(dest, name))
        parts.append(tbl.select(["term", "df"]))
    if seg_files or fresh is None:
        parts.append(pads.dataset(seg_files).to_table(columns=["term", "df"]))
    agg = _write_bucket_df(dest, pa.concat_tables(parts))
    return agg.num_rows, int(pc.sum(agg["df"]).as_py() or 0)


def _count_buckets(bucket_dirs: list[str]) -> tuple[int, int]:
    """Parallel per-bucket (terms, postings) count; sums are global
    because every term lives in exactly one bucket."""
    import ray
    task = ray.remote(_count_one_bucket)
    results = ray.get([task.remote(d) for d in bucket_dirs])
    return sum(r[0] for r in results), sum(r[1] for r in results)


def maybe_compact(root: str, *, max_segments: int = 4,
                  max_tombstone_fraction: float = 0.2
                  ) -> tuple[bool, "BuiltIndex"]:
    """Tiered compaction policy — the LSM maintenance decision a
    recurring ingestion runs after each :func:`extend_index` /
    :func:`delete_docs` batch: compact when the segment count exceeds
    *max_segments* (every query's per-bucket merge scan touches every
    segment, so read amplification grows linearly with segments) or
    when tombstones exceed *max_tombstone_fraction* of the indexed
    documents (every match/score call filters them, and statistics
    stay frozen at pre-delete values until a purge). Returns
    ``(compacted, index)`` — the policy check itself is metadata-only
    (stats.json + tombstone id count; no postings are read)."""
    idx = BuiltIndex.load(root)
    st = idx.stats
    tombs = load_tombstones(root)
    trigger = (st.num_segments > max_segments
               or (st.num_documents > 0
                   and tombs.size / st.num_documents
                   > max_tombstone_fraction))
    if trigger:
        return True, compact_index(root)
    return False, idx


def _merge_one_bucket(bucket_dirs: list[str], out_dir: str, bucket: int,
                      avgdl: float, k1: float, b: float,
                      file_name: str = "merged.parquet") -> tuple[int, int]:
    """Merge one bucket's partial files into one postings segment file.
    Returns (distinct terms, total postings) over the WHOLE bucket
    directory — all segments, so extensions report union vocabulary and
    total postings (a term lives in exactly one bucket, so per-bucket
    distinct counts sum globally). Idempotent: writes to a temp file and
    renames; a per-segment ``_SUCCESS.<file>`` marker short-circuits
    re-runs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.tokenizer import merge_bucket_table

    # many merge tasks run concurrently, each in its own worker process
    # whose arrow pool defaults to ALL cores — 64 tasks x 32 threads
    # thrashes the (slow) memory bus into inverse scaling; one thread per
    # task is the right shape when the task level is already parallel
    try:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
    except Exception:
        pass

    dest = os.path.join(out_dir, f"bucket={bucket}")
    stem = file_name.rsplit(".", 1)[0]
    marker = os.path.join(dest, ("_SUCCESS" if file_name == "merged.parquet"
                                 else f"_SUCCESS.{stem}"))
    fresh = None
    if not os.path.exists(marker):
        part_tbl = read_spill([f for d in bucket_dirs
                               for f in spill_files(d)])
        merged = merge_bucket_table(part_tbl, avgdl, k1, b)
        os.makedirs(dest, exist_ok=True)
        tmp = os.path.join(dest, f".{file_name}.tmp")
        pq.write_table(merged, tmp)
        os.replace(tmp, os.path.join(dest, file_name))
        open(marker, "w").close()
        fresh = (file_name, merged)
    # persisted global df (VERDICT r3 #5); the segment just written is
    # counted from memory, so only older segments are read
    return _count_one_bucket(dest, fresh)


def merge_partial_buckets(partials_dir: str, postings_dir: str,
                          avgdl: float, k1: float, b: float,
                          file_name: str = "merged.parquet") -> tuple[int, int]:
    """Launch one Ray task per ``bucket=*`` partial directory and reduce
    their (n_terms, n_postings) counters. Raw ``ray.remote`` tasks by
    design: the data is already partitioned on disk, so this is a
    shared-nothing per-partition job — a Dataset ``groupby`` here would
    re-shuffle data that is already placed (SURVEY.md §7; every term
    lives in exactly one bucket, so per-bucket distinct-term counts sum
    to the global count)."""
    import ray

    os.makedirs(postings_dir, exist_ok=True)
    # discover bucket=<i> dirs (directly under partials_dir, or nested
    # one level down under shard=<s>/ for the checkpointed build)
    by_bucket: dict[int, list[str]] = {}

    def scan(d: str) -> None:
        for name in sorted(os.listdir(d)):
            p = os.path.join(d, name)
            if not os.path.isdir(p):
                continue
            if name.startswith("bucket="):
                bucket = int(name.split("=", 1)[1])
                if bucket >= 0:
                    by_bucket.setdefault(bucket, []).append(p)
            elif name.startswith("shard="):
                scan(p)

    scan(partials_dir)
    # Bucket merges are memory-bandwidth-bound (read+flatten+sort), not
    # CPU-bound: beyond ~16 concurrent streams per node the bus thrashes
    # and the wave runs SLOWER (measured 5.1 s at 32 concurrent vs 2.3 s
    # at 16 on this VM). Price each task so at most ~16 run per node.
    total_cpus = int(ray.cluster_resources().get("CPU", 8))
    per_task_cpus = max(1, total_cpus // 16)
    merge_task = ray.remote(num_cpus=per_task_cpus)(_merge_one_bucket)
    refs = [merge_task.remote(dirs, postings_dir, bucket, avgdl, k1, b,
                              file_name)
            for bucket, dirs in sorted(by_bucket.items())]
    results = ray.get(refs)
    n_terms = sum(r[0] for r in results)
    n_postings = sum(r[1] for r in results)
    return n_terms, n_postings


def _shift_docs_shard(src: str, dest: str, offset: int) -> None:
    """Copy one docs shard with ``doc_id += offset`` (shard-merge path)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    tbl = pq.read_table(src)
    i = tbl.schema.get_field_index("doc_id")
    tbl = tbl.set_column(i, "doc_id", pc.add(tbl["doc_id"], offset))
    pq.write_table(tbl, dest)


def _merge_shards_one_bucket(srcs: list[tuple[str, int]], dest: str,
                             doc_part_bits: int,
                             avgdl: float, k1: float,
                             b: float) -> tuple[int, int]:
    """Merge one term bucket across shard indexes: decode every shard's
    segment rows, shift doc ids by the shard's offset, RE-SPLIT rows at
    the shifted part boundaries (part = doc_id >> doc_part_bits changes
    under a shift that is not part-aligned), then one ordinary
    ``merge_bucket_table`` pass prices df/block-max at the merged avgdl.
    *srcs* = (shard bucket dir, id offset); dirs may be missing (a shard
    whose vocabulary never hashed into this bucket)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..stages.tokenizer import merge_bucket_table
    from ..state import postings as plib

    try:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
    except Exception:
        pass

    partials = []
    for src, offset in srcs:
        if not os.path.isdir(src):
            continue
        seg_files = [os.path.join(src, f) for f in sorted(os.listdir(src))
                     if f.endswith(".parquet")
                     and not f.startswith((".", "_"))]
        if not seg_files:
            continue
        rows = pa.concat_tables(
            [pq.read_table(f) for f in seg_files]).combine_chunks()
        ids_flat, off = plib.decode_doc_ids_column(rows["doc_ids_enc"])
        tfs_flat, _ = plib.decode_varints_column(rows["tfs_enc"])
        dls_flat, _ = plib.decode_varints_column(rows["dls_enc"])
        if len(ids_flat) == 0:
            continue
        off = np.asarray(off, dtype=np.int64)
        ids_flat = ids_flat + offset
        parts_flat = (ids_flat >> doc_part_bits).astype(np.int64)
        row_of = np.repeat(np.arange(rows.num_rows, dtype=np.int64),
                           np.diff(off))
        change = np.ones(len(ids_flat), dtype=bool)
        change[1:] = ((row_of[1:] != row_of[:-1])
                      | (parts_flat[1:] != parts_flat[:-1]))
        starts = np.flatnonzero(change)
        new_off = np.append(starts, len(ids_flat)).astype(np.int64)
        parent = pa.array(row_of[starts])
        partials.append(pa.table({
            "term": rows["term"].take(parent),
            "part": pa.array(parts_flat[starts].astype(np.int32)),
            "doc_ids": pa.LargeListArray.from_arrays(
                pa.array(new_off), pa.array(ids_flat)),
            "tfs": pa.LargeListArray.from_arrays(
                pa.array(new_off), pa.array(tfs_flat)),
            "dls": pa.LargeListArray.from_arrays(
                pa.array(new_off), pa.array(dls_flat)),
        }))
    os.makedirs(dest, exist_ok=True)
    if partials:
        merged = merge_bucket_table(
            pa.concat_tables(partials).combine_chunks(), avgdl, k1, b)
        tmp = os.path.join(dest, ".shardmerge.tmp")
        pq.write_table(merged, tmp)
        os.replace(tmp, os.path.join(dest, "merged.parquet"))
        open(os.path.join(dest, "_SUCCESS"), "w").close()
        return _count_one_bucket(dest, ("merged.parquet", merged))
    return 0, 0


def merge_index_roots(roots: list[str], out_dir: str) -> BuiltIndex:
    """Merge independently built SHARD indexes into one index at
    *out_dir* — the distributed build lifecycle's reduce step: build K
    shards over K corpus slices in parallel (each with its own dense
    0-based ids), then merge at O(total postings) decode + re-encode
    cost with NO re-tokenize (tokenize dominates a build ~3:1).

    Shard k's doc ids are re-based by the cumulative ``next_doc_id`` of
    the shards before it, so for dense (never-purged) shards the merged
    index is BIT-IDENTICAL — postings, stats, query results — to a
    fresh build over the concatenated corpus (pytest-pinned). Contracts:
    every shard must share (doc_part_bits, num_term_buckets, k1, b) and
    carry no tombstones (run :func:`compact_index` first); the same
    breaker/stemmer must have built every shard (not serialized — the
    caller owns that, same as ``extend_index``)."""
    import numpy as np
    import ray

    if not roots:
        raise ValueError("merge_index_roots needs at least one shard")
    shards = [BuiltIndex.load(r) for r in roots]
    first = shards[0].stats
    for s in shards[1:]:
        st = s.stats
        if (st.doc_part_bits, st.num_term_buckets, st.k1, st.b) != \
                (first.doc_part_bits, first.num_term_buckets,
                 first.k1, first.b):
            raise ValueError(
                "shard config mismatch: every shard must share "
                "(doc_part_bits, num_term_buckets, k1, b)")
    for s in shards:
        if load_tombstones(s.root).size:
            raise ValueError(
                f"shard {s.root} has tombstones — compact_index it "
                "before merging")

    offsets = [0]
    for s in shards[:-1]:
        offsets.append(offsets[-1] + s.stats.next_doc_id)
    n_docs = sum(s.stats.num_documents for s in shards)
    total_dl = sum(s.stats.total_doc_len for s in shards)
    avgdl = total_dl / n_docs

    os.makedirs(out_dir, exist_ok=True)
    docs_dir = os.path.join(out_dir, "docs")
    os.makedirs(docs_dir, exist_ok=True)
    shift_task = ray.remote(_shift_docs_shard)
    doc_refs = []
    for k, (s, offset) in enumerate(zip(shards, offsets)):
        for f in sorted(os.listdir(s.docs_dir)):
            if f.endswith(".parquet") and not f.startswith((".", "_")):
                doc_refs.append(shift_task.remote(
                    os.path.join(s.docs_dir, f),
                    os.path.join(docs_dir, f"docs_s{k:03d}_{f}"), offset))

    postings_dir = os.path.join(out_dir, "postings")
    buckets = sorted({d for s in shards
                      for d in os.listdir(os.path.join(s.root, "postings"))
                      if d.startswith("bucket=")})
    total_cpus = int(ray.cluster_resources().get("CPU", 8))
    per_task_cpus = max(1, total_cpus // 16)
    task = ray.remote(num_cpus=per_task_cpus)(_merge_shards_one_bucket)
    refs = [task.remote(
        [(os.path.join(s.root, "postings", d), off)
         for s, off in zip(shards, offsets)],
        os.path.join(postings_dir, d), first.doc_part_bits, avgdl,
        first.k1, first.b)
        for d in buckets]
    results = ray.get(refs)
    ray.get(doc_refs)

    dense = all(s.stats.id_ceiling is None for s in shards)
    stats = IndexStats(
        num_documents=n_docs,
        total_doc_len=total_dl,
        num_unique_terms=sum(r[0] for r in results),
        num_postings=sum(r[1] for r in results),
        k1=first.k1, b=first.b,
        doc_part_bits=first.doc_part_bits,
        num_term_buckets=first.num_term_buckets,
        num_segments=1,
        min_merge_avgdl=avgdl,
        id_ceiling=None if dense
        else offsets[-1] + shards[-1].stats.next_doc_id,
    )
    with open(os.path.join(out_dir, "stats.json"), "w") as f:
        json.dump(stats.__dict__, f, indent=1)
    return BuiltIndex(root=out_dir, stats=stats)


def export_postings(index_root: str):
    """Decode the index back to its LOGICAL (term, doc_id, tf) triples
    as a streaming ``ray.data.Dataset`` — the interchange dump (feed it
    to another engine, diff two indexes, or re-derive any statistic in
    SQL). One distributed pass over the bucket-sharded posting files:
    each batch decodes its varint columns with the vectorized column
    kernels and explodes via offsets (no per-posting Python); tombstoned
    docs are dropped so the export equals the index's query-visible
    contents. Output order is unspecified (it's a set of triples);
    ``.write_parquet`` it for a resumable on-disk dump."""
    import numpy as np
    import ray.data as rd

    index = BuiltIndex.load(index_root)
    tomb = load_tombstones(index_root)

    def explode(batch: "pa.Table") -> "pa.Table":
        import numpy as np
        import pyarrow as pa

        from ..state import postings as plib
        ids_flat, off = plib.decode_doc_ids_column(batch["doc_ids_enc"])
        tfs_flat, _ = plib.decode_varints_column(batch["tfs_enc"])
        if len(ids_flat) == 0:
            return pa.table({
                "term": pa.array([], type=pa.string()),
                "doc_id": pa.array([], type=pa.int64()),
                "tf": pa.array([], type=pa.int64()),
            })
        counts = np.diff(np.asarray(off, dtype=np.int64))
        parent = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                           counts)
        ids_flat = np.asarray(ids_flat, dtype=np.int64)
        tfs_flat = np.asarray(tfs_flat, dtype=np.int64)
        if tomb.size:
            pos = np.searchsorted(tomb, ids_flat)
            dead = ((pos < tomb.size)
                    & (tomb[np.minimum(pos, tomb.size - 1)] == ids_flat))
            if dead.any():
                keep = ~dead
                ids_flat, tfs_flat = ids_flat[keep], tfs_flat[keep]
                parent = parent[keep]
        return pa.table({
            "term": batch["term"].take(pa.array(parent)),
            "doc_id": pa.array(ids_flat, type=pa.int64()),
            "tf": pa.array(tfs_flat, type=pa.int64()),
        })

    ds = rd.read_parquet(index.postings_dir,
                         columns=["term", "doc_ids_enc", "tfs_enc"])
    return ds.map_batches(explode, batch_format="pyarrow")
