"""Distributed index build: corpus Dataset → compressed postings + docs
table + global stats, all Parquet under one index root.

Ray-Data-first shape (SURVEY.md §3.1 "Ray shape", §7):

  corpus ─read → TokenizePartials(emit_meta=True) → SpillDatasink ─ ONE
               fused task per read task: partial posting rows + per-doc
               metadata rows ► partials/bucket=*/<task>.arrow
               (metadata rows land under bucket=-1)
  bucket=-1 ── bundled docs tasks ────────► docs/  (doc_id, sha256, …)
               + (N, avgdl) reduce
  bucket>=0 ── one bucket wave ───────────► postings/bucket=* (+ counters)
  counters ─── one atomic commit ─────────► stats.json  (BM25 globals)

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

One write path serves every index writer: the five of the main index
and the three of the positional index (``pipelines/positional.py``).
``build_index``, ``extend_index`` and the checkpointed
``finalize_index`` hand their spill to ``_write_generation`` (docs table
→ empty-corpus check → merge wave). ``compact_index`` and
``merge_index_roots`` decode existing segments back into partial rows
(``_segment_rows``). Every bucket task runs in one priced wave
(``_bucket_wave``) and ends in the one bucket writer (``_write_bucket``:
encoded table → tmp → rename → marker → count), which never looks at
the index format: each kind passes its own encoded table. Compaction of
either kind swaps each bucket through ``.compact.tmp``; a swap a crash
interrupted after its commit point is finished by the next load of the
index (``_finish_swaps``). Every main-index writer ends in the one
atomic ``stats.json`` commit (``_commit``), so a failed write leaves the
previous stats readable.

Index root layout (Parquet + one JSON):
  root/docs/*.parquet     root/postings/bucket=*/merged.parquet
  root/stats.json         (root/partials/bucket=*/*.arrow during the build)
  (extensions add docs/docs_g<g>_* and postings/bucket=*/segment_<g>.parquet)
  each bucket dir also holds _df.parquet (its per-term df), a _SUCCESS
  marker per segment, and .compact.tmp while a compaction swaps it
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
from ray.data import Dataset

from ..oracle.index import BM25_B, BM25_K1
from ..stages.tokenizer import (DEFAULT_DOC_PART_BITS, TokenizePartials,
                                merge_bucket_table)
from ..state import postings as plib
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
        _finish_swaps(root)
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
    # ONE corpus pass — tokenize emits partial posting rows AND per-doc
    # metadata rows (sha256/doc_len, ``bucket = -1``) in the same stream,
    # spilled partitioned by term bucket. This replaces an
    # in-object-store groupby shuffle with a shuffle-free partitioned
    # write: each tokenize task writes one LZ4 Arrow IPC file under every
    # bucket directory it touched. The combined stream halves corpus
    # reads vs the r1 two-pass layout and keeps doc_len on the same
    # breaker as the postings.
    partials_dir = os.path.join(out_dir, "partials")
    shutil.rmtree(partials_dir, ignore_errors=True)
    t0 = time.perf_counter()
    _tokenize_spill(corpus, partials_dir, doc_part_bits, num_term_buckets,
                    tokenize_batch_size, breaker, stemmer, stopwords)
    timings = {"tokenize_spill": time.perf_counter() - t0}
    return _write_generation(
        out_dir, partials_dir, [os.path.join(partials_dir, "bucket=-1")],
        _no_docs(k1, b, doc_part_bits, num_term_buckets), timings,
        keep_partials=keep_partials)


def extend_index(root: str, new_corpus: Dataset, *,
                 tokenize_batch_size: int = 256,
                 breaker=None, stemmer=None,
                 stopwords=None) -> BuiltIndex:
    """Incrementally add *new_corpus* to an existing index — LSM-style:
    the old postings are untouched. The new documents tokenize + spill,
    then run the build's own write path as generation ``g`` (the index's
    current ``num_segments``): new docs shards ``docs/docs_g<g>_*`` land
    beside the old ones, one bucket wave writes ONE new segment file per
    touched bucket (``postings/bucket=*/segment_<g>.parquet``), and the
    new stats.json is committed atomically last. Tokenize and merge cost
    O(new docs) — never a re-tokenize or rewrite of the existing index.
    One cost does grow with the index: each bucket still reads its older
    segments' ``(term, df)`` columns once, to refresh its ``_df.parquet``
    and count the bucket's vocabulary (buckets the new docs left
    untouched are only counted).

    Correctness under extension (all EXACT):
    - new docs get ids ``next_doc_id + i`` (*new_corpus* must carry the
      dense 0-based ids the corpus readers assign), so segment doc sets
      are disjoint and a doc contributes at most one posting per term —
      per-doc BM25 accumulation is unchanged; ``next_doc_id``, not
      ``num_documents``: after a purge the id space has holes, and
      reusing a live id would silently alias two documents;
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
    st = BuiltIndex.load(root).stats
    offset = st.next_doc_id

    def shift_ids(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id",
            pc.add(batch["doc_id"], offset))

    partials_dir = os.path.join(root, f"partials_ext{st.num_segments}")
    shutil.rmtree(partials_dir, ignore_errors=True)
    t0 = time.perf_counter()
    _tokenize_spill(new_corpus.map_batches(shift_ids,
                                           batch_format="pyarrow"),
                    partials_dir, st.doc_part_bits, st.num_term_buckets,
                    tokenize_batch_size, breaker, stemmer, stopwords)
    timings = {"tokenize_spill": time.perf_counter() - t0}
    return _write_generation(
        root, partials_dir, [os.path.join(partials_dir, "bucket=-1")], st,
        timings)


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


# ------------------------------------------------------ the write path


def _no_docs(k1: float, b: float, doc_part_bits: int,
             num_term_buckets: int) -> IndexStats:
    """The ``prior`` of a fresh build: no documents, no generation."""
    return IndexStats(0, 0, 0, 0, k1, b, doc_part_bits, num_term_buckets,
                      num_segments=0)


def _write_generation(root: str, partials_dir: str, meta_dirs: list[str],
                      prior: IndexStats, timings: dict, *,
                      keep_partials: bool = False,
                      expect: tuple[int, int] | None = None) -> BuiltIndex:
    """The docs + postings phases of every spill-fed writer, then the
    commit. Adds generation ``g = prior.num_segments`` to the index at
    *root*: ``g = 0`` (``prior = _no_docs(...)``) replaces ``docs/`` and
    ``postings/`` with ``docs_*`` shards and one ``merged.parquet`` per
    bucket; ``g > 0`` (``prior`` = the index being extended) adds
    ``docs_g<g>_*`` shards and one ``segment_<g>.parquet`` per touched
    bucket.

    The docs table is written from the doc-meta spill files under
    *meta_dirs*; its reduce gives the new (docs, doc length), which
    ``expect`` (a checkpoint manifest's sums), when given, must equal.
    A spill without doc-meta rows raises before anything is removed. The
    bucket wave then prices df and block-max metadata at the post-write
    (N, avgdl).
    Fills ``timings["docs_table"]`` and ``timings["merge"]``."""
    gen = prior.num_segments
    docs_dir = os.path.join(root, "docs")
    postings_dir = os.path.join(root, "postings")
    meta_files = [f for d in meta_dirs if os.path.isdir(d)
                  for f in spill_files(d)]
    empty = ("cannot extend with an empty corpus" if gen
             else "cannot build an index over an empty corpus")
    if not meta_files:
        raise ValueError(empty)
    if gen == 0:
        shutil.rmtree(docs_dir, ignore_errors=True)
        shutil.rmtree(postings_dir, ignore_errors=True)

    # docs table + doc stats from the (small, content-free) metadata
    # partition — raw Ray tasks over bundles of meta files (a Dataset
    # read→map→write→read→aggregate here costs ~2 s of fixed job-launch
    # overhead per build, dwarfing the actual work; the task count still
    # scales with the corpus because meta files ∝ write tasks)
    t0 = time.perf_counter()
    n_new, dl_new = _write_docs_table(
        meta_files, docs_dir, prefix=f"docs_g{gen}" if gen else "docs")
    timings["docs_table"] = time.perf_counter() - t0
    if n_new == 0:
        raise ValueError(empty)
    if expect is not None and (n_new, dl_new) != tuple(expect):
        raise RuntimeError(
            f"the docs table holds {n_new} docs of total length {dl_new}, "
            f"the manifest records {tuple(expect)}; rebuild partials")
    n_docs = prior.num_documents + n_new
    total_dl = prior.total_doc_len + dl_new
    avgdl = total_dl / n_docs

    t0 = time.perf_counter()
    file_name = f"segment_{gen}.parquet" if gen else "merged.parquet"
    # a PREVIOUS crashed attempt at this generation may have left
    # per-bucket segment_<gen> files + _SUCCESS markers; their marker
    # would short-circuit this run's merge and silently keep the old
    # attempt's data (possibly from a different corpus) — clear them
    _clear_generation(postings_dir, file_name)
    n_terms, n_postings = merge_partial_buckets(
        partials_dir, postings_dir, avgdl, prior.k1, prior.b, file_name)
    timings["merge"] = time.perf_counter() - t0
    if not keep_partials:
        shutil.rmtree(partials_dir, ignore_errors=True)

    return _commit(root, dataclasses.replace(
        prior, num_documents=n_docs, total_doc_len=total_dl,
        num_unique_terms=n_terms, num_postings=n_postings,
        num_segments=gen + 1,
        min_merge_avgdl=(min(prior.min_merge_avgdl or prior.avgdl, avgdl)
                         if gen else avgdl),
        id_ceiling=(None if prior.id_ceiling is None
                    else prior.id_ceiling + n_new)), timings)


def _commit(root: str, stats: IndexStats,
            timings: dict | None = None) -> BuiltIndex:
    """Publish *stats* — the last step of every main-index writer — and
    return the index handle."""
    _write_stats(root, stats.__dict__)
    return BuiltIndex(root=root, stats=stats, timings=timings)


def _write_stats(root: str, fields: dict) -> None:
    """Write ``root/stats.json`` atomically (tmp file + ``os.replace``):
    a failure mid-write leaves the previous file whole. The one writer
    of stats.json, for the main and the positional index."""
    path = os.path.join(root, "stats.json")
    tmp = os.path.join(root, f".stats.json.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            json.dump(fields, f, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _clear_generation(postings_dir: str, file_name: str) -> None:
    """Remove every bucket's *file_name* + its marker (leftovers of a
    crashed attempt at the same generation — their markers would make a
    retry with different data silently keep the stale segments)."""
    for dest in _bucket_dirs(postings_dir):
        for p in (os.path.join(dest, file_name), _marker(dest, file_name)):
            if os.path.exists(p):
                os.remove(p)


def _bucket_dirs(postings_dir: str) -> list[str]:
    """The ``bucket=*`` dirs under *postings_dir*, in name order (none if
    it does not exist)."""
    if not os.path.isdir(postings_dir):
        return []
    return [os.path.join(postings_dir, d) for d in sorted(os.listdir(
        postings_dir)) if d.startswith("bucket=")]


def _docs_from_meta_files(srcs: list[str], dest: str) -> tuple[int, int]:
    """One docs-table shard: a bundle of meta spill files → one docs
    parquet file. Returns (n_docs, total_doc_len) for the reduce."""
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


def merge_partial_buckets(partials_dir: str, postings_dir: str,
                          avgdl: float, k1: float, b: float,
                          file_name: str = "merged.parquet") -> tuple[int, int]:
    """Merge every ``bucket=*`` partial directory into one postings file
    *file_name* per bucket, in one bucket wave, and reduce their
    (n_terms, n_postings) counters. Bucket dirs sit directly under
    *partials_dir*, or one level down under ``shard=<s>/`` for the
    checkpointed build. A bucket already under *postings_dir* that got
    no new rows (one an extension left untouched) still owns vocabulary,
    so it joins the wave to be counted."""
    os.makedirs(postings_dir, exist_ok=True)
    return _bucket_wave(_merge_one_bucket, [
        (dirs, dest, avgdl, k1, b, file_name)
        for dirs, dest in _bucket_sources(partials_dir, postings_dir)])


def _bucket_sources(partials_dir: str, postings_dir: str
                    ) -> list[tuple[list[str], str]]:
    """(spill dirs, postings bucket dir) per term bucket, in bucket
    order: every ``bucket=<b>`` (b >= 0) spill dir under *partials_dir*
    or its ``shard=*`` subdirs, plus every bucket already under
    *postings_dir*, with no spill dirs when it got no new rows."""
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
    for d in _bucket_dirs(postings_dir):
        by_bucket.setdefault(int(d.rsplit("=", 1)[1]), [])
    return [(dirs, os.path.join(postings_dir, f"bucket={bucket}"))
            for bucket, dirs in sorted(by_bucket.items())]


def _bucket_wave(task, calls: list[tuple],
                 zero: tuple = (0, 0)) -> tuple:
    """Run ``task(*args)`` for every *args* in *calls* as one wave of
    Ray tasks and sum their result tuples column-wise, starting from
    *zero* (which sets the width) — (distinct terms, postings, ...) are
    global counts, since every term lives in exactly one bucket. Raw
    ``ray.remote``
    tasks by design: the data is already partitioned on disk, so this is
    a shared-nothing per-partition job — a Dataset ``groupby`` would
    re-shuffle data that is already placed (SURVEY.md §7)."""
    # Bucket merges are memory-bandwidth-bound (read+flatten+sort), not
    # CPU-bound: beyond ~16 concurrent streams per node the bus thrashes
    # and the wave runs SLOWER (measured 5.1 s at 32 concurrent vs 2.3 s
    # at 16 on a 32-CPU VM). Price each task so at most ~16 run per node.
    total_cpus = int(ray.cluster_resources().get("CPU", 8))
    run = ray.remote(num_cpus=max(1, total_cpus // 16))(_run_bucket_task)
    results = ray.get([run.remote(task, *args) for args in calls])
    return tuple(map(sum, zip(zero, *results)))


def _run_bucket_task(task, *args) -> tuple:
    # many bucket tasks run concurrently, each in its own worker process
    # whose arrow pool defaults to ALL cores — 64 tasks x 32 threads
    # thrashes the (slow) memory bus into inverse scaling; one thread per
    # task is the right shape when the task level is already parallel
    try:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
    except Exception:
        pass
    return task(*args)


def _marker(dest: str, file_name: str) -> str:
    """The ``_SUCCESS`` marker of one postings file: ``_SUCCESS`` for
    ``merged.parquet``, ``_SUCCESS.<stem>`` for an extension segment."""
    if file_name == "merged.parquet":
        return os.path.join(dest, "_SUCCESS")
    return os.path.join(dest, f"_SUCCESS.{file_name.rsplit('.', 1)[0]}")


#: the compaction swap's tmp file: it holds a bucket's whole new
#: ``merged.parquet`` before any old segment is removed
_SWAP_TMP = ".compact.tmp"


def _write_bucket(dest: str, table: pa.Table,
                  file_name: str = "merged.parquet", *,
                  swap: bool = False) -> tuple[int, int]:
    """The one bucket writer of both index kinds: an encoded postings
    *table* (any format with ``term, df`` columns) → tmp file →
    ``os.replace`` to *file_name* → its marker → the bucket's (distinct
    terms, Σ df) over every segment, the new one counted from memory.

    ``swap=True`` (compaction) makes *table* the bucket's only segment,
    ``merged.parquet``, in two phases. The tmp is ``.compact.tmp`` and
    holds the whole bucket before anything is removed; removing the
    ``_SUCCESS`` markers is the commit point; ``_finish_swap`` then
    drops the old extension segments and renames the tmp over
    ``merged.parquet``. A crash before the commit leaves the old
    segments live (readers skip dot files); after it, the next load or
    compaction finishes the swap."""
    os.makedirs(dest, exist_ok=True)
    tmp = os.path.join(dest, _SWAP_TMP if swap else f".{file_name}.tmp")
    pq.write_table(table, tmp)
    if swap:
        for f in os.listdir(dest):
            if f.startswith("_SUCCESS"):
                os.remove(os.path.join(dest, f))
        _finish_swap(dest)
    else:
        os.replace(tmp, os.path.join(dest, file_name))
        open(_marker(dest, file_name), "w").close()
    return _count_one_bucket(dest, (file_name, table))


def _finish_swap(dest: str) -> bool:
    """Finish a compaction swap that passed its commit point in bucket
    dir *dest* (``.compact.tmp`` present, no marker left): remove the
    superseded extension segments, rename the tmp over
    ``merged.parquet``, mark it. Returns whether there was one; when
    there is none this costs one directory listing.

    Several index loads, or a load and the compaction itself, may finish
    the same swap at once. Each step tolerates another finisher having
    done it, and ``merged.parquet`` is only ever replaced by the rename,
    never removed, so no finisher can delete the new file."""
    names = os.listdir(dest)
    if _SWAP_TMP not in names or any(f.startswith("_SUCCESS")
                                     for f in names):
        return False
    merged = os.path.join(dest, "merged.parquet")
    for f in _segment_files(dest):
        if f != merged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(f)
    with contextlib.suppress(FileNotFoundError):
        os.replace(os.path.join(dest, _SWAP_TMP), merged)
    open(_marker(dest, "merged.parquet"), "w").close()
    return True


def _finish_swaps(root: str) -> None:
    """Finish every committed compaction swap a crash interrupted in the
    index at *root* (either kind), and refresh those buckets'
    ``_df.parquet`` — run by every index load, so a searcher never
    answers from a half-swapped bucket. Directory listings only, unless
    a swap needs finishing."""
    for dest in _bucket_dirs(os.path.join(root, "postings")):
        if _finish_swap(dest):
            _count_one_bucket(dest)


def _segment_files(bucket_dir: str) -> list[str]:
    """The postings segment files of one bucket dir, in name order."""
    return [os.path.join(bucket_dir, f) for f in sorted(os.listdir(bucket_dir))
            if f.endswith(".parquet") and not f.startswith((".", "_"))]


def committed_segment_files(postings_dir: str, num_segments: int,
                            buckets=None) -> list[str]:
    """The postings files readers may see, bucket by bucket (both index
    kinds): each bucket's ``merged.parquet`` and its
    ``segment_<g>.parquet`` with g < *num_segments*, the committed
    ``stats.json`` count. An extension writes its segment files before
    it commits stats.json, so listing every file would answer from a
    generation whose commit failed or has not happened yet. *buckets*
    (bucket ids) narrows the listing."""
    live = {"merged.parquet"} | {f"segment_{g}.parquet"
                                 for g in range(1, num_segments)}
    wanted = None if buckets is None else set(buckets)
    return [f for d in _bucket_dirs(postings_dir)
            if wanted is None or int(d.rsplit("=", 1)[1]) in wanted
            for f in _segment_files(d) if os.path.basename(f) in live]


#: the postings columns the query paths read, with their types
_POSTINGS_SCHEMA = pa.schema([
    ("term", pa.string()), ("part", pa.int32()), ("df", pa.int64()),
    ("max_impact", pa.float64()), ("doc_ids_enc", pa.binary()),
    ("tfs_enc", pa.binary()), ("dls_enc", pa.binary())])


def read_postings(index: BuiltIndex, buckets=None, filter=None,
                  columns=_POSTINGS_SCHEMA.names) -> pa.Table:
    """The committed postings rows of *index* (every query-side reader
    goes through here): only the segment files ``stats.json`` counts
    (:func:`committed_segment_files`), of the term *buckets*
    given (all by default), with *filter* pushed into the scan."""
    files = committed_segment_files(index.postings_dir,
                                    index.stats.num_segments, buckets)
    if not files:
        return _POSTINGS_SCHEMA.empty_table().select(columns)
    import pyarrow.dataset as pads
    return pads.dataset(files).to_table(filter=filter, columns=columns)


def _segment_rows(src: str, doc_part_bits: int, tombs=None,
                  offset: int = 0) -> pa.Table | None:
    """Decode the segment files of bucket dir *src* back into partial
    rows ``(term, part, doc_ids, tfs, dls)`` — the inverse of the merge's
    encode, so compaction and shard-merge rewrite a bucket through the
    ordinary merge with no re-tokenize. One vectorized varint pass per
    column, no per-row decode.

    *src* may be missing (a shard whose vocabulary never hashed into
    this bucket). *tombs* (sorted int64) purges those ids from every
    posting; *offset* then shifts every id. Rows are cut again wherever
    ``part = doc_id >> doc_part_bits`` changes — a shift that is not
    part-aligned moves the part boundaries — and a row left with no
    posting disappears. Returns None when *src* holds no segment file."""
    files = _segment_files(src) if os.path.isdir(src) else []
    if not files:
        return None
    seg = pa.concat_tables([pq.read_table(f) for f in files]).combine_chunks()
    ids, off = plib.decode_doc_ids_column(seg["doc_ids_enc"])
    tfs, _ = plib.decode_varints_column(seg["tfs_enc"])
    dls, _ = plib.decode_varints_column(seg["dls_enc"])
    row = np.repeat(np.arange(seg.num_rows, dtype=np.int64), np.diff(off))
    if tombs is not None:
        keep = ~sorted_member_mask(tombs, ids)
        ids, tfs, dls, row = ids[keep], tfs[keep], dls[keep], row[keep]
    ids = ids + offset
    parts = ids >> doc_part_bits
    cut = np.ones(len(ids), dtype=bool)
    cut[1:] = (row[1:] != row[:-1]) | (parts[1:] != parts[:-1])
    starts = np.flatnonzero(cut)
    new_off = pa.array(np.append(starts, len(ids)).astype(np.int64))
    return pa.table({
        "term": seg["term"].take(pa.array(row[starts])),
        "part": pa.array(parts[starts].astype(np.int32)),
        **{name: pa.LargeListArray.from_arrays(new_off, pa.array(v))
           for name, v in (("doc_ids", ids), ("tfs", tfs), ("dls", dls))},
    })


def _merge_one_bucket(bucket_dirs: list[str], dest: str, avgdl: float,
                      k1: float, b: float, file_name: str) -> tuple[int, int]:
    """Bucket task of the spill-fed writers: this bucket's spill files
    under *bucket_dirs* → one postings file *file_name* in *dest*. A
    bucket with no new rows, or whose marker shows an earlier run
    finished it, is only counted."""
    if bucket_dirs and not os.path.exists(_marker(dest, file_name)):
        rows = read_spill([f for d in bucket_dirs for f in spill_files(d)])
        return _write_bucket(dest, merge_bucket_table(rows, avgdl, k1, b),
                             file_name)
    return _count_one_bucket(dest)


def _write_bucket_df(dest: str, term_df: pa.Table) -> pa.Table:
    """Persist the bucket's GLOBAL per-term df as ``_df.parquet``
    (term-ascending (term, df), df summed over every part and segment).
    A term lives in exactly one bucket, so concatenating these files
    yields the global df table — ``serve.SearchService`` reads them
    column-pruned instead of rebuilding a vocab-sized Python dict from
    the full postings metadata (VERDICT r3 #5). The ``_`` prefix keeps
    the file invisible to the hive-partitioned postings dataset scan.
    Atomic (a tmp unique to the process and thread + rename) and
    idempotent — concurrent recounts of the same bucket write identical
    bytes. Returns the written table."""
    agg = (term_df.group_by("term").aggregate([("df", "sum")])
           .rename_columns(["term", "df"]).sort_by("term"))
    tmp = os.path.join(dest,
                       f"._df.{os.getpid()}.{threading.get_ident()}.tmp")
    pq.write_table(agg, tmp)
    os.replace(tmp, os.path.join(dest, "_df.parquet"))
    return agg


def _count_one_bucket(dest: str, fresh=None) -> tuple[int, int]:
    """(distinct terms, Σ df) over every segment file of one bucket dir,
    from the two tiny dictionary-encoded ``(term, df)`` columns. Also
    refreshes the bucket's persisted ``_df.parquet`` from the same
    columns (the counting sites — merge, extend, compact, shard-merge —
    are exactly the moments the bucket's df table may have changed).

    ``fresh = (file name, table)`` is a segment the caller has just
    written: its columns come from that in-memory table, and only the
    bucket's other segments are read."""
    import pyarrow.dataset as pads
    seg_files = _segment_files(dest)
    parts = []
    if fresh is not None:
        name, tbl = fresh
        seg_files.remove(os.path.join(dest, name))
        parts.append(tbl.select(["term", "df"]))
    if seg_files or fresh is None:
        parts.append(pads.dataset(seg_files).to_table(columns=["term", "df"]))
    agg = _write_bucket_df(dest, pa.concat_tables(parts))
    return agg.num_rows, int(pc.sum(agg["df"]).as_py() or 0)


# ---------------------------------------------- deletion and compaction


def sorted_member_mask(sorted_ref, ids):
    """Boolean mask over *ids*: membership in the ASCENDING unique
    array *sorted_ref* — the one searchsorted/minimum idiom behind
    every tombstone check (LocalSearcher, TermRoutedService, the
    forward index, the one-off query paths, compaction's purge, the
    docs-shard purge and ``export_postings``)."""
    if sorted_ref.size == 0 or ids.size == 0:
        return np.zeros(ids.size, dtype=bool)
    pos = np.searchsorted(sorted_ref, ids)
    return ((pos < sorted_ref.size)
            & (sorted_ref[np.minimum(pos, sorted_ref.size - 1)] == ids))


def load_tombstones(root: str):
    """Sorted unique tombstoned doc_ids (empty array if none). Every
    tombstone generation file under ``root/tombstones/`` unions in —
    the set is bounded by deletions, the small side by contract."""
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
    tbl = pq.read_table(path)
    dead = sorted_member_mask(tombs,
                              tbl["doc_id"].to_numpy(zero_copy_only=False))
    if dead.any():
        tbl = tbl.filter(~dead)
    pq.write_table(tbl, path + ".purge.tmp")
    dl = pc.sum(tbl["doc_len"]).as_py() or 0
    return tbl.num_rows, int(dl)


def _compact_one_bucket(dest: str, decode, encode) -> tuple[int, int]:
    """Bucket task of compaction, for both index kinds: every segment
    file of *dest* → ``decode(dest)`` partial rows → ``encode`` → one
    fresh ``merged.parquet``, swapped in per bucket by
    ``_write_bucket(swap=True)``. A bucket whose swap a crash left past
    its commit point is finished, not compacted again; one left before
    it is compacted again — re-running is idempotent."""
    if _finish_swap(dest):
        return _count_one_bucket(dest)
    return _write_bucket(dest, encode(decode(dest)), swap=True)


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
    st = BuiltIndex.load(root).stats
    postings_dir = os.path.join(root, "postings")
    tombs = load_tombstones(root)

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
        n_docs, total_dl, avgdl = (st.num_documents, st.total_doc_len,
                                   st.avgdl)

    decode = functools.partial(_segment_rows, doc_part_bits=st.doc_part_bits,
                               tombs=tombs if tombs.size else None)
    encode = functools.partial(merge_bucket_table, avgdl=avgdl, k1=st.k1,
                               b=st.b)
    n_terms, n_postings = _bucket_wave(_compact_one_bucket, [
        (dest, decode, encode) for dest in _bucket_dirs(postings_dir)])

    # visible-state swap in dependency order: docs shards, stats, then
    # tombstones last — a crash before the tombstone removal re-runs the
    # purge idempotently (purging already-purged postings is a no-op)
    if tombs.size:
        for p in shard_paths:
            os.replace(p + ".purge.tmp", p)
    out = _commit(root, dataclasses.replace(
        st, num_documents=n_docs, total_doc_len=total_dl,
        num_unique_terms=n_terms, num_postings=n_postings, num_segments=1,
        min_merge_avgdl=avgdl,
        id_ceiling=st.next_doc_id if tombs.size else st.id_ceiling))
    if tombs.size:
        shutil.rmtree(os.path.join(root, "tombstones"), ignore_errors=True)
    return out


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


# --------------------------------------------------------- shard merge


def _shift_docs_shard(src: str, dest: str, offset: int) -> None:
    """Copy one docs shard with ``doc_id += offset`` (shard-merge path)."""
    tbl = pq.read_table(src)
    i = tbl.schema.get_field_index("doc_id")
    tbl = tbl.set_column(i, "doc_id", pc.add(tbl["doc_id"], offset))
    pq.write_table(tbl, dest)


def _merge_shards_one_bucket(srcs: list[tuple[str, int]], dest: str,
                             doc_part_bits: int, avgdl: float, k1: float,
                             b: float) -> tuple[int, int]:
    """Bucket task of the shard merge: every shard's segment rows of one
    term bucket, ids shifted by the shard's offset and re-split at the
    shifted part boundaries (*srcs* = (shard bucket dir, id offset)),
    → one ``merged.parquet`` priced at the merged avgdl."""
    rows = [r for src, offset in srcs
            if (r := _segment_rows(src, doc_part_bits, offset=offset))
            is not None]
    if not rows:
        return 0, 0
    return _write_bucket(dest, merge_bucket_table(
        pa.concat_tables(rows), avgdl, k1, b))


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

    buckets = sorted({d for s in shards for d in os.listdir(s.postings_dir)
                      if d.startswith("bucket=")})
    n_terms, n_postings = _bucket_wave(_merge_shards_one_bucket, [
        ([(os.path.join(s.postings_dir, d), off)
          for s, off in zip(shards, offsets)],
         os.path.join(out_dir, "postings", d), first.doc_part_bits, avgdl,
         first.k1, first.b)
        for d in buckets])
    ray.get(doc_refs)

    dense = all(s.stats.id_ceiling is None for s in shards)
    return _commit(out_dir, dataclasses.replace(
        first, num_documents=n_docs, total_doc_len=total_dl,
        num_unique_terms=n_terms, num_postings=n_postings, num_segments=1,
        min_merge_avgdl=avgdl,
        id_ceiling=(None if dense
                    else offsets[-1] + shards[-1].stats.next_doc_id)))


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
    import ray.data as rd

    index = BuiltIndex.load(index_root)
    tomb = load_tombstones(index_root)

    def explode(batch: "pa.Table") -> "pa.Table":
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
            keep = ~sorted_member_mask(tomb, ids_flat)
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
