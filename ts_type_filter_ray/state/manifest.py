"""Checkpointed, resumable index build (north-rule requirement: "resumable
from checkpoint with per-partition lineage + metrics").

Unit of work = an input **shard** (a group of corpus files). Each shard
runs the build's own tokenize + spill (``pipelines.build._tokenize_spill``)
over its row groups: per-slice partial postings **and** per-doc metadata
rows, spilled in the ``state/spill.py`` layout to ``partials/shard=<i>/``
(written to a temp dir, then renamed). A manifest entry records the
shard's lineage fingerprint (input files + row counts), counters (docs,
total doc length) and a sha256 XOR rollup of its documents — the per-row
invariant aggregated order-independently.

Resume = re-run the same call: shards whose manifest entry is ``done``
AND whose lineage fingerprint still matches are skipped (zero
recomputation); only the cheap finalize re-runs. Finalize is not a
driver of its own: it hands every shard's partials to the build's write
path (``pipelines.build._write_generation`` — docs table, empty-corpus
check, one bucket wave, one atomic stats.json commit; ≪ tokenize cost),
so a checkpointed build writes the same bytes as ``build_index`` and
fails the same way on an empty corpus. Partials written under different
build params — or in an older spill layout — are wiped and
re-tokenized.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow.compute as pc

from ..sources.corpus import _row_group_tasks, corpus_files
from ..stages.tokenizer import (DEFAULT_DOC_PART_BITS,
                                DEFAULT_TOKENIZE_BATCH_SIZE)
from .spill import LAYOUT, read_spill, spill_files


def _shard_fingerprint(tasks: list[dict]) -> str:
    h = hashlib.sha256()
    for t in tasks:
        h.update(f"{t['path']}:{t['row_group']}:{t['doc_id_offset']}:"
                 f"{t['num_rows']};".encode())
    return h.hexdigest()


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.json")


def load_manifest(out_dir: str) -> dict:
    p = _manifest_path(out_dir)
    if os.path.exists(p):
        with open(p) as f:
            return json.load(f)
    return {"shards": {}}


def _save_manifest(out_dir: str, manifest: dict) -> None:
    tmp = _manifest_path(out_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, _manifest_path(out_dir))


def build_partials(corpus_dir: str, out_dir: str, *, num_shards: int = 4,
                   doc_part_bits: int = DEFAULT_DOC_PART_BITS,
                   num_term_buckets: int = 32,
                   tokenize_batch_size: int = DEFAULT_TOKENIZE_BATCH_SIZE,
                   max_shards_this_run: int | None = None) -> dict:
    """Run (or resume) the tokenize pass shard by shard. Returns the
    manifest. ``max_shards_this_run`` lets tests simulate an interruption.
    ``tokenize_batch_size`` is the tokenizer's slice length, as in
    ``build_index``.
    """
    from ..pipelines.build import _tokenize_spill
    from ..sources.corpus import CorpusDatasource, read_corpus_source

    os.makedirs(os.path.join(out_dir, "partials"), exist_ok=True)
    files = corpus_files(corpus_dir)
    all_tasks = _row_group_tasks(files)
    by_file: dict[str, list[dict]] = {}
    for t in all_tasks:
        by_file.setdefault(t["path"], []).append(t)
    shard_files = [files[i::num_shards] for i in range(num_shards)]

    # partials from a different sharding/bucketing layout are incompatible:
    # resuming into them would mix or double-count postings (ADVICE r1).
    # num_shards in the key also makes orphaned shard ids impossible, and
    # the spill layout in the key re-tokenizes partials written in an
    # older on-disk format that finalize could not read.
    params = {"num_shards": num_shards, "num_term_buckets": num_term_buckets,
              "doc_part_bits": doc_part_bits, "spill": LAYOUT}
    manifest = load_manifest(out_dir)
    if manifest["shards"] and manifest.get("params") != params:
        shutil.rmtree(os.path.join(out_dir, "partials"), ignore_errors=True)
        os.makedirs(os.path.join(out_dir, "partials"), exist_ok=True)
        manifest = {"shards": {}}
    manifest["params"] = params

    done_this_run = 0
    fresh: set[str] = set()
    for shard_id, flist in enumerate(shard_files):
        tasks = [t for f in flist for t in by_file[f]]
        if not tasks:
            # the file set shrank and left this shard empty: remove its
            # stale partials so finalize cannot double-count them
            if str(shard_id) in manifest["shards"]:
                del manifest["shards"][str(shard_id)]
                shutil.rmtree(os.path.join(out_dir, "partials",
                                           f"shard={shard_id}"),
                              ignore_errors=True)
                _save_manifest(out_dir, manifest)
            continue
        fp = _shard_fingerprint(tasks)
        entry = manifest["shards"].get(str(shard_id))
        if entry and entry["status"] == "done" and entry["fingerprint"] == fp:
            fresh.add(str(shard_id))
            continue  # checkpoint hit: zero recomputation
        if max_shards_this_run is not None and done_this_run >= max_shards_this_run:
            break

        final_dir = os.path.join(out_dir, "partials", f"shard={shard_id}")
        tmp_dir = final_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(final_dir, ignore_errors=True)

        # the build's own fused read → tokenize → spill; the merge reads
        # shard=*/bucket=<i> directly (doc-meta rows land under bucket=-1)
        ds = read_corpus_source(CorpusDatasource(flist, tasks=tasks))
        _tokenize_spill(ds, tmp_dir, doc_part_bits, num_term_buckets,
                        tokenize_batch_size, None, None, None)

        # counters + sha rollup from the written doc-meta rows (small
        # read). A shard whose stripe holds only ZERO-ROW files writes
        # no partitions at all — legal, it contributes nothing.
        meta_dir = os.path.join(tmp_dir, "bucket=-1")
        if os.path.isdir(meta_dir):
            meta = read_spill(spill_files(meta_dir))
            n_docs = meta.num_rows
            total_dl = pc.sum(pc.list_flatten(meta["dls"])).as_py() or 0
            rollup = 0
            for sha in meta["term"].to_pylist():
                rollup ^= int(sha, 16)
        else:
            os.makedirs(tmp_dir, exist_ok=True)
            n_docs, total_dl, rollup = 0, 0, 0
        os.replace(tmp_dir, final_dir)

        manifest["shards"][str(shard_id)] = {
            "status": "done",
            "fingerprint": fp,
            "files": flist,
            "num_docs": n_docs,
            "total_doc_len": int(total_dl),
            "sha256_xor_rollup": f"{rollup:064x}",
        }
        _save_manifest(out_dir, manifest)
        fresh.add(str(shard_id))
        done_this_run += 1
    return manifest, fresh


def finalize_index(out_dir: str, *, num_term_buckets: int = 32,
                   doc_part_bits: int = DEFAULT_DOC_PART_BITS,
                   k1: float | None = None, b: float | None = None):
    """Merge all shard partials into the final index through the build's
    own write path (``pipelines.build._write_generation``: docs table →
    empty-corpus check → bucket wave → atomic stats commit), so the
    result is the index :func:`..pipelines.build.build_index` writes.
    (N, total_doc_len) come from the docs-table reduce, as in the build,
    and must equal the manifest's sums. Small relative to tokenize;
    re-runs wholesale on resume."""
    from ..oracle.index import BM25_B, BM25_K1
    from ..pipelines.build import _no_docs, _write_generation

    k1 = BM25_K1 if k1 is None else k1
    b = BM25_B if b is None else b
    manifest = load_manifest(out_dir)
    shards = manifest["shards"].values()
    if not shards or any(s["status"] != "done" for s in shards):
        raise RuntimeError("not all shards are done; run build_partials first")
    params = manifest.get("params")
    if params and (params["num_term_buckets"] != num_term_buckets
                   or params["doc_part_bits"] != doc_part_bits):
        raise RuntimeError(
            f"finalize params {num_term_buckets=}/{doc_part_bits=} do not "
            f"match the partials' build params {params}; rebuild partials")

    partials_dir = os.path.join(out_dir, "partials")
    # only merge shard dirs the manifest vouches for; delete anything else
    # on disk (stale leftovers would duplicate postings)
    valid = {f"shard={sid}" for sid in manifest["shards"]}
    for d in sorted(os.listdir(partials_dir)):
        if d.startswith("shard=") and d not in valid:
            shutil.rmtree(os.path.join(partials_dir, d), ignore_errors=True)

    # docs table from the doc-meta rows (bucket=-1 dirs), in shard order;
    # postings from the shard=*/bucket=<i> spill
    meta_dirs = [os.path.join(partials_dir, s, "bucket=-1")
                 for s in sorted(valid, key=lambda d: int(d.split("=")[1]))]
    return _write_generation(
        out_dir, partials_dir, meta_dirs,
        _no_docs(k1, b, doc_part_bits, num_term_buckets), {},
        keep_partials=True,
        expect=(sum(s["num_docs"] for s in shards),
                sum(s["total_doc_len"] for s in shards)))


def build_index_checkpointed(corpus_dir: str, out_dir: str, *,
                             num_shards: int = 4,
                             doc_part_bits: int = DEFAULT_DOC_PART_BITS,
                             num_term_buckets: int = 32,
                             max_shards_this_run: int | None = None):
    """Sharded single-pass build with resume. Interrupt at any point and
    call again with the same arguments: completed shards are skipped."""
    _, fresh = build_partials(corpus_dir, out_dir, num_shards=num_shards,
                              doc_part_bits=doc_part_bits,
                              num_term_buckets=num_term_buckets,
                              max_shards_this_run=max_shards_this_run)
    manifest = load_manifest(out_dir)
    files = corpus_files(corpus_dir)
    expected = {str(i) for i in range(num_shards) if files[i::num_shards]}
    # `fresh` holds shards that are done AND fingerprint-match the
    # CURRENT corpus — a status-only check would finalize stale
    # partials after the corpus changed under a capped run
    if not expected <= fresh:
        return None  # interrupted run; resume later
    return finalize_index(out_dir, num_term_buckets=num_term_buckets,
                          doc_part_bits=doc_part_bits)
