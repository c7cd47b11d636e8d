"""Index verification (fsck): prove an on-disk index is internally
consistent and — when the source corpus is supplied — that every
document's stored sha256 still equals the content it was built from
(the ``input_hint`` per-row invariant, BASELINE.json).

Verification is a full-scan job by nature, so every check is shaped to
scan ONCE, in parallel, and ship only constant-size evidence:

- **Postings recount** — one task per term bucket (the merge's own unit
  of work) re-aggregates (n_terms, n_postings) from the posting rows'
  metadata columns (column-pruned read; the encoded posting buffers are
  never touched) and re-derives each bucket's persisted ``_df.parquet``
  from its rows. Terms are disjoint across buckets, so bucket counts
  sum to global counts.
- **Docs-table audit** — one task per docs file checks strict doc_id
  ordering + per-file uniqueness and returns (min, max, count,
  Σ doc_len); the driver proves GLOBAL uniqueness from disjoint
  [min, max] intervals (the build writes range-partitioned files). If
  intervals ever overlapped, uniqueness would need a shuffle — fsck
  reports ``doc_ids_unique=False`` rather than silently scanning.
- **sha256 rollup compare** — both sides (stored docs table, re-hashed
  corpus) fold their digests into ONE 32-byte XOR rollup per doc
  partition (``part = doc_id >> doc_part_bits``); the driver compares
  the two tiny (part → rollup) maps. Any single corrupted/substituted
  document flips its partition's rollup, and the evidence shipped is
  O(parts), never O(docs). Same construction as the build manifest's
  ``sha256_xor_rollup`` (state/manifest.py).

The per-row ``hashlib.sha256`` loop matches the build's own doc-meta
rows (``TokenizePartials(emit_meta=True)``; no vectorized Arrow kernel
exists; hashlib releases the GIL).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_REPORT_FIELDS = [
    ("num_documents", pa.int64()),
    ("num_unique_terms", pa.int64()),
    ("num_postings", pa.int64()),
    ("total_doc_len", pa.int64()),
    ("stats_consistent", pa.bool_()),
    ("df_files_consistent", pa.bool_()),
    ("doc_ids_unique", pa.bool_()),
    ("sha_mismatched_parts", pa.int64()),
    ("ok", pa.bool_()),
]


def _check_bucket(bucket_dir: str) -> dict:
    """(n_terms, n_postings, df_file_ok) for one term bucket — a
    column-pruned read of the posting rows' metadata, aggregated with
    one sort + reduceat; the persisted ``_df.parquet`` must equal the
    recount exactly (same terms, same per-term df)."""
    import pyarrow.dataset as pads

    files = [os.path.join(bucket_dir, f)
             for f in sorted(os.listdir(bucket_dir))
             if f.endswith(".parquet") and not f.startswith(("_", "."))]
    if not files:
        return {"n_terms": 0, "n_postings": 0, "df_ok": True,
                "has_df": False}
    tbl = pads.dataset(files).to_table(columns=["term", "df"])
    if tbl.num_rows == 0:
        return {"n_terms": 0, "n_postings": 0, "df_ok": True,
                "has_df": False}
    tbl = tbl.sort_by("term")
    import pyarrow.compute as pc
    enc = pc.dictionary_encode(tbl["term"]).combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    dfs = tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    change = np.ones(len(codes), dtype=bool)
    change[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(change)
    per_term = np.add.reduceat(dfs, starts)
    out = {"n_terms": int(starts.size), "n_postings": int(dfs.sum()),
           "df_ok": True, "has_df": False}
    df_path = os.path.join(bucket_dir, "_df.parquet")
    if os.path.exists(df_path):
        out["has_df"] = True
        stored = pq.read_table(df_path, columns=["term", "df"])
        got_df = stored["df"].to_numpy(zero_copy_only=False)
        out["df_ok"] = bool(
            stored["term"].to_pylist() == enc.dictionary.to_pylist()
            and got_df.size == per_term.size
            and (got_df == per_term).all())
    return out


def _check_docs_file(path: str, part_bits: int) -> dict:
    """Per-docs-file audit: strict doc_id order (⇒ per-file uniqueness),
    id range, count, Σ doc_len, and the per-part sha256 XOR rollup of
    the STORED digests — only the O(parts) rollup ships back, never the
    digests themselves."""
    tbl = pq.read_table(path, columns=["doc_id", "sha256", "doc_len"])
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if ids.size == 0:
        return {"lo": None, "hi": None, "n": 0, "dl": 0, "sorted": True,
                "rollup": {}}
    digests = [bytes.fromhex(h) for h in tbl["sha256"].to_pylist()]
    return {
        "lo": int(ids.min()), "hi": int(ids.max()), "n": int(ids.size),
        "dl": int(tbl["doc_len"].to_numpy(
            zero_copy_only=False).astype(np.int64).sum()),
        "sorted": bool(np.all(np.diff(ids) > 0)),
        "rollup": _xor_rollup(ids, digests, part_bits),
    }


def _xor_rollup(ids: np.ndarray, digests: list[bytes],
                part_bits: int) -> dict[int, bytes]:
    """Per-partition XOR of 32-byte BOUND digests — constant-size
    evidence per part, order-independent (XOR is commutative),
    sensitive to any single-digest change. Each digest is re-hashed
    together with its doc_id (``sha256(id_le8 || digest)``) before the
    fold: a bare content-XOR would cancel under a content PERMUTATION
    between docs of the same partition (swap docs 1↔2 → H(a)⊕H(b) both
    sides), silently passing the very association the invariant
    asserts."""
    if ids.size == 0:
        return {}
    bound = [hashlib.sha256(int(i).to_bytes(8, "little") + d).digest()
             for i, d in zip(ids.tolist(), digests)]
    mat = np.frombuffer(b"".join(bound),
                        dtype=np.uint8).reshape(len(bound), 32)
    parts = ids >> np.int64(part_bits)
    order = np.argsort(parts, kind="stable")
    parts_s = parts[order]
    mat = mat[order]
    change = np.ones(parts_s.size, dtype=bool)
    change[1:] = parts_s[1:] != parts_s[:-1]
    starts = np.flatnonzero(change)
    folded = np.bitwise_xor.reduceat(mat, starts, axis=0)
    return {int(parts_s[s]): folded[j].tobytes()
            for j, s in enumerate(starts.tolist())}


def _merge_rollups(maps: list[dict[int, bytes]]) -> dict[int, bytes]:
    out: dict[int, bytes] = {}
    for m in maps:
        for p, r in m.items():
            prev = out.get(p)
            out[p] = r if prev is None else bytes(
                a ^ b for a, b in zip(prev, r))
    return out


def fsck_index(index_root: str, corpus=None) -> pa.Table:
    """One-row verification report for *index_root*; pass the source
    *corpus* Dataset (``content`` + ``doc_id`` columns, e.g.
    ``corpus_from_documents``) to also verify the per-row sha256
    invariant. ``ok`` is the conjunction of every check;
    ``sha_mismatched_parts`` is -1 when no corpus was supplied."""
    import ray

    with open(os.path.join(index_root, "stats.json")) as f:
        stats = json.load(f)
    part_bits = int(stats["doc_part_bits"])

    postings_dir = os.path.join(index_root, "postings")
    bucket_dirs = sorted(
        os.path.join(postings_dir, d) for d in os.listdir(postings_dir)
        if d.startswith("bucket="))
    check_bucket = ray.remote(_check_bucket)
    bucket_futs = [check_bucket.remote(d) for d in bucket_dirs]

    docs_dir = os.path.join(index_root, "docs")
    doc_files = sorted(
        os.path.join(docs_dir, f) for f in os.listdir(docs_dir)
        if f.endswith(".parquet") and not f.startswith(("_", ".")))
    check_docs = ray.remote(_check_docs_file)
    docs_futs = [check_docs.remote(f, part_bits) for f in doc_files]

    sha_mismatched = -1
    corpus_rollup: dict[int, bytes] | None = None
    if corpus is not None:
        def corpus_partial(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            digests = [hashlib.sha256(c.encode("utf-8")).digest()
                       for c in batch["content"].to_pylist()]
            roll = _xor_rollup(ids, digests, part_bits)
            return pa.table({
                "part": pa.array(list(roll.keys()), type=pa.int64()),
                "rollup": pa.array(list(roll.values()),
                                   type=pa.binary(32)),
            })

        partials = corpus.map_batches(
            corpus_partial, batch_format="pyarrow").to_arrow_refs()
        maps = []
        for ref in partials:
            t = ray.get(ref)
            maps.append(dict(zip(t["part"].to_pylist(),
                                 t["rollup"].to_pylist())))
        corpus_rollup = _merge_rollups(maps)

    buckets = ray.get(bucket_futs)
    n_terms = sum(b["n_terms"] for b in buckets)
    n_postings = sum(b["n_postings"] for b in buckets)
    # a non-empty bucket MISSING its _df.parquet is an integrity
    # failure too (the build always writes it; SearchService reads it)
    df_ok = all(b["df_ok"] and (b["has_df"] or b["n_terms"] == 0)
                for b in buckets)

    docs = ray.get(docs_futs)
    n_docs = sum(d["n"] for d in docs)
    total_dl = sum(d["dl"] for d in docs)
    per_file_sorted = all(d["sorted"] for d in docs)
    ranges = sorted((d["lo"], d["hi"]) for d in docs if d["n"])
    disjoint = all(ranges[i][1] < ranges[i + 1][0]
                   for i in range(len(ranges) - 1))
    ids_unique = per_file_sorted and disjoint

    if corpus_rollup is not None:
        stored_rollup = _merge_rollups([d["rollup"] for d in docs])
        all_parts = set(stored_rollup) | set(corpus_rollup)
        sha_mismatched = sum(
            1 for p in all_parts
            if stored_rollup.get(p) != corpus_rollup.get(p))

    stats_ok = (n_docs == stats["num_documents"]
                and n_terms == stats["num_unique_terms"]
                and n_postings == stats["num_postings"]
                and total_dl == stats["total_doc_len"])
    ok = (stats_ok and df_ok and ids_unique
          and (sha_mismatched in (-1, 0)))
    vals = {
        "num_documents": n_docs,
        "num_unique_terms": n_terms,
        "num_postings": n_postings,
        "total_doc_len": total_dl,
        "stats_consistent": stats_ok,
        "df_files_consistent": df_ok,
        "doc_ids_unique": ids_unique,
        "sha_mismatched_parts": sha_mismatched,
        "ok": ok,
    }
    return pa.table({name: pa.array([vals[name]], type=typ)
                     for name, typ in _REPORT_FIELDS})
