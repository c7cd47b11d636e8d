"""Forward (doc-major) index: per-document term vectors.

The inverted index is term-major, so "what terms does doc d hold, with
what tf?" — Lucene's stored term vectors, the introspection surface
behind more-like-this seeds, per-doc debugging, and snippet-free
highlighting — would need a full postings scan. This module derives the
doc-major artifact FROM the built postings (one distributed decode pass
— never re-tokenizing the corpus, so the vectors are consistent with
the index by construction, including any custom stemmer), written
doc_id-sorted with the same manifest + row-group-statistics pruning the
numeric index uses: a k-doc term-vector read touches O(k) row groups.

Scale shape: the triples come from ``build.export_postings`` — one
streaming decode pass over the committed posting files with the
vectorized column varint decoders, tombstoned docs left out — and the
one ``Dataset.sort`` ships (doc_id, term, tf) triples only. Output size
≈ postings size (it IS the transpose).

Staleness: the artifact records the index's (num_documents,
num_postings) fingerprint; reads against an extended/compacted index
raise rather than silently serving stale vectors (the fuzzy-index
contract, ``fuzzy.py``). Tombstoned docs raise KeyError at read time —
a deleted doc has no visible vector.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from .build import BuiltIndex, export_postings, load_tombstones
from .numeric import _load_manifest, _prune_read, _write_sorted

__all__ = ["build_forward_index", "ForwardIndex"]


def _forward_dir(root: str) -> str:
    return os.path.join(root, "_forward")


def _index_fingerprint(idx: BuiltIndex) -> list:
    return [idx.stats.num_documents, idx.stats.num_postings]


def build_forward_index(root: str) -> str:
    """Build (or reuse) the forward index under ``{root}/_forward``.
    Idempotent: a finished build (matching fingerprint) is reused; a
    stale one (index extended/compacted since) is rebuilt."""
    idx = BuiltIndex.load(root)
    base = _forward_dir(root)
    meta_path = os.path.join(base, "_meta.json")
    fp = _index_fingerprint(idx)
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            if json.load(f).get("fingerprint") == fp:
                return base
        import shutil
        shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    _write_sorted(export_postings(root), base, "doc_id",
                  ["doc_id", "term", "tf"])
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"fingerprint": fp}, f)
    os.replace(tmp, meta_path)
    return base


class ForwardIndex:
    """Pruned-read term-vector lookups over a built forward index."""

    def __init__(self, root: str):
        idx = BuiltIndex.load(root)
        base = _forward_dir(root)
        meta_path = os.path.join(base, "_meta.json")
        if not os.path.exists(meta_path):
            raise FileNotFoundError(
                f"no forward index under {root!r} — run "
                "build_forward_index first")
        with open(meta_path) as f:
            if json.load(f).get("fingerprint") != _index_fingerprint(idx):
                raise ValueError(
                    f"forward index under {root!r} is STALE (the index "
                    "was extended/compacted since it was built) — re-run "
                    "build_forward_index")
        self._base = base
        self._manifest = _load_manifest(base)
        self._tomb = load_tombstones(root)
        self._id_ceiling = idx.stats.next_doc_id

    def term_vectors(self, doc_ids) -> pa.Table:
        """(doc_id, term, tf) for *doc_ids*, sorted (doc_id, term) asc.
        Tombstoned or unknown ids raise KeyError — silence would read as
        an empty document."""
        ids = np.unique(np.asarray(doc_ids, dtype=np.int64))
        if ids.size == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "term": pa.array([], type=pa.string()),
                             "tf": pa.array([], type=pa.int64())})
        if self._tomb.size:
            from .build import sorted_member_mask
            dead = sorted_member_mask(self._tomb, ids)
            if dead.any():
                raise KeyError(
                    f"doc_ids are tombstoned: {ids[dead][:5].tolist()}")
        # keys=ids: row groups must contain at least one requested id —
        # term_vectors([0, max_id]) would otherwise read the whole
        # forward index through the [min, max] envelope alone
        chunks = _prune_read(self._base, self._manifest, "doc_id",
                             float(ids[0]), float(ids[-1]),
                             ["doc_id", "term", "tf"], keys=ids)
        kept = []
        for t in chunks:
            d = t["doc_id"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(ids, d)
            m = (pos < ids.size) & (ids[np.minimum(pos, ids.size - 1)] == d)
            if m.any():
                kept.append(t.filter(pa.array(m)))
        if kept:
            out = pa.concat_tables(kept)
        else:
            out = pa.table({"doc_id": pa.array([], type=pa.int64()),
                            "term": pa.array([], type=pa.string()),
                            "tf": pa.array([], type=pa.int64())})
        seen = np.unique(out["doc_id"].to_numpy(zero_copy_only=False)) \
            if out.num_rows else np.empty(0, dtype=np.int64)
        missing = np.setdiff1d(ids, seen, assume_unique=True)
        if missing.size:
            # an empty doc ('' content) legitimately has no triples;
            # distinguish it from an id outside the id space (after a
            # purge compaction the space is sparse, so the CEILING is
            # the only safe bound — holes read as empty like the engine)
            bad = missing[(missing < 0) | (missing >= self._id_ceiling)]
            if bad.size:
                raise KeyError(
                    f"doc_ids outside the corpus: {bad[:5].tolist()}")
        return out.sort_by([("doc_id", "ascending"),
                            ("term", "ascending")])
