"""Distributed query serving — BOTH classic topologies:

**Doc-partitioned** (:class:`SearchService`): each actor owns a set of
doc partitions (``part = doc_id >> doc_part_bits``) and holds *all*
terms' posting rows for its docs (Parquet filter pushdown on ``part``),
computes complete scores locally with the same left-fold term order as
the oracle, and returns only its local top-k; the coordinator merges
k·A candidates. Exact, rank-identical, O(k) network per actor — the
default because a document's BM25 score sums contributions from many
terms. Global statistics (N, avgdl, per-term df) are computed once and
broadcast via ``ray.put`` — the small-side broadcast pattern
(SURVEY.md §2.4 J1).

**Term-partitioned** (:class:`TermRoutedService`): each actor owns a
set of TERM BUCKETS (``bucket = crc32(term) % num_term_buckets`` — the
unit the index is already sharded by on disk, so each actor's load is a
plain bucket-pruned read) and holds the COMPLETE posting list of every
term it owns — which makes its local df the global df, no broadcast
needed. A query routes each stem to its owner (O(1) hash, at most
min(|stems|, A) actors touched); owners return per-term
(doc_id, idf·tf_factor) contribution arrays and the coordinator folds
them in ascending-term order — the same left fold as ``LocalSearcher``,
so scores are bit-identical. The honest tradeoff: scoring ships
O(Σ df(t)) contributions per query (vs O(k·A) doc-partitioned), which
is why term partitioning is the topology of choice for boolean MATCH
(posting-list-sized unions the coordinator needs anyway) and for
memory-constrained vocabularies (each term's state lives exactly once),
while doc partitioning wins for ranked top-k; impact-ordered posting
truncation is the classic mitigation when term-routed ranking must
scale (documented, not implemented).

This module is the multi-node serving shape; ``LocalSearcher`` remains
the single-process warm path (it is also what each actor wraps).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray

from .build import BuiltIndex, sorted_member_mask
from .query import LocalSearcher, check_k, query_stems, top_k


def load_global_df(index: BuiltIndex) -> pa.Table:
    """Global (term, df) table, term-ascending — df summed over every
    doc partition and segment. Reads the tiny per-bucket ``_df.parquet``
    files the build persists at merge time (terms are disjoint across
    buckets, so concatenation + one sort is the global table); falls
    back to aggregating the full postings metadata for indexes built
    before the df files existed."""
    import os

    pd_dir = index.postings_dir
    files: list[str] | None = []
    for d in sorted(os.listdir(pd_dir)):
        if d.startswith("bucket="):
            f = os.path.join(pd_dir, d, "_df.parquet")
            if os.path.exists(f):
                files.append(f)
            else:
                files = None
                break
    if files:
        return pads.dataset(files).to_table(
            columns=["term", "df"]).sort_by("term")
    meta = pads.dataset(pd_dir, partitioning="hive").to_table(
        columns=["term", "df"])
    return (meta.group_by("term").aggregate([("df", "sum")])
            .rename_columns(["term", "df"]).sort_by("term"))


class _DocPartSearcher:
    """One search actor: all posting rows whose ``part`` is in its
    assigned set, plus the broadcast global df table."""

    @staticmethod
    def _part_searcher(index_root: str, parts: list[int],
                       pinned_doc_ids=None) -> LocalSearcher:
        from .build import load_tombstones

        index = BuiltIndex.load(index_root)
        s = LocalSearcher.__new__(LocalSearcher)
        s._stats = index.stats
        s._stemmer = None
        s._breaker = None
        s._pinned = np.array(sorted(pinned_doc_ids or ()), dtype=np.int64)
        s._tomb = load_tombstones(index_root)  # delete_docs visibility
        dset = pads.dataset(index.postings_dir, partitioning="hive")
        tbl = dset.to_table(filter=pc.field("part").isin(parts),
                            columns=["term", "part", "df", "max_impact",
                                     "doc_ids_enc", "tfs_enc", "dls_enc"])
        s._ingest(tbl)  # Arrow-native load (same path as LocalSearcher)
        s._init_cache(warm_top_terms=0)
        return s

    def __init__(self, index_root: str, parts: list[int], df_ref,
                 pinned_doc_ids: list[int] | None = None,
                 metadata_root: str | None = None):
        self._searcher = self._part_searcher(index_root, parts,
                                             pinned_doc_ids)
        # GLOBAL df (idf must be global even though this actor only holds
        # a doc-slice of each posting list). Ray auto-dereferences the
        # broadcast ObjectRef argument — one shared plasma copy per node.
        self._searcher.set_global_df(
            ray.get(df_ref) if isinstance(df_ref, ray.ObjectRef)
            else df_ref)
        # metadata term index sliced to the SAME doc partitions: field
        # filters then distribute exactly like every other leaf (a
        # metadata posting for a doc lives in this actor iff the doc
        # does). No pinning on the fields side — evaluate() applies the
        # pinned contract once at the top via the content searcher.
        self._fields = (self._part_searcher(metadata_root, parts)
                        if metadata_root else None)

    def match(self, query) -> np.ndarray:
        # ndarray, not .tolist(): numpy serializes zero-copy through the
        # object store; a million-id Python list is ~5x the bytes
        return self._searcher.match(query)

    def bm25(self, query, k: int) -> list[tuple[int, float]]:
        return self._searcher.bm25(query, k)

    def match_expr(self, expr: str) -> np.ndarray:
        from .querylang import evaluate
        return evaluate(expr, self._searcher, fields=self._fields)

    def bm25_filtered(self, query, filter_expr: str,
                      k: int) -> list[tuple[int, float]]:
        from .querylang import evaluate
        allowed = evaluate(filter_expr, self._searcher,
                           fields=self._fields)
        return self._searcher.bm25(query, k, allowed=allowed)


class SearchService:
    """Search-actor pool over a built index.

    >>> svc = SearchService(index.root, num_actors=4)
    >>> svc.bm25("fire heat", k=10)   # rank-identical to LocalSearcher
    """

    def __init__(self, index_root: str, num_actors: int = 4,
                 pinned_doc_ids: set[int] | None = None,
                 metadata_root: str | None = None):
        index = BuiltIndex.load(index_root)
        self._stats = index.stats
        if metadata_root is not None:
            mstats = BuiltIndex.load(metadata_root).stats
            if mstats.doc_part_bits != index.stats.doc_part_bits:
                raise ValueError(
                    "metadata index doc_part_bits "
                    f"({mstats.doc_part_bits}) must match the content "
                    f"index ({index.stats.doc_part_bits}) so field "
                    "postings partition to the same actors")

        # Global df: concatenate the per-bucket ``_df.parquet`` tables the
        # build persisted at merge time (terms are disjoint across buckets)
        # and sort once — an Arrow table, never a vocab-sized Python dict
        # on the driver (VERDICT r3 #5). One plasma copy per node via
        # ray.put; actors index it zero-copy through SortedTermMap.
        df_tbl = load_global_df(index)
        df_ref = ray.put(df_tbl)

        meta = pads.dataset(index.postings_dir, partitioning="hive").to_table(
            columns=["part"])
        part_set = set(meta["part"].to_pylist())
        if metadata_root is not None:
            # a partition whose docs are all content-empty still owns
            # metadata postings — assignment must cover the UNION of
            # both indexes' parts or field filters silently miss docs
            mmeta = pads.dataset(
                os.path.join(metadata_root, "postings"),
                partitioning="hive").to_table(columns=["part"])
            part_set |= set(mmeta["part"].to_pylist())
        parts = sorted(part_set)
        num_actors = max(1, min(num_actors, len(parts)))
        assign = [parts[i::num_actors] for i in range(num_actors)]
        pinned = sorted(pinned_doc_ids or ())
        actor_cls = ray.remote(_DocPartSearcher)
        part_bits = index.stats.doc_part_bits
        # a pinned doc whose partition produced no posting rows (e.g. an
        # empty document) still must appear in every match
        # (inverted_index.py:94) — route those leftovers to actor 0
        all_parts = set(parts)
        leftover = [d for d in pinned if (d >> part_bits) not in all_parts]
        self._actors = []
        for i, sub in enumerate(assign):
            # pinned docs route to the actor owning their partition
            sub_set = set(sub)
            sub_pinned = [d for d in pinned if (d >> part_bits) in sub_set]
            if i == 0:
                sub_pinned = sorted(sub_pinned + leftover)
            self._actors.append(actor_cls.remote(index_root, sub, df_ref,
                                                 sub_pinned,
                                                 metadata_root))

    def match(self, query) -> np.ndarray:
        """Union of per-actor matches, ascending doc_id (insertion order)."""
        parts = ray.get([a.match.remote(query) for a in self._actors])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(
            [np.asarray(p, dtype=np.int64) for p in parts]))

    def bm25(self, query, k: int = 10) -> list[tuple[int, float]]:
        """Global top-k from per-actor local top-k's — exact because every
        doc's full score lives on exactly one actor."""
        locals_ = ray.get([a.bm25.remote(query, k) for a in self._actors])
        merged = [item for sub in locals_ for item in sub]
        merged.sort(key=lambda ds: (-ds[1], ds[0]))
        return merged[:k]

    def match_expr(self, expr: str) -> np.ndarray:
        """Distributed boolean-expression evaluation: every leaf
        predicate is per-doc, and doc partitions are disjoint, so set
        ops DISTRIBUTE over the actors' universes — the union of
        per-actor ``querylang.evaluate`` results is the exact global
        result (pytest-pinned vs the local evaluator). Phrase atoms are
        a contract error here (actors hold no positional index)."""
        parts = ray.get([a.match_expr.remote(expr) for a in self._actors])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(
            [np.asarray(p, dtype=np.int64) for p in parts]))

    def bm25_filtered(self, query, filter_expr: str,
                      k: int = 10) -> list[tuple[int, float]]:
        """Filter + rank, distributed: each actor evaluates the filter
        over ITS doc slice (local allowed ≡ global allowed ∩ slice) and
        ranks locally; the coordinator merges local top-k's — exact for
        the same reason ``bm25`` is."""
        locals_ = ray.get([a.bm25_filtered.remote(query, filter_expr, k)
                           for a in self._actors])
        merged = [item for sub in locals_ for item in sub]
        merged.sort(key=lambda ds: (-ds[1], ds[0]))
        return merged[:k]

    def stems(self, query) -> list[str]:
        return query_stems(query)


class _TermBucketSearcher:
    """One term-routed search actor: the complete posting lists of every
    term hashing into its assigned buckets (bucket-pruned read — the
    on-disk sharding unit IS the ownership unit, so no row ever loads
    twice). Holding every part of its terms makes local df ≡ global df:
    idf needs no broadcast."""

    def __init__(self, index_root: str, buckets: list[int]):
        index = BuiltIndex.load(index_root)
        self._searcher = LocalSearcher(index, buckets=buckets,
                                       warm_top_terms=0)

    def match_stems(self, stems: list[str]) -> np.ndarray:
        """RAW ascending-unique doc union for the owned stems (no
        pinning/tombstones — the coordinator applies both once)."""
        s = self._searcher
        arrays = []
        for term in stems:
            sl = s._term_slice(term)
            if sl is None:
                continue
            for i in range(sl[0], sl[1]):
                arrays.append(s._decode_row(term, i)[0])
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(arrays))

    def term_contributions(self, stems: list[str]
                           ) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Per-term (term, doc_ids, idf·tf_factor) contribution arrays —
        the exact per-term float64 products ``LocalSearcher.bm25``
        accumulates (same idf: local df is global df here; same N/avgdl
        from the index stats). Docs are unique within a term (disjoint
        across parts), so the coordinator's fancy-indexed ``+=`` per
        term is an exact left fold."""
        s = self._searcher
        out = []
        for term in stems:
            sl = s._term_slice(term)
            if sl is None:
                continue
            idf = s.idf(term)
            docs, contribs = [], []
            for i in range(sl[0], sl[1]):
                row = s._decode_row(term, i)
                docs.append(row[0])
                contribs.append(idf * row[3])
            out.append((term, np.concatenate(docs),
                        np.concatenate(contribs)))
        return out


class TermRoutedService:
    """Term-partitioned search-actor pool (see module docstring for the
    topology tradeoff vs :class:`SearchService`). Match sets and BM25
    rankings are pytest-pinned identical to ``LocalSearcher`` —
    bit-identical scores via the same ascending-term left fold."""

    def __init__(self, index_root: str, num_actors: int = 4,
                 pinned_doc_ids: set[int] | None = None,
                 stemmer=None, breaker=None):
        from .build import load_tombstones

        index = BuiltIndex.load(index_root)
        self._stats = index.stats
        self._stemmer = stemmer
        self._breaker = breaker
        self._pinned = np.array(sorted(pinned_doc_ids or ()),
                                dtype=np.int64)
        self._tomb = load_tombstones(index_root)
        nb = index.stats.num_term_buckets
        self._num_actors = max(1, min(num_actors, nb))
        actor_cls = ray.remote(_TermBucketSearcher)
        # round-robin over ALL bucket ids so ownership is a pure
        # function of the bucket hash: owner(b) = b % A
        self._actors = [
            actor_cls.remote(index_root,
                             list(range(i, nb, self._num_actors)))
            for i in range(self._num_actors)]

    def _route(self, stems: list[str]) -> dict[int, list[str]]:
        from ..state.postings import term_bucket

        nb = self._stats.num_term_buckets
        groups: dict[int, list[str]] = {}
        for t in stems:  # stems arrive sorted; groups stay sorted
            groups.setdefault(
                term_bucket(t, nb) % self._num_actors, []).append(t)
        return groups

    def _drop_deleted(self, ids: np.ndarray) -> np.ndarray:
        if not self._tomb.size or not ids.size:
            return ids
        return ids[~sorted_member_mask(self._tomb, ids)]

    def match(self, query) -> np.ndarray:
        """Ascending unique doc_ids containing ANY query stem — each stem
        answered by exactly its owner actor; pinned docs added and
        tombstones dropped once at the coordinator (LocalSearcher.match
        semantics)."""
        stems = query_stems(query, self._stemmer, self._breaker)
        groups = self._route(stems)
        parts = ray.get([self._actors[a].match_stems.remote(sub)
                         for a, sub in groups.items()])
        arrays = [p for p in parts if p.size]
        out = (np.unique(np.concatenate(arrays)) if arrays
               else np.empty(0, dtype=np.int64))
        if self._pinned.size:
            out = np.union1d(out, self._pinned)
        return self._drop_deleted(out)

    def bm25(self, query, k: int = 10) -> list[tuple[int, float]]:
        """Global top-k, bit-identical scores to ``LocalSearcher.bm25``:
        owners ship per-term contribution arrays, the coordinator folds
        them over each doc in ascending-term order (every doc appears at
        most once per term array, so the fancy-indexed ``+=`` sequence
        is the exact same left fold), drops tombstoned docs, and ranks
        (score desc, doc_id asc)."""
        if not check_k(k):
            return []
        stems = query_stems(query, self._stemmer, self._breaker)
        groups = self._route(stems)
        results = [r for sub in ray.get(
            [self._actors[a].term_contributions.remote(s)
             for a, s in groups.items()]) for r in sub]
        if not results:
            return []
        results.sort(key=lambda r: r[0])  # ascending-term fold order
        uniq = np.unique(np.concatenate([d for _t, d, _c in results]))
        sums = np.zeros(uniq.size, dtype=np.float64)
        for _term, docs_t, contrib_t in results:
            sums[np.searchsorted(uniq, docs_t)] += contrib_t
        keep = ~sorted_member_mask(self._tomb, uniq)
        ids, scores = top_k(uniq[keep], sums[keep], k)
        return list(zip(ids.tolist(), scores.tolist()))
