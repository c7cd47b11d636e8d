"""BM25F fielded retrieval: one sub-index per weighted field.

The reference indexes exactly ONE extracted text stream per item via
the injectable extractor (reference ``inverted_index.py:36-63``, whose
``list[str]`` return type anticipates multiple streams). BM25F widens
that extractor surface to MULTIPLE weighted streams per document
(title/body/...), the standard fielded-retrieval model (Robertson &
Zaragoza, *The Probabilistic Relevance Framework: BM25 and Beyond*,
2009): per-field length-normalized term frequencies combine with field
weights into a single pseudo-frequency which passes through ONE
saturation curve — deliberately different from summing independent
per-field BM25 scores, where a term saturates per field and a term
stuffed into a short field dominates.

    tf~(t,d)  = Σ_f  w_f · tf_f(t,d) / (1 − b_f + b_f · dl_f(d)/avgdl_f)
    score(d)  = Σ_t  idf(t) · (tf~ · (k1+1)) / (tf~ + k1)
    idf(t)    = ln((N − df_t + 0.5) / (df_t + 0.5) + 1)   (Robertson)

with df_t = #docs containing t in ANY field and N the shared corpus
size (a doc with an empty field still counts, at field length 0).

Layout: ``root/field=<name>/`` — each field is a full, independently
usable index (same fused build, same LSM extend/compact lifecycle,
same tombstone surface). Builds run one fused distributed corpus pass
per field; the field count is a small constant (2–5), not data-sized,
so the total work is O(fields · corpus), each pass streaming.

Exactness: scores are an exact left fold — fields in DECLARED order
inside tf~, then terms in ascending order across the sum — using the
same float64 expression shapes as the DuckDB oracle, so ranks
(including ties, broken (score desc, doc_id asc)) are bit-identical
(gate query ``bm25f_topk_nostem``).
"""
from __future__ import annotations

import math
import os
from typing import Mapping, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from .build import BuiltIndex, build_index, sorted_member_mask
from .query import LocalSearcher, check_k, query_stems, top_k

__all__ = [
    "derive_title_body",
    "build_fielded_index",
    "FieldedSearcher",
]


def derive_title_body(corpus: Dataset, title_tokens: int = 8) -> Dataset:
    """Split ``content`` into ``title`` (first *title_tokens* whitespace
    tokens) and ``body`` (the rest) — a deterministic field derivation
    for corpora that arrive as one stream (the driver's ``documents``
    table), vectorized end-to-end (trim → split → list-slice → join;
    no Python row loop). Docs shorter than *title_tokens* get an empty
    body; whitespace-only docs get two empty fields. Mirrors the oracle
    ``arr[1:T]`` / ``arr[T+1:]`` slicing of the whitespace token array.
    """
    if title_tokens < 1:
        raise ValueError("title_tokens must be >= 1")

    def split(batch: pa.Table) -> pa.Table:
        content = batch["content"]
        if isinstance(content, pa.ChunkedArray):
            content = content.combine_chunks()
        # trim first: Arrow's split keeps leading/trailing empty tokens
        # that str.split() (the index breaker) drops. binary_join has no
        # list<large_string> kernel, so split over plain string offsets
        # (individual docs are far below the 2 GiB offset limit).
        toks = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(content.cast(pa.string())))
        title = pc.binary_join(pc.list_slice(toks, 0, title_tokens), " ")
        body = pc.binary_join(pc.list_slice(toks, title_tokens, None), " ")
        return pa.table({
            "doc_id": batch["doc_id"],
            "title": title.cast(pa.large_string()),
            "body": body.cast(pa.large_string()),
        })

    return corpus.map_batches(split, batch_format="pyarrow")


def _project_field(name: str):
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "content": batch[name].cast(pa.large_string()),
        })
    return project


def build_fielded_index(corpus: Dataset, root: str,
                        fields: Sequence[str], **build_kwargs) -> None:
    """Build one full sub-index per field under ``root/field=<name>``.

    *corpus* must have ``doc_id:int64`` plus one string column per
    field name. Every doc must appear in every field's index (empty
    string for a missing field) so the sub-indexes share one doc
    universe — ``FieldedSearcher`` checks this at load.
    """
    os.makedirs(root, exist_ok=True)
    for name in fields:
        sub = corpus.map_batches(_project_field(name),
                                 batch_format="pyarrow")
        build_index(sub, os.path.join(root, f"field={name}"),
                    **build_kwargs)


class FieldedSearcher:
    """BM25F scorer over per-field :class:`LocalSearcher` instances.

    *weights* maps field name → weight; its DECLARED ORDER is the
    in-field accumulation order of tf~ (an exact left fold, so scores
    are deterministic bit-identical float64). *bs* overrides the
    per-field length-normalization slope (defaults to each sub-index's
    stored ``b``); *k1* defaults to the first field's stored ``k1``.

    Scale shape: queries are tiny (SURVEY contract) and each term's
    postings are bucket-pruned pushdown reads via the per-field
    searchers; scoring is vectorized over the posting arrays. No
    block-max pruning here — the stored per-row impacts bound
    single-field BM25, not the fielded combination, so this path
    scores every posting of every query term (the same contract as
    :meth:`LocalSearcher.tfidf`). A fielded-impact metadata column is
    the known upgrade if fielded top-k ever dominates a profile.

    Deletions: a doc tombstoned in ANY field index never ranks
    (visibility is immediate; N/df/avgdl stay frozen until compaction,
    the same contract as the single-field searchers).
    """

    def __init__(self, root: str, weights: Mapping[str, float], *,
                 bs: Mapping[str, float] | None = None,
                 k1: float | None = None,
                 stemmer=None, breaker=None):
        if not weights:
            raise ValueError("at least one field is required")
        self.fields: list[str] = list(weights)
        self.weights = {f: float(w) for f, w in weights.items()}
        self._searchers: dict[str, LocalSearcher] = {}
        for f in self.fields:
            idx = BuiltIndex.load(os.path.join(root, f"field={f}"))
            self._searchers[f] = LocalSearcher(idx, stemmer=stemmer,
                                               breaker=breaker)
        counts = {f: s._stats.num_documents
                  for f, s in self._searchers.items()}
        if len(set(counts.values())) != 1:
            raise ValueError(
                "field indexes cover different doc universes "
                f"(index every doc in every field, '' if empty): {counts}")
        s0 = self._searchers[self.fields[0]]._stats
        self.n_docs = int(s0.num_documents)
        self.k1 = float(k1 if k1 is not None else s0.k1)
        self.bs = {f: float((bs or {}).get(f, self._searchers[f]._stats.b))
                   for f in self.fields}
        # avgdl over the SHARED doc count: an empty field of a doc is a
        # field of length 0, not an absent doc (same as the oracle's
        # sum(dl_f)/count(*))
        self.avgdl = {
            f: self._searchers[f]._stats.total_doc_len / self.n_docs
            for f in self.fields}
        self._stemmer, self._breaker = stemmer, breaker

    def searcher(self, field: str) -> LocalSearcher:
        return self._searchers[field]

    def term_df(self, term: str) -> int:
        """Document frequency of *term* across ALL fields (union)."""
        docs = [self._searchers[f]._term_docs(term) for f in self.fields]
        docs = [d for d in docs if d.size]
        if not docs:
            return 0
        if len(docs) == 1:
            return int(docs[0].size)
        return int(np.unique(np.concatenate(docs)).size)

    def idf(self, term: str) -> float:
        df = self.term_df(term)
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def _dead(self) -> np.ndarray:
        tombs = [s._tomb for s in self._searchers.values() if s._tomb.size]
        if not tombs:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(tombs))

    def bm25f(self, query, k: int = 10) -> list[tuple[int, float]]:
        """Top-k (doc_id, score), tie-break (score desc, doc_id asc)."""
        if not check_k(k):
            return []
        stems = query_stems(query, self._stemmer, self._breaker)
        per_term: list[tuple[np.ndarray, np.ndarray]] = []
        for t in stems:  # ascending term order (query_stems sorts)
            posts = {f: self._searchers[f].term_postings(t)
                     for f in self.fields}
            arrays = [p[0] for p in posts.values() if p[0].size]
            if not arrays:
                continue
            union = (arrays[0] if len(arrays) == 1
                     else np.unique(np.concatenate(arrays)))
            df = union.size  # docs holding t in ANY field
            # tf~ as an exact left fold over fields in declared order;
            # same float64 shapes as the oracle:
            #   w * (tf / (1.0 - b + b * dl / avgdl))
            wtf = np.zeros(union.size, dtype=np.float64)
            for f in self.fields:
                ids, tfs, dls = posts[f]
                if ids.size == 0:
                    continue
                pos = np.searchsorted(union, ids)
                wtf[pos] += self.weights[f] * (
                    tfs / (1.0 - self.bs[f]
                           + self.bs[f] * dls / self.avgdl[f]))
            idf = math.log(
                (self.n_docs - df + 0.5) / (df + 0.5) + 1.0)
            contrib = idf * ((wtf * (self.k1 + 1.0)) / (wtf + self.k1))
            per_term.append((union, contrib))
        if not per_term:
            return []
        g = (per_term[0][0] if len(per_term) == 1
             else np.unique(np.concatenate([u for u, _ in per_term])))
        sums = np.zeros(g.size, dtype=np.float64)
        for u, c in per_term:  # ascending-term left fold, ≤1 hit per term
            sums[np.searchsorted(g, u)] += c
        alive = ~sorted_member_mask(self._dead(), g)
        ids, scores = top_k(g[alive], sums[alive], k)
        return list(zip(ids.tolist(), scores.tolist()))
