"""Query engine over a built index: reference-identical boolean match and
BM25 top-k with partition-level block-max pruning.

Two serving shapes:

- :class:`LocalSearcher` — the "warm actors" shape used for latency
  benchmarks and conformance tests: loads the compressed postings for its
  term buckets **once** (constructor), then answers queries from memory.
  At cluster scale this class is exactly what each search actor in a pool
  holds (one actor per hash(term) bucket group); single-node it simply
  holds all buckets.

- :func:`match_dataset` / :func:`bm25_dataset` — Dataset-shaped paths that
  route a query's terms to their posting buckets via Parquet filter
  pushdown, for one-off queries without a warm server.

Semantics preserved from the reference (``ts_type_filter/inverted_index.py``):
query may be ``str | list[str]`` (``:87-91``); disjunctive union
(``:94-97``); pinned docs always included, empty query returns exactly the
pinned set (``:67-68,94``); results ascending by doc_id ≡ insertion order
(``:99-101``).

Bit-identical BM25 vs the oracle: contributions are accumulated in
ascending term order with the same float64 expression shapes (see
``oracle/index.py::CorpusOracle.bm25``); ``avgdl`` derives from the same
int sum / int count.

The four ranked scorers (``bm25``, ``tfidf``, ``query_likelihood``,
``query_likelihood_jm``) share one gather → fold → top-k core,
:meth:`LocalSearcher._rank`; each scorer supplies only its per-row
contribution (plus BM25's block-max bound and the QL normalizers). The
bit-identity rules are written down once, in ``_rank``'s docstring.
:func:`top_k` is the one (score desc, doc_id asc) selector, also used by
the serving coordinator and the BM25F combiner.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..state import postings as plib
from ..text.porter2 import stem
from ..text.tokenize import break_on_whitespace
from .build import BuiltIndex, sorted_member_mask, term_bucket

def query_stems(query, stemmer=None, breaker=None) -> list[str]:
    """Query → sorted distinct stems (mirrors ``inverted_index.py:87-92``;
    sorted so score accumulation order is deterministic). ``stemmer``/
    ``breaker`` must match the ones the index was built with."""
    if isinstance(query, str):
        query = [query]
    _break = breaker or break_on_whitespace
    _stem = stemmer or stem
    words: list[str] = []
    for part in query:
        words.extend(_break(part))
    return sorted({_stem(w) for w in words})


def query_stem_counts(query, stemmer=None, breaker=None
                      ) -> list[tuple[str, int]]:
    """Query → (stem, multiplicity) pairs sorted by stem ascending —
    the NON-deduplicating variant of :func:`query_stems` for scorers
    where the query-side term frequency matters (query likelihood)."""
    if isinstance(query, str):
        query = [query]
    _break = breaker or break_on_whitespace
    _stem = stemmer or stem
    counts: dict[str, int] = {}
    for part in query:
        for w in _break(part):
            s = _stem(w)
            counts[s] = counts.get(s, 0) + 1
    return sorted(counts.items())


def _tf_factor(tfs: np.ndarray, dls: np.ndarray, avgdl: float,
               k1: float, b: float) -> np.ndarray:
    # Same expression shape as oracle.bm25_tf_factor → bit-identical float64.
    return (tfs * (k1 + 1.0)) / (tfs + k1 * (1.0 - b + b * dls / avgdl))


def check_k(k: int) -> bool:
    """Validate a top-k size: raises for ``k < 0``; False means the
    answer is empty (``k == 0``) and the caller returns ``[]``."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return k > 0


def top_k(ids: np.ndarray, scores: np.ndarray, k: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """The *k* best of parallel (doc_id, score) arrays, ordered
    (score desc, doc_id asc). ``argpartition`` narrows to the k best
    scores in O(n), then the exact lexsort runs only over the candidates
    ≥ the k-th score, so every tie with it survives and the
    deterministic tie-break holds."""
    if ids.size > k:
        kth = np.argpartition(-scores, k - 1)[:k]
        cand = np.flatnonzero(scores >= scores[kth].min())
        ids, scores = ids[cand], scores[cand]
    sel = np.lexsort((ids, -scores))[:k]
    return ids[sel], scores[sel]


def _lev_within(a: str, b: str, d: int) -> int | None:
    """Levenshtein distance of *a*, *b* if ≤ *d*, else None — banded DP
    (only the 2d+1 diagonals that can stay within budget are evaluated),
    O(d·min(len)) per pair. Candidates arrive length-band pruned, so the
    common early exit is the |len| gap check."""
    la, lb = len(a), len(b)
    if abs(la - lb) > d:
        return None
    if a == b:
        return 0
    # ensure b is the longer string (band is indexed off a's positions)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        lo = max(1, i - d)
        hi = min(lb, i + d)
        cur = [i] + [d + 1] * lb
        ca = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ca == b[j - 1] else 1
            best = prev[j - 1] + cost
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            cur[j] = best
        if min(cur[lo:hi + 1]) > d:
            return None
        prev = cur
    return prev[lb] if prev[lb] <= d else None


class SortedTermMap:
    """Binary-search lookups over a SORTED Arrow string array.

    The load-time alternative to a vocab-sized Python dict: building
    459k-entry ``dict``s (plus ``to_pylist`` of the vocab) cost ~1.0 s of
    the 1.8 s searcher load; keeping the vocab as the Arrow dictionary
    array costs nothing at load and each lookup materializes only the
    O(log n) probed entries. UTF-8 byte order equals code-point order, so
    Arrow's sort order agrees with Python ``str`` comparison.
    """

    __slots__ = ("arr", "n")

    def __init__(self, arr: pa.Array):
        self.arr = arr
        self.n = len(arr)

    def bisect_left(self, term: str) -> int:
        lo, hi = 0, self.n
        arr = self.arr
        while lo < hi:
            mid = (lo + hi) >> 1
            if arr[mid].as_py() < term:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def index(self, term: str) -> int:
        """Position of *term*, or -1 if absent."""
        i = self.bisect_left(term)
        if i < self.n and self.arr[i].as_py() == term:
            return i
        return -1


class LocalSearcher:
    """Warm in-memory searcher over (a subset of) a built index.

    ``buckets=None`` loads every bucket (single-node serving); a search
    actor in a pool passes its assigned bucket list instead. Postings stay
    varint-compressed in memory; rows decode on demand per query.
    """

    def __init__(self, index: BuiltIndex, buckets: list[int] | None = None,
                 pinned_doc_ids: set[int] | None = None,
                 stemmer=None, breaker=None, warm_top_terms: int = 32):
        from .build import load_tombstones

        self._stats = index.stats
        self._stemmer = stemmer
        self._breaker = breaker
        self._pinned = np.array(sorted(pinned_doc_ids or ()), dtype=np.int64)
        # delete_docs visibility set (sorted; empty when no deletions):
        # deleted docs never appear in any result — deletion beats
        # pinning — while N/df/avgdl stay frozen until compact_index
        # purges (the Lucene-style visibility/statistics split)
        self._tomb = load_tombstones(index.root)
        dset = pads.dataset(index.postings_dir, partitioning="hive")
        filt = None
        if buckets is not None:
            filt = pc.field("bucket").isin(buckets)
        tbl = dset.to_table(filter=filt,
                            columns=["term", "part", "df", "max_impact",
                                     "doc_ids_enc", "tfs_enc", "dls_enc"])
        self._ingest(tbl)
        self._init_cache(warm_top_terms)

    def _ingest(self, tbl: pa.Table) -> None:
        """Arrow-native load: one vectorized (term, part) sort, run-length
        term slices, reduceat global df — the encoded posting buffers stay
        as Arrow binary columns (no per-row ``to_pylist`` copies; the r1
        load path cost 4.1 s at 459k terms, this is ~10x less). The vocab
        stays a sorted Arrow array behind :class:`SortedTermMap` — no
        vocab-sized Python dicts/lists are ever built (r3's load spent
        ~1.0 s of 1.8 s on them at 459k terms)."""
        n = tbl.num_rows
        order = pc.sort_indices(
            tbl, sort_keys=[("term", "ascending"), ("part", "ascending")])
        perm = order.to_numpy(zero_copy_only=False).astype(np.int64)
        # only the SMALL columns are materialized in sorted order; the
        # encoded posting buffers (the ~100s of MB) stay exactly as read
        # and are indexed through the permutation at decode time — the
        # r4 load profile showed take+combine of the binary columns was
        # the dominant first-touch cost of a cold load
        self._perm = perm
        self._part = (tbl["part"].to_numpy(zero_copy_only=False)
                      .astype(np.int64)[perm])
        df_row = (tbl["df"].to_numpy(zero_copy_only=False)
                  .astype(np.int64)[perm])
        # raw stored block-max bounds; the avgdl-drift correction
        # (impact_correction — extends AND federated global-stats
        # overrides can both change avgdl after ingest) is applied at
        # the pruning site so stats overrides never require re-ingest
        self._imp = (tbl["max_impact"].to_numpy(zero_copy_only=False)
                     .astype(np.float64)[perm])
        self._denc = tbl["doc_ids_enc"]
        self._tenc = tbl["tfs_enc"]
        self._lenc = tbl["dls_enc"]
        # global-df override (doc-partitioned serving) and federated
        # global-stats override — both unset by default
        self._gdf: tuple[SortedTermMap, np.ndarray] | None = None
        self._global_stats_active = False
        if n == 0:
            self._terms = SortedTermMap(pa.array([], type=pa.string()))
            self._starts = np.empty(0, dtype=np.int64)
            self._ends = np.empty(0, dtype=np.int64)
            self._df_values = np.empty(0, dtype=np.int64)
            return
        enc = pc.dictionary_encode(
            pc.take(tbl["term"], order)).combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        change = np.ones(n, dtype=bool)
        change[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        # dictionary order is first-occurrence of a sorted column ≡ sorted
        self._terms = SortedTermMap(enc.dictionary)
        self._starts = starts
        self._ends = ends
        self._df_values = np.add.reduceat(df_row, starts)

    def _term_slice(self, term: str) -> tuple[int, int] | None:
        """Row range [s, e) of *term*'s posting rows, or None."""
        vi = self._terms.index(term)
        if vi < 0:
            return None
        return int(self._starts[vi]), int(self._ends[vi])

    def _drop_deleted(self, ids: np.ndarray) -> np.ndarray:
        """Remove tombstoned doc_ids from an ASCENDING id array."""
        if self._tomb.size == 0 or ids.size == 0:
            return ids
        dead = sorted_member_mask(self._tomb, ids)
        return ids[~dead] if dead.any() else ids

    def _df_of(self, term: str) -> int:
        """Document frequency of *term* — the global override when set
        (doc-partitioned serving), else this searcher's own postings."""
        if self._gdf is not None:
            tmap, vals = self._gdf
            i = tmap.index(term)
            return int(vals[i]) if i >= 0 else 0
        i = self._terms.index(term)
        return int(self._df_values[i]) if i >= 0 else 0

    def set_global_df(self, df: pa.Table) -> None:
        """Replace per-searcher df with GLOBAL df (the doc-partitioned
        serving shape, ``serve.SearchService``) — invalidates the cached
        per-row contribution arrays, which bake in idf. *df* is an Arrow
        table with term-ASCENDING (term, df) columns (the persisted
        per-bucket ``_df.parquet`` concatenation) — it stays an Arrow
        array + numpy vector here, never a Python dict, so the broadcast
        is one plasma-shared buffer per node."""
        terms = df["term"].combine_chunks() if df.num_rows else pa.array(
            [], type=pa.string())
        vals = df["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        self._gdf = (SortedTermMap(terms), vals)
        self._contrib.clear()

    def set_global_stats(self, num_documents: int, total_doc_len: int,
                         df: pa.Table) -> None:
        """Federated (DFS query-then-fetch) override: score THIS index's
        postings with CROSS-INDEX global statistics — N, total doc
        length (⇒ avgdl), and the merged (term, df) table — so a
        federation of independently built indexes ranks bit-identically
        to one merged index (``pipelines/federated.py``). Block-max
        pruning stays exact: the avgdl this index's stored bounds were
        computed with is frozen into ``min_merge_avgdl``, and
        ``impact_correction`` re-validates them under the global avgdl.
        Clears the decoded cache (the cached tf-factor arrays bake
        avgdl) and, via :meth:`set_global_df`, the contribution cache
        (which bakes idf)."""
        import dataclasses
        st = self._stats
        own = st.min_merge_avgdl if st.min_merge_avgdl is not None \
            else st.avgdl
        self._stats = dataclasses.replace(
            st, num_documents=num_documents, total_doc_len=total_doc_len,
            min_merge_avgdl=own)
        self.set_global_df(df)
        self._decoded.clear()
        self._decoded_bytes = 0
        self._global_stats_active = True

    def _init_cache(self, warm_top_terms: int) -> None:
        # decoded-postings cache: hot terms (import/def/...) decode once
        # per searcher, not once per query; bounded LRU-ish eviction
        self._decoded: dict[int, tuple] = {}  # row index → decoded arrays
        # row index → idf(term) * tf_factor — FULLY constant per searcher
        # (df, N, avgdl, k1, b are all fixed at load), so the hot-query
        # scoring loop is a pure cached-array scatter-add. Rebuilt lazily;
        # cleared by set_global_df (idf changes) and on decode eviction.
        self._contrib: dict[int, np.ndarray] = {}
        # must hold warm_top_terms decoded hot rows (32 hot terms on the
        # 150k bench ≈ 115 MB) — a budget below that evicts the warm set
        # during warming and the first hot query pays the decode anyway
        self._decoded_budget = 256 << 20
        self._decoded_bytes = 0
        # eagerly decode the highest-df terms so the first hot-term query
        # doesn't pay the cold decode (p99 was dominated by it)
        if warm_top_terms and self._terms.n:
            hot = np.argsort(-self._df_values)[:warm_top_terms]
            for vi in hot.tolist():
                term = self._terms.arr[vi].as_py()
                s, e = int(self._starts[vi]), int(self._ends[vi])
                for i in range(s, e):
                    self._decode_row(term, i)

    def _decode_row(self, term: str, i: int):
        # key on the ROW index: with segmented indexes (extend_index) a
        # (term, part) pair can own one row per segment — keying on the
        # pair would alias distinct rows
        key = i
        hit = self._decoded.get(key)
        if hit is not None:
            return hit
        j = int(self._perm[i])  # encoded columns are in as-read order
        doc_ids = plib.decode_doc_ids(self._denc[j].as_py())
        tfs = plib.decode_varints(self._tenc[j].as_py()).astype(np.float64)
        dls = plib.decode_varints(self._lenc[j].as_py()).astype(np.float64)
        # the BM25 tf-factor depends only on per-index constants
        # (avgdl/k1/b) and this row's tf/dl — precompute it ONCE per
        # decode instead of per query (it was the warm-query hot spot:
        # score = idf * factor is one multiply per posting now, the same
        # float64 expression shape so scores stay bit-identical)
        st = self._stats
        fac = _tf_factor(tfs, dls, st.avgdl, st.k1, st.b)
        # doc ids relative to this row's dense-buffer base — precomputed
        # so the dense scatter-add indexes the cached array directly
        rel = doc_ids - (np.int64(self._part[i]) << np.int64(
            st.doc_part_bits))
        out = (doc_ids, tfs, dls, fac, rel)
        size = out[0].nbytes * 5
        if self._decoded_bytes + size > self._decoded_budget:
            self._decoded.clear()
            self._contrib.clear()
            self._decoded_bytes = 0
        self._decoded[key] = out
        self._decoded_bytes += size
        return out

    # -- boolean -------------------------------------------------------

    def match(self, query) -> np.ndarray:
        """Disjunctive match → ascending doc_ids (≡ insertion order),
        pinned docs always included."""
        stems = query_stems(query, self._stemmer, self._breaker)
        arrays = [self._pinned] if self._pinned.size else []
        for term in stems:
            sl = self._term_slice(term)
            if sl is None:
                continue
            for i in range(sl[0], sl[1]):
                arrays.append(self._decode_row(term, i)[0])
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return self._drop_deleted(np.unique(np.concatenate(arrays)))

    def _term_docs(self, term: str) -> np.ndarray:
        """All doc_ids holding *term*, ascending unique. A doc lives in
        exactly one segment row (disjoint id ranges), so the concat has
        no duplicates — but on multi-segment (extended) indexes the same
        (term, part) pair owns one row per segment in FILE-DISCOVERY
        order (``segment_10`` sorts before ``segment_2``), so the concat
        is not globally sorted and must be sorted here: downstream set
        ops (``intersect1d(assume_unique=True)``, ``searchsorted``
        membership in ``bm25(allowed=)``) require ascending input."""
        sl = self._term_slice(term)
        if sl is None:
            return np.empty(0, dtype=np.int64)
        arrays = [self._decode_row(term, i)[0] for i in range(sl[0], sl[1])]
        return arrays[0] if len(arrays) == 1 else np.sort(
            np.concatenate(arrays))

    def term_postings(self, term: str
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids, tfs, dls) for *term* across every segment row,
        doc-ascending (multi-segment concat re-sorted, same contract as
        ``_term_docs``). The raw-posting accessor composite scorers
        (e.g. the BM25F fielded combiner) build on."""
        sl = self._term_slice(term)
        if sl is None:
            e = np.empty(0, dtype=np.int64)
            return e, e, np.empty(0, dtype=np.float64)
        rows = [self._decode_row(term, i)[:3] for i in range(sl[0], sl[1])]
        if len(rows) == 1:
            return rows[0]
        ids = np.concatenate([r[0] for r in rows])
        tfs = np.concatenate([r[1] for r in rows])
        dls = np.concatenate([r[2] for r in rows])
        order = np.argsort(ids, kind="stable")
        return ids[order], tfs[order], dls[order]

    def match_all(self, query) -> np.ndarray:
        """CONJUNCTIVE match — docs containing EVERY distinct query term
        (the AND the reference's disjunctive ``match`` lacks; real query
        languages need both). Ascending doc_ids; pinned docs always
        included (same pinning contract as ``match``); empty query →
        exactly the pinned set. Terms intersect smallest-df first, so
        the working set shrinks as fast as possible."""
        stems = query_stems(query, self._stemmer, self._breaker)
        if not stems:
            # deletion beats pinning on EVERY surface (delete_docs)
            return self._drop_deleted(self._pinned.copy())
        by_df = sorted(stems, key=self._df_of)
        cur = self._term_docs(by_df[0])
        for term in by_df[1:]:
            if cur.size == 0:
                break
            cur = np.intersect1d(cur, self._term_docs(term),
                                 assume_unique=True)
        if self._pinned.size:
            cur = np.union1d(cur, self._pinned)
        return self._drop_deleted(cur)

    def match_andnot(self, query, exclude) -> np.ndarray:
        """Disjunctive *query* minus disjunctive *exclude* (the NOT
        shape: "matches A or B but never C"). Pinned docs are immune to
        negation — ``match`` guarantees their presence, and this keeps
        that contract."""
        pos = self.match(query)  # already tombstone-filtered
        stems = query_stems(exclude, self._stemmer, self._breaker)
        neg_arrays = [self._term_docs(t) for t in stems]
        neg_arrays = [a for a in neg_arrays if a.size]
        if not neg_arrays or pos.size == 0:
            return pos
        neg = np.unique(np.concatenate(neg_arrays))
        out = np.setdiff1d(pos, neg, assume_unique=True)
        if self._pinned.size:
            out = np.union1d(out, self._pinned)
        return self._drop_deleted(out)

    def suggest(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Autocomplete: top-*k* index terms with *prefix*, ranked
        (df desc, term asc) — the sorted-vocab range scan of
        ``match_prefix`` plus a bounded partial sort over the matched
        range's df values."""
        prefix = prefix.lower()
        if not prefix:
            return []
        arr = self._terms.arr
        lo = self._terms.bisect_left(prefix)
        hi = lo
        while hi < self._terms.n and arr[hi].as_py().startswith(prefix):
            hi += 1
        if hi == lo:
            return []
        if self._gdf is not None:
            # doc-partitioned serving: rank completions by GLOBAL df
            # (suggest_correction already does — the two autocomplete
            # surfaces must agree on the df source)
            dfs = np.array([self._df_of(arr[i].as_py())
                            for i in range(lo, hi)], dtype=np.int64)
        else:
            dfs = self._df_values[lo:hi]
        order = np.lexsort((np.arange(hi - lo), -dfs))[:k]
        return [(arr[lo + int(o)].as_py(), int(dfs[o])) for o in order]

    def match_atleast(self, query, m: int) -> np.ndarray:
        """MINIMUM-SHOULD-MATCH: docs containing at least *m* DISTINCT
        query terms — the dial between ``match`` (m=1) and ``match_all``
        (m=len(terms)) every real query language exposes. Each term's
        posting list holds a doc at most once, so a concat + unique-with-
        counts IS the distinct-term count per doc. Pinned docs always
        included; empty query → exactly the pinned set; m larger than
        the distinct term count matches nothing (not even partials)."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        stems = query_stems(query, self._stemmer, self._breaker)
        if not stems:
            # deletion beats pinning on EVERY surface (delete_docs)
            return self._drop_deleted(self._pinned.copy())
        arrays = [self._term_docs(t) for t in stems]
        arrays = [a for a in arrays if a.size]
        out = np.empty(0, dtype=np.int64)
        if arrays and len(arrays) >= m:
            ids, counts = np.unique(np.concatenate(arrays),
                                    return_counts=True)
            out = ids[counts >= m]
        if self._pinned.size:
            out = np.union1d(out, self._pinned)
        return self._drop_deleted(out)

    def _union_vocab_rows_raw(self, vocab_indices) -> np.ndarray:
        """RAW union of postings for a set of vocabulary positions →
        ascending unique doc_ids; no pinning, no tombstone filter (the
        query-expression evaluator composes set ops over raw leaves and
        applies both contracts once at the top)."""
        arrays = []
        for vi in vocab_indices:
            s, e = int(self._starts[vi]), int(self._ends[vi])
            term = self._terms.arr[int(vi)].as_py()
            for i in range(s, e):
                arrays.append(self._decode_row(term, i)[0])
        if not arrays:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(arrays))

    def _union_vocab_rows(self, vocab_indices) -> np.ndarray:
        """Union of postings for a set of vocabulary positions →
        ascending unique doc_ids (pinned included, tombstones dropped)."""
        out = self._union_vocab_rows_raw(vocab_indices)
        if self._pinned.size:
            out = np.union1d(out, self._pinned)
        return self._drop_deleted(out)

    def _vocab_indices(self, kind: str, text: str,
                       max_dist: int = 1) -> np.ndarray:
        """Vocabulary positions matching a dictionary predicate:
        ``prefix`` (sorted-range scan), ``suffix`` / ``contains`` /
        ``regex`` (one vectorized sweep), ``fuzzy`` (length-band prune +
        banded DP). *text* is lowercased to match both index modes'
        normalization — except ``regex``, where lowercasing would corrupt
        metacharacter classes (``[A-Z]``); the vocabulary is lowercase,
        so callers write lowercase literals in their patterns."""
        if kind == "regex":
            if not text or self._terms.n == 0:
                return np.empty(0, dtype=np.int64)
            # RE2 syntax, partial match — the same semantics as DuckDB's
            # regexp_matches, which keeps this surface value-exactly
            # oracle-able
            mask = pc.match_substring_regex(self._terms.arr, pattern=text)
            return np.flatnonzero(mask.to_numpy(zero_copy_only=False))
        text = text.lower()
        if not text or self._terms.n == 0:
            return np.empty(0, dtype=np.int64)
        if kind == "prefix":
            arr = self._terms.arr
            lo = self._terms.bisect_left(text)
            hi = lo
            while hi < self._terms.n and arr[hi].as_py().startswith(text):
                hi += 1
            return np.arange(lo, hi, dtype=np.int64)
        if kind == "suffix":
            mask = pc.ends_with(self._terms.arr, pattern=text)
            return np.flatnonzero(mask.to_numpy(zero_copy_only=False))
        if kind == "contains":
            mask = pc.match_substring(self._terms.arr, pattern=text)
            return np.flatnonzero(mask.to_numpy(zero_copy_only=False))
        if kind == "fuzzy":
            return np.array(
                [vi for vi, _term, _d
                 in self._fuzzy_candidates(text, max_dist)],
                dtype=np.int64)
        raise ValueError(f"unknown vocab predicate {kind!r}")

    def _vocab_match_docs(self, kind: str, text: str,
                          max_dist: int = 1) -> np.ndarray:
        """RAW doc-id union for a dictionary predicate (see
        :meth:`_vocab_indices`) — the query-expression leaf primitive."""
        return self._union_vocab_rows_raw(
            self._vocab_indices(kind, text, max_dist))

    def _stem_token(self, token: str) -> str:
        """Stem a single whitespace-free token with this index's stemmer."""
        return (self._stemmer or stem)(token)

    def _vocab_lengths(self) -> np.ndarray:
        """Per-term UTF-8 code-point lengths of the vocabulary (computed
        vectorized once per searcher, cached — shared by the fuzzy
        length-band prune)."""
        lens = getattr(self, "_vlen", None)
        if lens is None:
            if self._terms.n:
                lens = pc.utf8_length(self._terms.arr).to_numpy(
                    zero_copy_only=False).astype(np.int64)
            else:
                lens = np.empty(0, dtype=np.int64)
            self._vlen = lens
        return lens

    def _fuzzy_candidates(self, token: str, max_dist: int
                          ) -> list[tuple[int, str, int]]:
        """(vocab_index, term, distance) for every vocabulary term within
        Levenshtein ``max_dist`` of *token* (lowercased), vocab order —
        THE fuzzy primitive (match_fuzzy / fuzzy_terms /
        suggest_correction all consume it).

        Candidate generation is a vectorized length-band prune
        (|len(t) − len(q)| ≤ d bounds the distance from below), then the
        exact banded DP verifies each candidate. The vocabulary is
        orders of magnitude smaller than the corpus, so an O(vocab)
        prune per query token is cheap (14–58 ms at 459k terms, see
        BASELINE.md); at extreme vocabularies the persisted SymSpell
        deletion-neighborhood index (``pipelines/fuzzy.py``) makes this
        O(len(q)^d) probes — same verify step."""
        token = token.lower()
        if not token or self._terms.n == 0:
            return []
        lens = self._vocab_lengths()
        band = np.flatnonzero(np.abs(lens - len(token)) <= max_dist)
        if band.size == 0:
            return []
        cand = pc.take(self._terms.arr, pa.array(band)).to_pylist()
        out = []
        for vi, term in zip(band.tolist(), cand):
            d = _lev_within(token, term, max_dist)
            if d is not None:
                out.append((vi, term, d))
        return out

    def fuzzy_terms(self, token: str, max_dist: int = 1
                    ) -> list[tuple[str, int]]:
        """Vocabulary terms within Levenshtein distance ``max_dist`` of
        *token* (lowercased), as (term, distance) in vocab (= term-
        ascending) order. See :meth:`_fuzzy_candidates`."""
        return [(term, d) for _vi, term, d
                in self._fuzzy_candidates(token, max_dist)]

    def match_fuzzy(self, token: str, max_dist: int = 1) -> np.ndarray:
        """FUZZY match: docs containing ANY vocabulary term within
        Levenshtein distance ``max_dist`` of *token* — the typo-tolerant
        query shape (``spark~1``). Exact expansion (length-band prune +
        banded DP, :meth:`fuzzy_terms`), postings union."""
        if not token.strip():
            return self._drop_deleted(self._pinned.copy())
        return self._union_vocab_rows(
            self._vocab_indices("fuzzy", token, max_dist))

    def match_suffix(self, suffix: str) -> np.ndarray:
        """Docs containing ANY term ending in *suffix* — the ``*ing``
        wildcard, answered as ONE vectorized ``ends_with`` sweep over the
        sorted vocabulary + postings union. The vocab sweep is O(vocab)
        per query (vocab ≪ corpus); a reversed-term dictionary would make
        it an O(log V) range scan — same trade the prefix path already
        banks on, documented scale path. Empty suffix matches nothing."""
        if not suffix:
            return np.empty(0, dtype=np.int64)
        return self._union_vocab_rows(self._vocab_indices("suffix", suffix))

    def _reversed_vocab(self) -> tuple["SortedTermMap | None", np.ndarray]:
        """Reversed-term dictionary: the vocabulary with each term's
        code points reversed, sorted ascending, plus the permutation
        mapping reversed-sorted positions back to original vocabulary
        indices. Built vectorized ONCE per searcher on first use
        (``utf8_reverse`` + one sort — O(V log V), ~the cost of a single
        ``ends_with`` sweep) and cached; every subsequent leading
        wildcard is an O(log V) range scan. UTF-8 byte order equals
        code-point order, so reversed-prefix ranges are contiguous."""
        rv = getattr(self, "_rvidx", None)
        if rv is None:
            if self._terms.n:
                rev = pc.utf8_reverse(self._terms.arr)
                perm = pc.sort_indices(rev).to_numpy(
                    zero_copy_only=False).astype(np.int64)
                arr = pc.take(rev, pa.array(perm))
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                rv = (SortedTermMap(arr), perm)
            else:
                rv = (None, np.empty(0, dtype=np.int64))
            self._rvidx = rv
        return rv

    def match_suffix_indexed(self, suffix: str) -> np.ndarray:
        """Docs containing ANY term ending in *suffix*, answered from
        the REVERSED-term dictionary (:meth:`_reversed_vocab`): the
        ``*ing`` leading wildcard becomes a prefix range scan —
        ``bisect`` to the first reversed candidate, walk while the
        reversed prefix holds (terms visited = terms matched), union
        postings. O(log V + matches) per query vs the O(V) ``ends_with``
        sweep of :meth:`match_suffix` — the scale path that method's
        docstring banks on. Result sets are identical (pytest-pinned)."""
        if not suffix:
            return np.empty(0, dtype=np.int64)
        rmap, perm = self._reversed_vocab()
        if rmap is None:
            return np.empty(0, dtype=np.int64)
        pre = suffix.lower()[::-1]
        lo = rmap.bisect_left(pre)
        hi = lo
        arr = rmap.arr
        while hi < rmap.n and arr[hi].as_py().startswith(pre):
            hi += 1
        return self._union_vocab_rows(np.sort(perm[lo:hi]))

    def match_contains(self, infix: str) -> np.ndarray:
        """Docs containing ANY term with *infix* as a substring — the
        ``*foo*`` wildcard: one vectorized ``match_substring`` vocab
        sweep + postings union. Empty infix matches nothing."""
        if not infix:
            return np.empty(0, dtype=np.int64)
        return self._union_vocab_rows(self._vocab_indices("contains", infix))

    def match_regex(self, pattern: str) -> np.ndarray:
        """Docs containing ANY vocabulary term matching *pattern* (RE2,
        partial match — anchor with ``^``/``$`` for whole-term matches):
        one vectorized ``match_substring_regex`` sweep over the sorted
        vocabulary + postings union, the suffix/infix wildcard shape
        generalized to full regular expressions. Like those, the sweep is
        O(vocab) per query with vocab ≪ corpus; patterns with a literal
        prefix could first narrow to the prefix's sorted range (the
        Lucene trick) — documented scale path. Empty pattern matches
        nothing."""
        if not pattern:
            return np.empty(0, dtype=np.int64)
        return self._union_vocab_rows(self._vocab_indices("regex", pattern))

    def suggest_correction(self, token: str, max_dist: int = 2,
                           k: int = 3) -> list[tuple[str, int, int]]:
        """Spell correction ("did you mean"): top-*k* vocabulary terms
        ranked (distance asc, df desc, term asc) within Levenshtein
        ``max_dist`` of *token* — the fuzzy expansion reranked the way a
        search box wants it: closest first, popularity breaks distance
        ties. Returns (term, distance, df) rows; an exact vocabulary hit
        ranks first at distance 0."""
        # _df_of honors the global-df override under doc-partitioned
        # serving
        rows = sorted((d, -self._df_of(term), term) for _vi, term, d
                      in self._fuzzy_candidates(token, max_dist))
        return [(term, d, -negdf) for d, negdf, term in rows[:k]]

    def match_prefix(self, prefix: str) -> np.ndarray:
        """Docs containing ANY term starting with *prefix* — the
        wildcard query shape (``pre*``), answered as a sorted-vocab
        range scan: ``bisect`` to the first candidate, walk while the
        prefix holds (terms visited = terms matched), union postings.
        Empty prefix matches nothing (a full-corpus wildcard is a scan,
        not a query). Prefix is lowercased to match both index modes'
        lowercase normalization; stemmed indexes match against STEMMED
        vocabulary (caller owns that contract, same as ``match``)."""
        if not prefix:
            return np.empty(0, dtype=np.int64)
        return self._union_vocab_rows(self._vocab_indices("prefix", prefix))

    # -- BM25 ----------------------------------------------------------

    def idf(self, term: str) -> float:
        df = self._df_of(term)
        n = self._stats.num_documents
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def _rank(self, terms, k, contrib, *, bound=None, finish=None,
              allowed=None, after=None) -> list[tuple[int, float]]:
        """The one ranking core behind :meth:`bm25`, :meth:`tfidf`,
        :meth:`query_likelihood` and :meth:`query_likelihood_jm`: top-k
        (doc_id, score), tie-break (score desc, doc_id asc).

        *terms* lists ``(term, s, e, info)`` for the query terms present
        here, ASCENDING by term, with [s, e) the term's posting rows.
        ``contrib(info, i, row)`` returns row *i*'s per-posting score
        contributions (``row`` is the :meth:`_decode_row` tuple).

        Exactness discipline (why every scorer is bit-identical to its
        oracle): each doc's score is the left fold, from 0.0, of its
        contributions in ascending term order — a doc appears at most
        once per row, so one fancy-indexed ``+=`` per row IS that fold
        (``np.add.reduceat`` is not: it right-associates). Partitions
        with ``doc_part_bits <= 22`` fold into a dense 2^bits buffer;
        larger ones take the sparse ``unique`` + ``searchsorted`` path.
        Touched slots are tracked explicitly, so docs whose
        contributions are all 0.0 still rank. ``finish(sums, dls)``
        (dls = each doc's length) runs AFTER the fold — the oracles'
        ``fold + normalizer`` expression order.

        ``bound(info, i)`` is an upper bound on any contribution of row
        *i*; given it, partitions are scored in descending
        ub(p) = Σ bound order and the rest skipped once ub(p) < the
        current k-th best score (block-max WAND at (term, partition)
        granularity — exact, since no doc in p can score above ub(p)).
        Without it partitions run ascending and none is skipped.

        Tombstoned docs never rank; ``allowed`` (sorted unique doc_ids)
        restricts candidates; ``after=(doc_id, score)`` keeps only docs
        strictly after that row in the result order (search-after)."""
        if not check_k(k) or not terms or (
                allowed is not None and allowed.size == 0):
            return []
        # one pass: (term, row) pairs grouped by doc-partition, in
        # ascending term then row order (the fold order), plus ub(p)
        groups: dict[int, list] = {}
        ub: dict[int, float] = defaultdict(float)
        for term, s, e, info in terms:
            for i, p in zip(range(s, e), self._part[s:e].tolist()):
                groups.setdefault(p, []).append((term, info, i))
                if bound is not None:
                    ub[p] += bound(info, i)
        order = (sorted(groups) if bound is None
                 else sorted(groups, key=lambda p: -ub[p]))
        bits = self._stats.doc_part_bits
        dense = bits <= 22
        if dense:
            buf = np.zeros(1 << bits, dtype=np.float64)
            seen = np.zeros(1 << bits, dtype=bool)
            dlb = (np.zeros(1 << bits, dtype=np.float64)
                   if finish is not None else None)
        best_ids = np.empty(0, dtype=np.int64)
        best = np.empty(0, dtype=np.float64)
        for p in order:
            if bound is not None and best.size == k and ub[p] < best[-1]:
                break  # no doc in any remaining partition can enter top-k
            rows = [(self._decode_row(term, i), info, i)
                    for term, info, i in groups[p]]
            if dense:
                for row, info, i in rows:
                    rel = row[4]  # ids relative to the partition base
                    buf[rel] += contrib(info, i, row)
                    seen[rel] = True
                    if finish is not None:
                        dlb[rel] = row[2]  # identical per doc across rows
                slots = np.flatnonzero(seen)
                seen[slots] = False
                uniq = slots + (p << bits)
                sums = buf[slots]
                dls = dlb[slots] if finish is not None else None
                buf[slots] = 0.0  # sparse reset for the next partition
            else:
                uniq = np.unique(np.concatenate([row[0]
                                                 for row, _, _ in rows]))
                sums = np.zeros(uniq.size, dtype=np.float64)
                dls = np.zeros(uniq.size, dtype=np.float64)
                for row, info, i in rows:
                    pos = np.searchsorted(uniq, row[0])
                    sums[pos] += contrib(info, i, row)
                    dls[pos] = row[2]
            if finish is not None:
                sums = finish(sums, dls)
            keep = ~sorted_member_mask(self._tomb, uniq)
            if allowed is not None:
                keep &= sorted_member_mask(allowed, uniq)
            if after is not None:
                a_d, a_s = after
                keep &= (sums < a_s) | ((sums == a_s) & (uniq > a_d))
            best_ids, best = top_k(np.concatenate((best_ids, uniq[keep])),
                                   np.concatenate((best, sums[keep])), k)
        return list(zip(best_ids.tolist(), best.tolist()))

    def bm25(self, query, k: int = 10,
             after: tuple[int, float] | None = None,
             allowed: np.ndarray | None = None,
             boosts: dict[str, float] | None = None
             ) -> list[tuple[int, float]]:
        """Top-k (doc_id, score), tie-break (score desc, doc_id asc).

        ``after=(doc_id, score)`` — a RESULT ROW — is the SEARCH-AFTER
        cursor: only docs
        strictly after the cursor in (score desc, doc_id asc) order are
        returned — pass the last row of a page to get the next page.
        Exact because scores are deterministic bit-identical floats, so
        ``bm25(q, k) + bm25(q, k, after=page[-1]) == bm25(q, 2k)``
        (pytest-pinned). Cheaper than deep top-k re-ranking at every
        page: the top-k set never holds more than k entries.

        ``allowed`` (sorted unique doc_ids, e.g. ``querylang.evaluate``
        output) is the FILTERED-SEARCH shape — only allowed docs rank;
        scores are unchanged (the filter restricts candidates, it never
        perturbs N/df/avgdl). Composes with ``after``.

        ``boosts`` maps query tokens to positive per-term weights
        (Lucene ``term^b``): each term's contribution becomes
        ``boost * (idf * tf_factor)`` and the block-max upper bounds
        scale with the boost, so WAND pruning stays exact. Omitted
        terms default to 1.0 (bit-identical to the unboosted query).

        Partition-level block-max pruning: for each doc-partition p the
        upper bound ub(p) = Σ_t idf(t)·max_impact(t,p) is computed from
        the stored block-max metadata; partitions are scored in
        descending ub order and skipped outright once ub(p) < the current
        k-th best score — the WAND idea at (term, doc-partition)-block
        granularity. Exactness: no document in p can score above ub(p).
        Exactness rules and filters: :meth:`_rank`.
        """
        # per-term query boosts (Lucene term^b): keys are raw tokens,
        # stemmed with this index's stemmer for lookup; must be positive
        # (the block-max upper bound scales linearly in the boost, so
        # pruning stays exact only for boost > 0)
        bmap: dict[str, float] = {}
        for tok, bv in (boosts or {}).items():
            if not bv > 0.0:
                raise ValueError(f"boost for {tok!r} must be > 0")
            bmap[self._stem_token(tok.lower())] = float(bv)
        terms = []
        for term in query_stems(query, self._stemmer, self._breaker):
            sl = self._term_slice(term)
            if sl is not None:
                terms.append((term, *sl,
                              (self.idf(term), bmap.get(term, 1.0))))
        # corr = 1.0 on single-generation indexes with their own stats;
        # >1 re-validates bounds frozen at a smaller avgdl (LSM extends,
        # federated global-stats overrides — tf_factor grows at most
        # linearly in avgdl, see IndexStats).
        corr = self._stats.impact_correction

        def bound(info, i):
            idf, boost = info
            return boost * (idf * (self._imp[i] * corr))

        def contrib(info, i, row):
            idf, boost = info
            c = self._contrib.get(i)
            if c is None:
                # idf is fixed per searcher → the whole per-row
                # contribution array is a constant; cache it under the
                # same budget discipline as _decode_row so the cache
                # can't transiently exceed the budget
                c = idf * row[3]
                if self._decoded_bytes + c.nbytes > self._decoded_budget:
                    self._decoded.clear()
                    self._contrib.clear()
                    self._decoded_bytes = 0
                self._contrib[i] = c
                self._decoded_bytes += c.nbytes
            # the cache stays boost-free (boosts vary per query); the
            # boosted product is the oracle's boost * (idf * tf_factor)
            return c if boost == 1.0 else boost * c

        return self._rank(terms, k, contrib, bound=bound, allowed=allowed,
                          after=after)

    def tfidf(self, query, k: int = 10) -> list[tuple[int, float]]:
        """Top-k by CLASSIC tf-idf — score(d) = Σ_t ln(N/df_t)·(1+ln(tf)),
        the log-tf / raw-idf weighting — as a second ranked scorer beside
        BM25 (exercises the same decoded postings through a different
        formula). No block-max pruning: the stored max_impact bounds are
        BM25 impacts, so this path scores every posting of every query
        term (exactness rules: :meth:`_rank`). Tie-break
        (score desc, doc_id asc). Docs whose every query term has
        df = N score 0.0 and still rank (ln(1) = 0 contributions)."""
        n = self._stats.num_documents
        terms = []
        for term in query_stems(query, self._stemmer, self._breaker):
            sl = self._term_slice(term)
            if sl is not None:
                terms.append((term, *sl, math.log(n / self._df_of(term))))
        return self._rank(
            terms, k, lambda idf, i, row: idf * (1.0 + np.log(row[1])))

    def _ql_terms(self, query, scorer: str) -> list[tuple]:
        """``(term, s, e, (qtf, ctf))`` for the query's collection-present
        terms, ascending — the shared input of both query-likelihood
        scorers. ctf is the exact Σ tf over the term's postings (every
        row decodes for scoring anyway)."""
        if self._global_stats_active:
            raise ValueError(
                f"{scorer} under set_global_stats is unsupported: "
                "ctf comes from THIS index's postings while C would be "
                "the federation's global token count — the mixed "
                "statistics match neither the local nor the merged "
                "oracle. Run QL against the merged index, or extend "
                "set_global_stats with a global ctf table first.")
        terms = []
        for term, qtf in query_stem_counts(query, self._stemmer,
                                           self._breaker):
            sl = self._term_slice(term)
            if sl is not None:
                ctf = sum(int(self._decode_row(term, i)[1].sum())
                          for i in range(*sl))
                terms.append((term, *sl, (float(qtf), float(ctf))))
        return terms

    def query_likelihood(self, query, k: int = 10, mu: float = 2000.0
                         ) -> list[tuple[int, float]]:
        """Top-k by the Dirichlet-smoothed query-likelihood language
        model (Zhai & Lafferty 2001) — the third ranked scorer, and the
        one that exercises COLLECTION term frequency (ctf):

            score(d) = Σ_t qtf(t) · ln(1 + tf(t,d) / (μ · ctf_t / C))
                       + |q| · ln(μ / (dl_d + μ))

        with C = total collection tokens, qtf = the term's multiplicity
        in the query (:func:`query_stem_counts` — queries are NOT
        deduplicated here), and |q| = Σ qtf over query terms that exist
        in the collection (out-of-vocabulary terms have p(t|C) = 0 and
        drop from both the sum and |q| — the standard convention).
        Candidates are docs matching ≥1 query term; ctf is the exact
        Σ tf over the term's postings (no pruning applies, the stored
        impacts bound BM25, not QL). The dl-dependent normalizer is
        added AFTER the ascending-term fold (the oracle's
        ``list_aggregate(...) + qlen·ln(μ/(dl+μ))`` shape; exactness
        rules: :meth:`_rank`), tie-break (score desc, doc_id asc)."""
        terms = self._ql_terms(query, "query_likelihood")
        coll = float(self._stats.total_doc_len)
        qlen = sum(qtf for *_, (qtf, _ctf) in terms)
        return self._rank(
            terms, k,
            # same float64 shape as the oracle:
            # qtf * ln(1.0 + tf / (mu * (ctf / C)))
            lambda qc, i, row: qc[0] * np.log(
                1.0 + row[1] / (mu * (qc[1] / coll))),
            finish=lambda sums, dls: sums + qlen * np.log(mu / (dls + mu)))

    def query_likelihood_jm(self, query, k: int = 10, lam: float = 0.7
                            ) -> list[tuple[int, float]]:
        """Top-k by the Jelinek-Mercer-smoothed query-likelihood model
        (Zhai & Lafferty 2001) — linear interpolation instead of
        Dirichlet's dl-dependent prior:

            score(d) = Σ_t qtf·ln(1 + ((1-λ)/λ)·(tf/dl)/(ctf/C))
                       + Σ_t qtf·ln(λ·ctf/C)

        i.e. ln Π_t ((1-λ)·tf/dl + λ·ctf/C)^qtf decomposed into a
        per-doc fold over MATCHED terms plus a query-only constant
        (both restricted to collection-present terms, the standard OOV
        convention; candidates are docs matching ≥1 present term —
        same rank universe as :meth:`query_likelihood`). The constant
        is added AFTER the ascending-term fold (the oracle's
        ``list_aggregate(...) + qconst`` shape; exactness rules:
        :meth:`_rank`), tie-break (score desc, doc_id asc)."""
        if not 0.0 < lam < 1.0:
            raise ValueError("lam must be in (0, 1)")
        terms = self._ql_terms(query, "query_likelihood_jm")
        coll = float(self._stats.total_doc_len)
        ratio = (1.0 - lam) / lam
        qconst = 0.0
        for *_, (qtf, ctf) in terms:  # same ascending order as the fold
            qconst += qtf * math.log(lam * (ctf / coll))
        return self._rank(
            terms, k,
            # same float64 shape as the oracle:
            # qtf * ln(1 + ratio * ((tf/dl) / (ctf/C)))
            lambda qc, i, row: qc[0] * np.log(
                1.0 + ratio * ((row[1] / row[2]) / (qc[1] / coll))),
            finish=lambda sums, _dls: sums + qconst)

    def explain(self, query, doc_id: int) -> dict:
        """Per-term BM25 score breakdown for one (query, doc) — the
        Lucene ``explain()`` surface. Returns ``{"doc_id", "score",
        "terms": [{term, tf, df, dl, idf, tf_factor, contribution}]}``
        with terms ascending and ``score`` accumulated as the SAME
        left fold over ``idf * tf_factor`` the ranked scorer runs
        (:meth:`bm25` scatter-adds per ascending term from 0.0), so
        ``explain(q, d)["score"]`` is bit-identical to the score
        :meth:`bm25` would rank *d* with (pytest-pinned). A tombstoned
        doc raises — it can never appear in a ranking."""
        stats = self._stats
        doc_id = int(doc_id)
        tomb_pos = np.searchsorted(self._tomb, doc_id)
        if tomb_pos < self._tomb.size and self._tomb[tomb_pos] == doc_id:
            raise KeyError(f"doc {doc_id} is tombstoned")
        part = doc_id >> stats.doc_part_bits
        terms_out: list[dict] = []
        score = 0.0
        for term in query_stems(query, self._stemmer, self._breaker):
            sl = self._term_slice(term)
            if sl is None:
                continue
            idf = self.idf(term)
            for i in range(sl[0], sl[1]):
                if self._part[i] != part:
                    continue
                row = self._decode_row(term, i)
                pos = int(np.searchsorted(row[0], doc_id))
                if pos >= row[0].size or row[0][pos] != doc_id:
                    continue
                contribution = idf * row[3][pos]  # ≡ bm25's idf·factor
                terms_out.append({
                    "term": term,
                    "tf": int(row[1][pos]),
                    "df": self._df_of(term),
                    "dl": int(row[2][pos]),
                    "idf": float(idf),
                    "tf_factor": float(row[3][pos]),
                    "contribution": float(contribution),
                })
                score += contribution
        return {"doc_id": doc_id, "score": float(score),
                "terms": terms_out}


# -- Dataset-shaped one-off paths (no warm server) ----------------------


def _load_rows_for_terms(index: BuiltIndex, stems: list[str]):
    """Read only the posting rows for *stems*: bucket partitions prune the
    file set, the term filter prunes row groups within them."""
    if not stems:
        return pa.table({"term": pa.array([], type=pa.string())})
    buckets = sorted({term_bucket(s, index.stats.num_term_buckets)
                      for s in stems})
    dset = pads.dataset(index.postings_dir, partitioning="hive")
    return dset.to_table(
        filter=pc.field("bucket").isin(buckets) & pc.field("term").isin(stems),
        columns=["term", "part", "df", "max_impact",
                 "doc_ids_enc", "tfs_enc", "dls_enc"])


def _drop_tombstoned(index: BuiltIndex, ids: np.ndarray) -> np.ndarray:
    """Tombstone filter for the one-off (serverless) query paths."""
    from .build import load_tombstones

    tomb = load_tombstones(index.root)
    if tomb.size == 0 or ids.size == 0:
        return ids
    dead = sorted_member_mask(tomb, ids)
    return ids[~dead] if dead.any() else ids


def match_doc_ids(index: BuiltIndex, query,
                  pinned_doc_ids: set[int] | None = None) -> np.ndarray:
    """One-off boolean match straight off the Parquet index."""
    stems = query_stems(query)
    tbl = _load_rows_for_terms(index, stems)
    arrays = [np.array(sorted(pinned_doc_ids), dtype=np.int64)] if pinned_doc_ids else []
    if tbl.num_rows:
        for buf in tbl["doc_ids_enc"].to_pylist():
            arrays.append(plib.decode_doc_ids(buf))
    if not arrays:
        return np.empty(0, dtype=np.int64)
    return _drop_tombstoned(index, np.unique(np.concatenate(arrays)))


def highlight(query, text: str) -> str:
    """Wrap whitespace tokens whose stem matches a query stem in
    ``[bold green]`` markup — reference ``Index.highlight``
    (``inverted_index.py:103-129``), including its quirk of stemming the
    raw (punctuation-bearing) token for the membership test."""
    import re
    stems = set(query_stems(query))
    parts = re.split(r"(\s+)", text)
    out = []
    for part in parts:
        if part and not part.isspace() and stem(part) in stems:
            out.append(f"[bold green]{part}[/bold green]")
        else:
            out.append(part)
    return "".join(out)


def highlight_matches(index: BuiltIndex, corpus, query,
                      pinned_doc_ids: set[int] | None = None):
    """Boolean match + per-row highlight map over the matched corpus rows
    (M6 as a batch transform over the semi-joined match set)."""
    matched = match_dataset(index, corpus, query, pinned_doc_ids)

    def mark(batch: pa.Table) -> pa.Table:
        texts = [highlight(query, t) for t in batch["content"].to_pylist()]
        return batch.set_column(batch.schema.get_field_index("content"),
                                "content", pa.array(texts, type=pa.large_string()))

    return matched.map_batches(mark, batch_format="pyarrow")


def match_dataset(index: BuiltIndex, corpus, query,
                  pinned_doc_ids: set[int] | None = None):
    """Reference ``match()`` end-to-end: returns the matching *corpus rows*
    in insertion order — a semi-join of the corpus against the matched
    doc_id set (broadcast as a sorted array into each filter batch),
    then ``sort("doc_id")`` (SURVEY.md §2.4 J3)."""
    ids = match_doc_ids(index, query, pinned_doc_ids)

    def keep(batch):
        mask = pc.is_in(batch["doc_id"], value_set=pa.array(ids))
        return batch.filter(mask)

    return corpus.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def bm25_dataset(index: BuiltIndex, query, k: int = 10) -> list[tuple[int, float]]:
    """One-off BM25 top-k straight off the Parquet index (no warm
    searcher): reads only the query terms' posting rows via bucket + term
    pushdown, then scores with the same left-fold term order as
    :class:`LocalSearcher` — rank- and score-identical."""
    if not check_k(k):
        return []
    stats = index.stats
    stems = query_stems(query)
    tbl = _load_rows_for_terms(index, stems)
    if tbl.num_rows == 0:
        return []
    avgdl, k1, b = stats.avgdl, stats.k1, stats.b
    n = stats.num_documents
    # group rows per term (global df across parts first, for idf)
    by_term: dict[str, list[int]] = {}
    terms = tbl["term"].to_pylist()
    for i, t in enumerate(terms):
        by_term.setdefault(t, []).append(i)
    scores: dict[int, float] = {}
    for term in sorted(by_term):
        rows = by_term[term]
        df = sum(tbl["df"][i].as_py() for i in rows)
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        for i in rows:
            doc_ids = plib.decode_doc_ids(tbl["doc_ids_enc"][i].as_py())
            tfs = plib.decode_varints(tbl["tfs_enc"][i].as_py()).astype(np.float64)
            dls = plib.decode_varints(tbl["dls_enc"][i].as_py()).astype(np.float64)
            contrib = idf * _tf_factor(tfs, dls, avgdl, k1, b)
            for d, c in zip(doc_ids.tolist(), contrib.tolist()):
                scores[d] = scores.get(d, 0.0) + c
    from .build import load_tombstones
    for d in load_tombstones(index.root).tolist():
        scores.pop(d, None)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
