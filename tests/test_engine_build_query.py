"""End-to-end: distributed build + query vs the single-process oracle.

The conformance contract (SURVEY.md §5): identical match sets and
orderings, bit-identical BM25 scores, identical statistics — on every
corpus + query in the fixture set.
"""

import numpy as np
import pytest

from ts_type_filter_ray.oracle.index import build_oracle
from ts_type_filter_ray.pipelines.build import BuiltIndex, build_index
from ts_type_filter_ray.pipelines.query import (LocalSearcher, match_doc_ids,
                                                query_stems)
from ts_type_filter_ray.sources.corpus import read_corpus
from ts_type_filter_ray.sources.synthetic import (GOLDEN_FIRE_HEAT,
                                                  GOLDEN_SAME)

QUERIES = [
    "same", "thrall quench", "fire heat", "fire", "",
    ["fire", "heat"], "zzznohit", "w1z w2z w3z", "Same FIRE", "w100z;",
]


@pytest.fixture(scope="module")
def sonnets_index(ray_session, sonnets_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("sonnets_index")
    corpus = read_corpus(sonnets_corpus_dir)
    # tiny doc partitions (64 docs) so multi-partition paths are exercised
    idx = build_index(corpus, str(out), doc_part_bits=6,
                      num_term_buckets=8, tokenize_batch_size=32)
    return idx


@pytest.fixture(scope="module")
def sonnets_oracle(sonnets_corpus_dir):
    import pyarrow.dataset as pads
    tbl = pads.dataset(sonnets_corpus_dir).to_table()
    contents = tbl["content"].to_pylist()
    return build_oracle(list(range(len(contents))), contents)


def test_docs_invariants(sonnets_index):
    import pyarrow.dataset as pads
    docs = pads.dataset(sonnets_index.docs_dir).to_table()
    assert docs.num_rows == 154
    ids = sorted(docs["doc_id"].to_pylist())
    assert ids == list(range(154))  # dense, deterministic doc_ids
    assert len(set(docs["sha256"].to_pylist())) == 154  # no dup contents here


def test_sha256_per_row_invariant(sonnets_index, sonnets_corpus_dir):
    """The per-row invariant from BASELINE.json input_hint: every indexed
    row's sha256 equals the sha256 of the input row's content."""
    import hashlib

    import pyarrow.dataset as pads
    docs = pads.dataset(sonnets_index.docs_dir).to_table().sort_by("doc_id")
    src = pads.dataset(sonnets_corpus_dir).to_table()
    expected = [hashlib.sha256(c.encode()).hexdigest()
                for c in src["content"].to_pylist()]
    assert docs["sha256"].to_pylist() == expected


def test_stats_match_oracle(sonnets_index, sonnets_oracle):
    ostats = sonnets_oracle.statistics()
    s = sonnets_index.stats
    assert s.num_documents == ostats["num_documents"] == 154
    assert s.num_unique_terms == ostats["num_unique_words"]
    assert s.num_postings == ostats["num_postings"]


def test_boolean_match_rank_identical(sonnets_index, sonnets_oracle):
    searcher = LocalSearcher(sonnets_index)
    for q in QUERIES:
        expected = sonnets_oracle.match(q)
        got = searcher.match(q).tolist()
        assert got == expected, f"query {q!r}"


def test_golden_queries_through_engine(sonnets_index):
    searcher = LocalSearcher(sonnets_index)
    # corpus doc_ids are 0-based (sonnet i ↔ doc_id i-1)
    assert searcher.match("same").tolist() == [i - 1 for i in GOLDEN_SAME]
    assert searcher.match("fire heat").tolist() == [i - 1 for i in GOLDEN_FIRE_HEAT]


def test_bm25_rank_and_score_identical(sonnets_index, sonnets_oracle):
    searcher = LocalSearcher(sonnets_index)
    for q in QUERIES:
        expected = sonnets_oracle.bm25(q, k=10)
        got = searcher.bm25(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in expected], f"query {q!r}"
        for (gd, gs), (ed, es) in zip(got, expected):
            assert gs == es, f"score mismatch for doc {gd} query {q!r}"


def test_bm25_pruning_agrees_with_bruteforce(sonnets_index, sonnets_oracle):
    # k smaller than the match set so pruning can actually trigger
    searcher = LocalSearcher(sonnets_index)
    for q in ["fire heat", "w1z w2z w3z w4z w5z"]:
        assert searcher.bm25(q, k=2) == sonnets_oracle.bm25(q, k=2)


def test_pinned_docs(sonnets_index, sonnets_oracle):
    sonnets_oracle.pin(100)
    searcher = LocalSearcher(sonnets_index, pinned_doc_ids={100})
    for q in ["same", "", "zzznohit"]:
        assert searcher.match(q).tolist() == sonnets_oracle.match(q)
    sonnets_oracle._pinned.clear()


def test_one_off_match_path(sonnets_index, sonnets_oracle):
    got = match_doc_ids(sonnets_index, "fire heat")
    assert got.tolist() == sonnets_oracle.match("fire heat")


def test_query_stems_forms():
    assert query_stems("Fire  heat") == query_stems(["fire", "heat"])
    assert query_stems("") == []


def test_index_reload(sonnets_index):
    idx2 = BuiltIndex.load(sonnets_index.root)
    assert idx2.stats == sonnets_index.stats
    s = LocalSearcher(idx2)
    assert s.match("same").size == 3


def test_code_corpus_conformance(ray_session, small_code_corpus_dir,
                                 tmp_path_factory):
    """Same contract on the skewed code corpus (hot terms, punctuation,
    mixed case, duplicates, non-ASCII)."""
    import pyarrow.dataset as pads
    out = tmp_path_factory.mktemp("code_index")
    corpus = read_corpus(small_code_corpus_dir)
    idx = build_index(corpus, str(out), doc_part_bits=8, num_term_buckets=16,
                      tokenize_batch_size=64)
    tbl = pads.dataset(small_code_corpus_dir).to_table()
    oracle = build_oracle(list(range(tbl.num_rows)), tbl["content"].to_pylist())

    ostats = oracle.statistics()
    assert idx.stats.num_documents == ostats["num_documents"] == 600
    assert idx.stats.num_unique_terms == ostats["num_unique_words"]
    assert idx.stats.num_postings == ostats["num_postings"]

    searcher = LocalSearcher(idx)
    for q in ["import", "def self return", "ident_1x", "uniq_5_0",
              "jalapeños", "foo():", "by;", "Import DEF", "nohit_zz", ""]:
        assert searcher.match(q).tolist() == oracle.match(q), f"query {q!r}"
        got = searcher.bm25(q, k=10)
        exp = oracle.bm25(q, k=10)
        assert got == exp, f"bm25 mismatch {q!r}"


def test_match_prefix_golden(sonnets_index, sonnets_corpus_dir):
    """Wildcard prefix match ≡ brute-force union over STEMMED vocabulary
    (the stemmed-index contract), plus empty/miss/past-end edges."""
    import pyarrow.dataset as pads

    from ts_type_filter_ray.text.porter2 import stem

    s = LocalSearcher(sonnets_index)
    tbl = pads.dataset(sonnets_corpus_dir).to_table()
    contents = tbl["content"].to_pylist()
    doc_terms = [{stem(w) for w in c.split()} for c in contents]

    for prefix in ("f", "fir", "same", "w1", "zzz_nope", "￿"):
        want = sorted(d for d, terms in enumerate(doc_terms)
                      if any(t.startswith(prefix) for t in terms))
        assert s.match_prefix(prefix).tolist() == want, prefix
    assert s.match_prefix("").tolist() == []


def test_match_prefix_includes_pinned(sonnets_index):
    s = LocalSearcher(sonnets_index, pinned_doc_ids={3, 141})
    out = s.match_prefix("zzz_nope").tolist()
    assert out == [3, 141]


def test_match_all_andnot_suggest_golden(sonnets_index, sonnets_corpus_dir):
    """AND / AND-NOT / suggest vs brute force over stemmed token sets."""
    import pyarrow.dataset as pads

    from ts_type_filter_ray.text.porter2 import stem

    s = LocalSearcher(sonnets_index)
    tbl = pads.dataset(sonnets_corpus_dir).to_table()
    contents = tbl["content"].to_pylist()
    doc_terms = [{stem(w) for w in c.split()} for c in contents]

    for q in ("fire heat", "same", "fire zzznohit", "thrall quench fire"):
        want_all = sorted(d for d, t in enumerate(doc_terms)
                          if {stem(w) for w in q.split()} <= t)
        assert s.match_all(q).tolist() == want_all, q
    assert s.match_all("").tolist() == []

    for q, ex in (("fire", "heat"), ("same", "zzznohit"),
                  ("fire heat", "same thrall")):
        qs = {stem(w) for w in q.split()}
        es = {stem(w) for w in ex.split()}
        want = sorted(d for d, t in enumerate(doc_terms)
                      if (t & qs) and not (t & es))
        assert s.match_andnot(q, ex).tolist() == want, (q, ex)

    # suggestions: df-desc, term-asc over the stemmed vocabulary
    from collections import Counter
    df = Counter(t for terms in doc_terms for t in terms)
    for prefix in ("f", "sa", "zzz_nope"):
        cand = sorted((t for t in df if t.startswith(prefix)),
                      key=lambda t: (-df[t], t))[:7]
        assert s.suggest(prefix, k=7) == [(t, df[t]) for t in cand], prefix
    assert s.suggest("", k=7) == []


def test_match_all_andnot_pinned(sonnets_index):
    s = LocalSearcher(sonnets_index, pinned_doc_ids={5})
    assert 5 in s.match_all("zzznohit fire").tolist()
    assert s.match_all("").tolist() == [5]
    # pinned docs are immune to negation
    out = s.match_andnot("fire", "fire").tolist()
    assert out == [5]


def _sonnets_doc_terms(sonnets_corpus_dir):
    import pyarrow.dataset as pads

    from ts_type_filter_ray.text.porter2 import stem

    tbl = pads.dataset(sonnets_corpus_dir).to_table()
    contents = tbl["content"].to_pylist()
    return [{stem(w) for w in c.split()} for c in contents]


def test_match_atleast_golden(sonnets_index, sonnets_corpus_dir):
    """Minimum-should-match ≡ brute-force distinct-stem overlap count."""
    from ts_type_filter_ray.text.porter2 import stem

    s = LocalSearcher(sonnets_index)
    doc_terms = _sonnets_doc_terms(sonnets_corpus_dir)

    for q, m in (("fire heat same", 2), ("fire heat same", 3),
                 ("thrall quench fire heat", 2), ("fire", 1),
                 ("fire zzznohit", 2), ("same", 5)):
        qs = {stem(w) for w in q.split()}
        want = sorted(d for d, t in enumerate(doc_terms)
                      if len(t & qs) >= m)
        assert s.match_atleast(q, m).tolist() == want, (q, m)
    # m=1 ≡ disjunctive match; m=len ≡ conjunctive match
    assert s.match_atleast("fire heat", 1).tolist() == s.match(
        "fire heat").tolist()
    assert s.match_atleast("fire heat", 2).tolist() == s.match_all(
        "fire heat").tolist()
    assert s.match_atleast("", 1).tolist() == []
    with pytest.raises(ValueError):
        s.match_atleast("fire", 0)


def test_match_atleast_pinned(sonnets_index):
    s = LocalSearcher(sonnets_index, pinned_doc_ids={9})
    assert s.match_atleast("", 1).tolist() == [9]
    assert 9 in s.match_atleast("fire heat", 2).tolist()
    assert s.match_atleast("zzznohit", 1).tolist() == [9]


def test_match_fuzzy_golden(sonnets_index, sonnets_corpus_dir):
    """Fuzzy match ≡ brute-force Levenshtein sweep over the stemmed
    vocabulary (reference DP in-test, independent of the banded one)."""
    s = LocalSearcher(sonnets_index)
    doc_terms = _sonnets_doc_terms(sonnets_corpus_dir)
    vocab = set().union(*doc_terms)

    def ref_lev(a, b):
        la, lb = len(a), len(b)
        dp = list(range(lb + 1))
        for i in range(1, la + 1):
            prev, dp[0] = dp[0], i
            for j in range(1, lb + 1):
                cur = dp[j]
                dp[j] = min(dp[j] + 1, dp[j - 1] + 1,
                            prev + (a[i - 1] != b[j - 1]))
                prev = cur
        return dp[lb]

    for tok, d in (("fire", 0), ("fir", 1), ("hea", 1), ("saem", 2),
                   ("thrll", 1), ("zzzz", 1), ("Fire", 1)):
        terms = {t for t in vocab if ref_lev(tok.lower(), t) <= d}
        want = sorted(dd for dd, t in enumerate(doc_terms) if t & terms)
        assert s.match_fuzzy(tok, d).tolist() == want, (tok, d)
        got_terms = {t for t, _dist in s.fuzzy_terms(tok, d)}
        assert got_terms == terms, (tok, d)
    # fuzzy_terms reports the exact distance
    for t, dist in s.fuzzy_terms("fir", 1):
        assert ref_lev("fir", t) == dist


def test_match_suffix_contains_golden(sonnets_index, sonnets_corpus_dir):
    """'*suffix' / '*infix*' wildcard ≡ brute-force vocab string sweep."""
    s = LocalSearcher(sonnets_index)
    doc_terms = _sonnets_doc_terms(sonnets_corpus_dir)
    vocab = set().union(*doc_terms)

    for suf in ("e", "ir", "same", "zzq", "￿"):
        terms = {t for t in vocab if t.endswith(suf)}
        want = sorted(d for d, t in enumerate(doc_terms) if t & terms)
        assert s.match_suffix(suf).tolist() == want, suf
    assert s.match_suffix("").tolist() == []

    for inf in ("ir", "a", "zzq", "fire"):
        terms = {t for t in vocab if inf in t}
        want = sorted(d for d, t in enumerate(doc_terms) if t & terms)
        assert s.match_contains(inf).tolist() == want, inf
    assert s.match_contains("").tolist() == []


def test_match_suffix_indexed_parity(sonnets_index):
    """The reversed-term dictionary range scan (O(log V) scale path)
    returns the identical doc sets as the O(V) ends_with sweep, for
    hits, multi-term suffixes, misses, uppercase input, and the
    empty suffix."""
    s = LocalSearcher(sonnets_index)
    for suf in ("e", "ir", "same", "ing", "s", "zzq", "E", "￿"):
        assert (s.match_suffix_indexed(suf).tolist()
                == s.match_suffix(suf).tolist()), suf
    assert s.match_suffix_indexed("").tolist() == []
    # the cached reversed dictionary is a permutation of the vocabulary
    rmap, perm = s._reversed_vocab()
    assert rmap.n == s._terms.n == perm.size
    assert sorted(perm.tolist()) == list(range(s._terms.n))


def test_bm25_search_after_pagination(sonnets_index, sonnets_oracle):
    """Concatenated cursor pages ≡ one deep top-k, for every page size,
    including tie regions; cursor past the last result → empty page."""
    s = LocalSearcher(sonnets_index)
    for q in ("fire heat", "same", "thrall quench fire", "w1z w2z"):
        deep = s.bm25(q, k=40)
        assert deep == sonnets_oracle.bm25(q, k=40)
        for k in (1, 3, 7, 10):
            pages, cursor = [], None
            while True:
                page = s.bm25(q, k=k, after=cursor)
                if not page:
                    break
                pages.extend(page)
                cursor = page[-1]
                if len(pages) >= len(deep):
                    break
            assert pages[:len(deep)] == deep, (q, k)
            if len(deep) < 40 and cursor is not None:
                # result set exhausted: the next fetch is empty
                assert s.bm25(q, k=k, after=cursor) == [], (q, k)


def test_suggest_correction_golden(sonnets_index, sonnets_corpus_dir):
    """Spell correction ≡ brute-force (distance asc, df desc, term asc)
    rerank of the Levenshtein neighborhood."""
    from collections import Counter

    s = LocalSearcher(sonnets_index)
    doc_terms = _sonnets_doc_terms(sonnets_corpus_dir)
    df = Counter(t for terms in doc_terms for t in terms)

    def ref_lev(a, b):
        la, lb = len(a), len(b)
        dp = list(range(lb + 1))
        for i in range(1, la + 1):
            prev, dp[0] = dp[0], i
            for j in range(1, lb + 1):
                cur = dp[j]
                dp[j] = min(dp[j] + 1, dp[j - 1] + 1,
                            prev + (a[i - 1] != b[j - 1]))
                prev = cur
        return dp[lb]

    for tok, d in (("fir", 2), ("saem", 2), ("heat", 1), ("zzzz", 1),
                   ("thrll", 2)):
        cand = [(ref_lev(tok, t), -df[t], t) for t in df
                if ref_lev(tok, t) <= d]
        cand.sort()
        want = [(t, dist, -negdf) for dist, negdf, t in cand[:3]]
        assert s.suggest_correction(tok, d, k=3) == want, (tok, d)
    assert s.suggest_correction("", 2) == []


def test_bm25_filtered_golden(sonnets_index, sonnets_oracle):
    """Filtered BM25 ≡ deep unfiltered ranking restricted to the allowed
    set (scores unchanged); composes with the search-after cursor."""
    s = LocalSearcher(sonnets_index)
    for q in ("fire heat", "same", "thrall quench fire"):
        allowed = s.match("heat thrall")  # some overlapping subset
        deep = [row for row in s.bm25(q, k=200)
                if row[0] in set(allowed.tolist())]
        assert s.bm25(q, k=10, allowed=allowed) == deep[:10], q
        # filter ∘ cursor: page 2 of the filtered ranking
        page1 = s.bm25(q, k=5, allowed=allowed)
        if page1:
            page2 = s.bm25(q, k=5, allowed=allowed, after=page1[-1])
            assert page1 + page2 == deep[:len(page1) + len(page2)], q
        # empty filter → no results
        import numpy as np
        assert s.bm25(q, k=5, allowed=np.empty(0, dtype=np.int64)) == []


def test_tfidf_golden(sonnets_index, sonnets_corpus_dir, tmp_path_factory):
    """tf-idf top-k ≡ brute-force ln(N/df)·(1+ln tf) with ascending-term
    accumulation and (score desc, doc_id asc) tie-break. A term in every
    doc (df = N) contributes ln(1) = 0.0, and the docs it matches still
    rank."""
    import math

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    from collections import Counter

    from ts_type_filter_ray.text.porter2 import stem

    every = ["alpha common", "common beta beta", "common", "gamma common"]
    d = tmp_path_factory.mktemp("tfidf_df_n_corpus")
    pq.write_table(pa.table({"content": pa.array(every,
                                                 type=pa.large_string())}),
                   str(d / "part-00000.parquet"))
    df_n_index = build_index(read_corpus(str(d)),
                             str(tmp_path_factory.mktemp("tfidf_df_n")),
                             doc_part_bits=1, num_term_buckets=2)
    sonnets = pads.dataset(sonnets_corpus_dir).to_table()
    cases = [
        (sonnets_index, sonnets["content"].to_pylist(),
         ("fire heat", "same", "fire zzznohit", "thrall quench fire heat",
          "w1z")),
        (df_n_index, every, ("common", "common alpha", "beta common")),
    ]
    for index, contents, queries in cases:
        s = LocalSearcher(index)
        doc_tf = [Counter(stem(w) for w in c.split()) for c in contents]
        df = Counter(t for tf in doc_tf for t in tf)
        n = len(contents)
        for q in queries:
            stems = query_stems(q)
            scores = {}
            for t in stems:  # ascending stems: left-fold order
                if t not in df:
                    continue
                idf = math.log(n / df[t])
                for doc, tf in enumerate(doc_tf):
                    if t in tf:
                        scores[doc] = scores.get(doc, 0.0) + idf * (
                            1.0 + math.log(tf[t]))
            want = sorted(scores.items(),
                          key=lambda kv: (-kv[1], kv[0]))[:10]
            got = s.tfidf(q, k=10)
            assert [doc for doc, _ in got] == [doc for doc, _ in want], q
            assert np.allclose([sc for _, sc in got],
                               [sc for _, sc in want],
                               rtol=1e-12, atol=0.0), q
        assert s.tfidf("zzznohit") == []
    assert (LocalSearcher(df_n_index).tfidf("common")
            == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)])


def test_bm25_boosts(sonnets_index):
    """term^b semantics: empty/unit boosts are bit-identical to the
    plain ranking; boosting reweights scores by exactly
    boost*(idf*tf_factor); non-positive boosts are rejected."""
    s = LocalSearcher(sonnets_index)
    plain = s.bm25("fire heat", k=200)
    assert s.bm25("fire heat", k=200, boosts={}) == plain
    assert s.bm25("fire heat", k=200, boosts={"heat": 1.0}) == plain
    boosted = s.bm25("fire heat", k=200, boosts={"heat": 4.0})
    assert boosted != plain
    # reference: recombine per-term contributions from explain()
    ps = {d: sc for d, sc in plain}
    bs = {d: sc for d, sc in boosted}
    assert set(ps) == set(bs)
    for d in list(ps)[:20]:
        ex = s.explain("fire heat", d)
        want = 0.0
        for trm in ex["terms"]:
            c = trm["contribution"]
            want += (4.0 * c) if trm["term"] == "heat" else c
        assert bs[d] == want, d
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            s.bm25("fire", boosts={"fire": bad})
