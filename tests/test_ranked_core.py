"""The ranking core shared by LocalSearcher's four ranked scorers: the
top-k size contract on every ranked entry point, the dense and sparse
fold paths (``doc_part_bits`` ≤ 22 vs > 22) agreeing bit for bit, the
batched folds and running threshold against a brute-force fold, and the
term lookup under them (``SortedTermMap``)."""

import bisect
import functools

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ts_type_filter_ray.pipelines.build import build_index, delete_docs
from ts_type_filter_ray.pipelines.query import LocalSearcher, bm25_dataset
from ts_type_filter_ray.sources.corpus import read_corpus

DOCS = [
    "fire and heat in the hearth",
    "the fire burns the wood",
    "heat rises from the fire fire",
    "cold water quench the heat",
    "the cold night and the stars",
    "fire fire fire everywhere now",
    "stars above the cold water",
    "wood and fire and heat and water",
    "quench the thirst with water",
    "the hearth holds the heat",
    "night fire under stars",
    "nothing here at all",
]
DELETED = 5
QUERIES = ["fire", "fire heat", "the", "cold water stars", "quench thirst",
           "fire fire wood", "zzznohit"]
SCORERS = ("bm25", "tfidf", "query_likelihood", "query_likelihood_jm")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("ranked_core_corpus")
    pq.write_table(pa.table({"content": pa.array(DOCS,
                                                 type=pa.large_string())}),
                   str(d / "part-00000.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def by_bits(ray_session, corpus_dir, tmp_path_factory):
    """The same corpus built at doc_part_bits 2 (dense fold, 4-doc
    partitions) and 23 (sparse fold), one doc deleted in each."""
    out = {}
    for bits in (2, 23):
        idx = build_index(read_corpus(corpus_dir),
                          str(tmp_path_factory.mktemp(f"ranked_{bits}")),
                          doc_part_bits=bits, num_term_buckets=4)
        delete_docs(idx.root, [DELETED])
        out[bits] = (idx, LocalSearcher(idx))
    return out


def test_sparse_fold_matches_dense(by_bits):
    dense, sparse = by_bits[2][1], by_bits[23][1]
    ranked = 0
    for q in QUERIES:
        for name in SCORERS:
            got = getattr(sparse, name)(q, k=6)
            assert got == getattr(dense, name)(q, k=6), (name, q)
            assert DELETED not in [d for d, _ in got]
            ranked += bool(got)
        allowed = dense.match(q)[::2]
        assert (sparse.bm25(q, 4, allowed=allowed)
                == dense.bm25(q, 4, allowed=allowed)), q
        page = dense.bm25(q, 3)
        if page:
            assert (sparse.bm25(q, 3, after=page[-1])
                    == dense.bm25(q, 3, after=page[-1])), q
        boosts = {q.split()[0]: 3.0}
        assert (sparse.bm25(q, 5, boosts=boosts)
                == dense.bm25(q, 5, boosts=boosts)), q
    assert ranked == 4 * (len(QUERIES) - 1)


def test_query_likelihood_refuses_global_stats(by_bits):
    """Both QL scorers share one guard: under federated global stats
    their local ctf and global C would not match any oracle."""
    from ts_type_filter_ray.pipelines.serve import load_global_df

    idx, _ = by_bits[2]
    s = LocalSearcher(idx)
    s.set_global_stats(idx.stats.num_documents, idx.stats.total_doc_len,
                       load_global_df(idx))
    for name in ("query_likelihood", "query_likelihood_jm"):
        with pytest.raises(ValueError,
                           match=f"{name} under set_global_stats"):
            getattr(s, name)("fire", 3)


@pytest.fixture(scope="module")
def rankers(by_bits, corpus_dir, tmp_path_factory):
    """Every ranked entry point, as ``rank(query, k)``."""
    from ts_type_filter_ray.pipelines.fielded import (FieldedSearcher,
                                                      build_fielded_index,
                                                      derive_title_body)
    from ts_type_filter_ray.pipelines.serve import TermRoutedService

    idx, s = by_bits[2]
    fielded = str(tmp_path_factory.mktemp("ranked_fielded"))
    build_fielded_index(derive_title_body(read_corpus(corpus_dir), 3),
                        fielded, ["title", "body"], doc_part_bits=2,
                        num_term_buckets=4)
    fs = FieldedSearcher(fielded, {"title": 2.0, "body": 1.0})
    routed = TermRoutedService(idx.root, num_actors=2)
    return {
        **{name: getattr(s, name) for name in SCORERS},
        "bm25_dataset": lambda q, k: bm25_dataset(idx, q, k),
        "term_routed_bm25": routed.bm25,
        "bm25f": fs.bm25f,
    }


@pytest.mark.parametrize("entry", [*SCORERS, "bm25_dataset",
                                   "term_routed_bm25", "bm25f"])
def test_k_zero_is_empty_and_negative_k_raises(rankers, entry):
    rank = rankers[entry]
    assert len(rank("fire heat", 3)) == 3
    assert rank("fire heat", 0) == []
    with pytest.raises(ValueError, match="k must be >= 0"):
        rank("fire heat", -1)


# -- the batched fold and the running threshold -----------------------------

#: ten terms every fifth doc holds: a fold over them sums >= 8 values,
#: where a pairwise sum (``np.add.reduceat``) rounds differently
MIX = [f"w{j}" for j in range(10)]
FOLD_QUERIES = ["common", "hot", "mid rare", "common hot", "hot mid rare",
                " ".join(MIX), "common " + " ".join(MIX[:4]), "hot hot mid",
                "zzznohit"]
#: corpus size per ``doc_part_bits``: at 12, two partitions (the second
#: light for ``common``); at 2 and 6, many, so one query meets heavy
#: partitions, light ones batched together, and the one-batch path
FOLD_BITS = {2: 600, 6: 600, 12: 4296, 23: 600}
FOLD_DELETED = 97 * 5


def _fold_docs(n: int) -> tuple[str, ...]:
    """*n* short docs. Every 97th doc is ``common common``, the top
    score of ``common`` and a tie run across all partitions; the last
    partition also holds the single best doc, so it is scored first and
    its ties must let equal scores with smaller ids in later."""
    docs = []
    for i in range(n):
        if i % 97 == 0 or i in (n - 3, n - 2):
            docs.append("common common")
            continue
        words = ["common", f"f{i % 13}"] + ["pad"] * (i % 4)
        if i % 2 == 0:
            words.append("hot")
        if i % 23 == 0:
            words.append("mid")
        if i % 331 == 0:
            words.append("rare")
        if i % 5 == 0:
            words += MIX + [w for j, w in enumerate(MIX) if i % (7 + j) == 0]
        docs.append(" ".join(words))
    docs[n - 1] = "common common common"
    return tuple(docs)


@pytest.fixture(scope="module")
def fold_searchers(ray_session, tmp_path_factory):
    import ray.data as rd

    from ts_type_filter_ray.pipelines.flagship import identity_stemmer

    out = {}
    for bits, n in FOLD_BITS.items():
        docs = _fold_docs(n)
        corpus = rd.from_arrow(pa.table({
            "doc_id": pa.array(range(n), type=pa.int64()),
            "content": pa.array(docs, type=pa.large_string())}))
        idx = build_index(corpus, str(tmp_path_factory.mktemp(f"fold{bits}")),
                          doc_part_bits=bits, num_term_buckets=4,
                          stemmer=identity_stemmer)
        delete_docs(idx.root, [FOLD_DELETED])
        out[bits] = docs, LocalSearcher(idx, stemmer=identity_stemmer)
    return out


@functools.lru_cache(maxsize=None)
def _brute_ranking(docs, stats, name, query, boosts=()):
    """Every live doc matching *query*, ranked (score desc, doc_id asc),
    each score a left fold from 0.0 over the ascending query terms of
    contributions evaluated with the scorer's float64 expressions."""
    import math

    import numpy as np

    toks = [d.split() for d in docs]
    n, total_len, k1, b = stats
    coll, avgdl = float(total_len), total_len / n
    qtf = {}
    for w in query.split():
        qtf[w] = qtf.get(w, 0) + 1
    postings = {t: [(d, float(ts.count(t)), float(len(ts)))
                    for d, ts in enumerate(toks) if t in ts]
                for t in sorted(qtf)}
    postings = {t: p for t, p in postings.items() if p}
    scores: dict[int, float] = {}
    dls: dict[int, float] = {}
    for t, plist in postings.items():
        d, tf, dl = (np.array(x) for x in zip(*plist))
        df, ctf = len(plist), float(tf.sum())
        if name == "bm25":
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            c = idf * ((tf * (k1 + 1.0))
                       / (tf + k1 * (1.0 - b + b * dl / avgdl)))
            if t in dict(boosts):
                c = dict(boosts)[t] * c
        elif name == "tfidf":
            c = math.log(n / df) * (1.0 + np.log(tf))
        elif name == "query_likelihood":
            c = float(qtf[t]) * np.log(1.0 + tf / (2000.0 * (ctf / coll)))
        else:
            c = float(qtf[t]) * np.log(
                1.0 + ((1.0 - 0.7) / 0.7) * ((tf / dl) / (ctf / coll)))
        for doc, v, length in zip(d.tolist(), c.tolist(), dl.tolist()):
            scores[doc] = scores.get(doc, 0.0) + v
            dls[doc] = length
    if name == "query_likelihood":
        qlen = sum(float(qtf[t]) for t in postings)
        scores = {d: s + qlen * np.log(2000.0 / (dls[d] + 2000.0))
                  for d, s in scores.items()}
    elif name == "query_likelihood_jm":
        qconst = 0.0
        for t, plist in postings.items():
            ctf = float(sum(tf for _, tf, _ in plist))
            qconst += float(qtf[t]) * math.log(0.7 * (ctf / coll))
        scores = {d: s + qconst for d, s in scores.items()}
    return sorted(((d, float(s)) for d, s in scores.items()
                   if d != FOLD_DELETED), key=lambda r: (-r[1], r[0]))


@pytest.mark.parametrize("bits", FOLD_BITS)
def test_batched_fold_and_threshold_match_brute_force(fold_searchers, bits):
    """Heavy, batched-light and one-batch folds, the running threshold
    and block-max pruning give exactly the brute-force rankings: for all
    four scorers, and for bm25 with ``allowed=``, ``after=`` and
    ``boosts=``, with ties at the k-th score and a deleted doc."""
    docs, s = fold_searchers[bits]
    st = (s._stats.num_documents, s._stats.total_doc_len, s._stats.k1,
          s._stats.b)
    for q in FOLD_QUERIES:
        for name in SCORERS:
            full = _brute_ranking(docs, st, name, q)
            for k in (1, 3, 10, 60):
                assert getattr(s, name)(q, k) == full[:k], (name, q, k)
        full = _brute_ranking(docs, st, "bm25", q)
        allowed = s.match(q)[::3]
        keep = set(allowed.tolist())
        for k in (3, 10):
            assert s.bm25(q, k, allowed=allowed) == \
                [r for r in full if r[0] in keep][:k], (q, k)
            if len(full) > k:
                assert s.bm25(q, k, after=full[k - 1]) == full[k:2 * k], q
        boost = (q.split()[0], 2.5)
        assert s.bm25(q, 10, boosts=dict([boost])) == \
            _brute_ranking(docs, st, "bm25", q, (boost,))[:10], q


# -- the term lookup ---------------------------------------------------------

# a small alphabet of 1- to 4-byte UTF-8 characters, so vocabularies hold
# prefixes of each other, multibyte neighbours and the empty string
_TERM = st.text(alphabet="abé€\U0001d11e", max_size=4)


@settings(max_examples=150, deadline=None)
@given(vocab=st.lists(_TERM, unique=True, max_size=24),
       probes=st.lists(_TERM, max_size=8), sliced=st.booleans(),
       large=st.booleans())
def test_sorted_term_map_matches_bisect(vocab, probes, sliced, large):
    """``SortedTermMap`` bisects UTF-8 bytes; that must agree with
    ``bisect`` over the Python ``str`` list, for plain and large string
    arrays and for a slice of a larger array (``offset != 0``, as
    ``dictionary_encode`` and ``combine_chunks`` can return)."""
    from ts_type_filter_ray.pipelines.query import SortedTermMap

    vocab = sorted(vocab)
    typ = pa.large_string() if large else pa.string()
    arr = (pa.array(["\U0010ffff", *vocab, ""], type=typ)
           .slice(1, len(vocab)) if sliced else pa.array(vocab, type=typ))
    m = SortedTermMap(arr)
    assert m.n == len(vocab)
    for t in vocab + probes + [""]:
        i = bisect.bisect_left(vocab, t)
        assert m.bisect_left(t) == i, t
        assert m.index(t) == (i if i < len(vocab) and vocab[i] == t
                              else -1), t
