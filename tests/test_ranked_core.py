"""The ranking core shared by LocalSearcher's four ranked scorers: the
top-k size contract on every ranked entry point, and the dense and
sparse fold paths (``doc_part_bits`` ≤ 22 vs > 22) agreeing bit for bit."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

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
