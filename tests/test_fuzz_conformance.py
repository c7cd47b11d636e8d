"""Randomized conformance: engine vs oracle on a seeded random corpus with
many random queries, plus property tests for the stemmer and codec."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ts_type_filter_ray.oracle.index import build_oracle
from ts_type_filter_ray.pipelines.build import build_index
from ts_type_filter_ray.pipelines.query import (LocalSearcher, bm25_dataset,
                                                match_doc_ids)
from ts_type_filter_ray.sources.corpus import read_corpus
from ts_type_filter_ray.text.porter2 import stem

# -- stemmer properties -------------------------------------------------

token_strategy = st.text(
    alphabet=string.ascii_letters + string.digits + "'’-_.;:!()[]{}éñüßÆ日",
    min_size=1, max_size=24)


@given(token_strategy)
@settings(max_examples=300, deadline=None)
def test_stem_total_and_deterministic(word):
    s1 = stem(word)
    assert isinstance(s1, str)
    assert stem(word) == s1
    # stemming lowercases (reference stemmer behavior); skip words whose
    # case round-trip is lossy (e.g. ß → SS → ss)
    if word.upper().lower() == word.lower():
        assert stem(word.upper()) == stem(word.lower())


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=2))
@settings(max_examples=50, deadline=None)
def test_short_words_identity(word):
    assert stem(word) == word


# -- randomized corpus conformance --------------------------------------

VOCAB = (["run", "running", "runs", "ran", "jumped", "jumping", "cats",
          "cat", "dogs", "happily", "happy", "nationalization", "import",
          "def;", "(x)", "Grosse", "naïve", "tied", "ties", "cries"]
         + [f"w{i}" for i in range(120)])


def _random_corpus_dir(tmp_path, n_docs=160, seed=1234):
    import pyarrow as pa
    import pyarrow.parquet as pq
    rng = random.Random(seed)
    docs = []
    for _ in range(n_docs):
        n = rng.randint(0, 40)
        docs.append(" ".join(rng.choice(VOCAB) for _ in range(n)))
    tbl = pa.table({
        "repo": pa.array(["fuzz"] * n_docs),
        "path": pa.array([f"d{i}" for i in range(n_docs)]),
        "commit": pa.array(["c"] * n_docs),
        "lang": pa.array(["txt"] * n_docs),
        "content": pa.array(docs, type=pa.large_string()),
    })
    d = tmp_path / "fuzz_corpus"
    d.mkdir()
    pq.write_table(tbl.slice(0, 77), str(d / "a.parquet"), row_group_size=20)
    pq.write_table(tbl.slice(77), str(d / "b.parquet"), row_group_size=20)
    return str(d), docs


def test_random_corpus_conformance(ray_session, tmp_path):
    corpus_dir, docs = _random_corpus_dir(tmp_path)
    idx = build_index(read_corpus(corpus_dir), str(tmp_path / "idx"),
                      doc_part_bits=5, num_term_buckets=8,
                      tokenize_batch_size=37)
    oracle = build_oracle(list(range(len(docs))), docs)
    searcher = LocalSearcher(idx)

    assert idx.stats.num_documents == len(docs)
    ostats = oracle.statistics()
    assert idx.stats.num_unique_terms == ostats["num_unique_words"]
    assert idx.stats.num_postings == ostats["num_postings"]

    rng = random.Random(99)
    for i in range(120):
        n_terms = rng.randint(0, 5)
        q = " ".join(rng.choice(VOCAB) for _ in range(n_terms))
        assert searcher.match(q).tolist() == oracle.match(q), f"q={q!r}"
        k = rng.choice([1, 3, 10])
        assert searcher.bm25(q, k=k) == oracle.bm25(q, k=k), f"q={q!r} k={k}"
        if i % 20 == 0:  # the one-off parquet paths too (slower)
            assert match_doc_ids(idx, q).tolist() == oracle.match(q)
            assert bm25_dataset(idx, q, k=k) == oracle.bm25(q, k=k)


def test_empty_and_whitespace_docs(ray_session, tmp_path):
    """Docs that tokenize to nothing must still index (doc_len 0) and
    never match any query."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    docs = ["", "   ", "\n\t ", "real words here"]
    tbl = pa.table({
        "repo": pa.array(["e"] * 4), "path": pa.array(list("abcd")),
        "commit": pa.array(["c"] * 4), "lang": pa.array(["txt"] * 4),
        "content": pa.array(docs, type=pa.large_string()),
    })
    d = tmp_path / "empty_corpus"
    d.mkdir()
    pq.write_table(tbl, str(d / "a.parquet"))
    idx = build_index(read_corpus(str(d)), str(tmp_path / "idx2"),
                      num_term_buckets=4)
    oracle = build_oracle([0, 1, 2, 3], docs)
    s = LocalSearcher(idx)
    assert idx.stats.num_documents == 4
    assert s.match("words").tolist() == oracle.match("words") == [3]
    assert s.match("").tolist() == []
    assert s.bm25("real here", k=4) == oracle.bm25("real here", k=4)


@given(st.lists(
    st.lists(st.sampled_from([f"w{i}" for i in range(12)]),
             min_size=0, max_size=25),
    min_size=2, max_size=8),
    st.sampled_from([0.2, 0.5, 0.8]))
@settings(max_examples=20, deadline=None)
def test_ngram_jaccard_matches_bruteforce(ray_session, docs_tokens, thresh):
    """ngram_jaccard_pairs must equal brute-force pairwise Jaccard over
    shingle sets on arbitrary small corpora (small vocab → heavy shingle
    sharing, the worst case for the co-occurrence counting)."""
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions import dedup

    texts = [" ".join(t) for t in docs_tokens]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                    "text": pa.array(texts)})
    got = {(r["id_a"], r["id_b"]): r["jaccard"]
           for r in dedup.ngram_jaccard_pairs(
               rd.from_arrow(tbl), threshold=thresh).take_all()}
    exp = {}
    for a in range(len(texts)):
        if not texts[a].split():
            continue  # blank docs are excluded by contract
        for b in range(a + 1, len(texts)):
            if not texts[b].split():
                continue
            j = dedup.jaccard(texts[a], texts[b])
            if j >= thresh:
                exp[(a, b)] = j
    assert got == exp


def test_vectorized_tokenizer_matches_python_on_exotic_whitespace(ray_session):
    """Arrow utf8_split_whitespace must agree with Python str.split()
    (the oracle's breaker) on every whitespace class — NBSP, NEL, LS,
    information separators, zero-width non-spaces, and blank docs —
    and tokens that differ only by trailing NULs, which str.split()
    keeps apart (NUL is not whitespace)."""
    import pyarrow as pa

    from ts_type_filter_ray.stages.tokenizer import TokenizePartials
    from ts_type_filter_ray.text.tokenize import break_on_whitespace

    texts = ["a\xa0b c", "x\x85y", "l1 l2", "f\x1cg\x1dh\x1ei\x1fj",
             "zw​joined stays", "", "   \t ", "a\x0bb\x0cc",
             "Ünïco\xa0dé words", "plain old text",
             "ab\x00 ab", "\x00", "ab\x00\x00 x"]
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "content": pa.array(texts, type=pa.large_string()),
    })
    fast = TokenizePartials(8, 4)
    slow = TokenizePartials(8, 4, breaker=break_on_whitespace)

    def canon(tbl):
        return sorted(
            (r["term"], r["part"], r["bucket"], tuple(r["doc_ids"]),
             tuple(r["tfs"]), tuple(r["dls"]))
            for r in tbl.to_pylist())

    assert canon(fast(batch)) == canon(slow(batch))
