"""BPE trainer/encoder: incremental trainer vs naive reference,
distributed word/pair counts, encode invariants."""

import random

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ts_type_filter_ray.functions import bpe
from ts_type_filter_ray.functions.bpe import (
    END, _apply_merge, _train_local, encode_token_counts, encode_word,
    pair_counts, train_bpe, word_count_table)


# ------------------------------------------------- naive references


def naive_pair_counts(words, counts):
    acc = {}
    for w, c in zip(words, counts):
        s = list(w) + [END]
        for p in zip(s, s[1:]):
            acc[p] = acc.get(p, 0) + c
    return acc


def naive_train(words, counts, n_merges):
    """Full-recount trainer — same selection rule, independent code."""
    syms = [list(w) + [END] for w in words]
    merges = []
    for rank in range(n_merges):
        pc_ = {}
        for s, c in zip(syms, counts):
            for p in zip(s, s[1:]):
                pc_[p] = pc_.get(p, 0) + c
        pc_ = {p: c for p, c in pc_.items() if c > 0}
        if not pc_:
            break
        (l, r), c = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append({"rank": rank, "left": l, "right": r,
                       "pair_count": c})
        syms = [_apply_merge(s, l, r, l + r) for s in syms]
    return merges


def naive_encode(word, merges):
    """Greedy lowest-rank-first, independent implementation."""
    ranks = {(l, r): i for i, (l, r) in enumerate(merges)}
    s = list(word) + [END]
    while True:
        cands = [(ranks[p], i) for i, p in enumerate(zip(s, s[1:]))
                 if p in ranks]
        if not cands:
            return s
        rk, i = min(cands)
        s = s[:i] + [s[i] + s[i + 1]] + s[i + 2:]


def train_local(words, counts, n_merges):
    """The merge loop over one in-process shard."""
    return _train_local(pa.table({"term": pa.array(words, pa.string()),
                                  "n": pa.array(counts, pa.int64())}),
                        n_merges)


WORDS = ["banana", "bandana", "ana", "nab", "abba", "a", "zebra",
         "cabana", "bananas"]
COUNTS = [5, 3, 7, 2, 1, 10, 4, 2, 6]


def test_incremental_trainer_matches_naive():
    got = train_local(WORDS, COUNTS, 25)
    want = naive_train(WORDS, COUNTS, 25)
    assert got == want
    assert len(got) > 5  # really merged something


def test_trainer_fuzz_matches_naive():
    rng = random.Random(7)
    for trial in range(20):
        vocab = ["".join(rng.choice("abcd")
                         for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 30))]
        vocab = sorted(set(vocab))
        counts = [rng.randint(1, 9) for _ in vocab]
        n = rng.randint(1, 15)
        assert train_local(vocab, counts, n) == \
            naive_train(vocab, counts, n), (trial, vocab, counts, n)


def test_trainer_exhausts_gracefully():
    # single 1-char word: only pair is (a, </w>) → exactly one merge
    got = train_local(["a"], [3], 10)
    assert [m["left"] + m["right"] for m in got] == ["a" + END]


def test_encode_word_matches_naive():
    merges_d = naive_train(WORDS, COUNTS, 12)
    merges = [(m["left"], m["right"]) for m in merges_d]
    ranks = {p: i for i, p in enumerate(merges)}
    rng = random.Random(3)
    for w in WORDS + ["banannab", "xyz", "b",
                      "".join(rng.choice("ab") for _ in range(30))]:
        assert encode_word(w, ranks) == naive_encode(w, merges), w


def test_overlapping_pair_merge():
    # "aaa" has pair (a, a) twice; greedy left-to-right → [aa, a, </w>]
    assert _apply_merge(list("aaa") + [END], "a", "a", "aa") == \
        ["aa", "a", END]
    got = train_local(["aaaa"], [1], 1)
    assert got[0]["pair_count"] == 3  # multiset pair accounting


# ------------------------------------------------- distributed stages


def _docs_ds():
    texts = ["banana bandana ana", "ana nab banana", "", "   ",
             "Abba ZEBRA banana", "cabana bananas a a a"]
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    }))


def _global_word_counts(texts):
    acc = {}
    for t in texts:
        for tok in t.strip().lower().split():
            acc[tok] = acc.get(tok, 0) + 1
    return acc


def test_word_count_table(ray_session):
    ds = _docs_ds()
    tbl = word_count_table(ds, num_parts=4)
    texts = [r["text"] for r in ds.take_all()]
    want = _global_word_counts(texts)
    got = dict(zip(tbl["term"].to_pylist(), tbl["n"].to_pylist()))
    assert got == want
    assert tbl["term"].to_pylist() == sorted(want)  # term asc


def test_pair_counts_distributed(ray_session):
    ds = _docs_ds()
    tbl = pair_counts(ds, num_parts=4)
    wc = _global_word_counts([r["text"] for r in ds.take_all()])
    want = naive_pair_counts(list(wc), list(wc.values()))
    got = {(l, r): c for l, r, c in zip(tbl["left"].to_pylist(),
                                        tbl["right"].to_pylist(),
                                        tbl["pair_count"].to_pylist())}
    assert got == want
    # sorted (count desc, left, right)
    keys = [(-c, l, r) for l, r, c in zip(tbl["left"].to_pylist(),
                                          tbl["right"].to_pylist(),
                                          tbl["pair_count"].to_pylist())]
    assert keys == sorted(keys)


def test_train_bpe_distributed_matches_naive(ray_session):
    ds = _docs_ds()
    tbl = train_bpe(ds, 10, num_parts=4)
    wc = _global_word_counts([r["text"] for r in ds.take_all()])
    want = naive_train(sorted(wc), [wc[w] for w in sorted(wc)], 10)
    assert tbl.to_pylist() == want


def test_encode_zero_merges_invariant(ray_session):
    ds = _docs_ds()
    out = {r["doc_id"]: r["n_bpe"]
           for r in encode_token_counts(ds, []).take_all()}
    for row in ds.take_all():
        toks = row["text"].strip().lower().split()
        assert out[row["doc_id"]] == sum(len(t) + 1 for t in toks)


def test_encode_trained_matches_naive(ray_session):
    ds = _docs_ds()
    merges_tbl = train_bpe(ds, 8, num_parts=4)
    merges = list(zip(merges_tbl["left"].to_pylist(),
                      merges_tbl["right"].to_pylist()))
    out = {r["doc_id"]: r["n_bpe"]
           for r in encode_token_counts(ds, merges_tbl).take_all()}
    for row in ds.take_all():
        toks = row["text"].strip().lower().split()
        want = sum(len(naive_encode(t, merges)) for t in toks)
        assert out[row["doc_id"]] == want


def _both_placements(ds, n_merges, monkeypatch):
    """train_bpe with its words in the driver, then in shard actors
    (the distinct-word bound lowered to 0)."""
    local = train_bpe(ds, n_merges).to_pandas()
    monkeypatch.setattr(bpe, "LOCAL_TRAIN_MAX_WORDS", 0)
    return local, train_bpe(ds, n_merges).to_pandas()


def test_sharded_trainer_bit_identical(ray_session, monkeypatch):
    rng = np.random.default_rng(4)
    words = ["low", "lower", "newest", "widest", "the", "then", "than",
             "loly", "lowest", "newer"]
    docs = [" ".join(rng.choice(words, rng.integers(3, 20)))
            for _ in range(300)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(300, dtype=np.int64)),
        "text": pa.array(docs)}))
    a, b = _both_placements(ds, 15, monkeypatch)
    assert len(a) == len(b)
    for c in a.columns:
        assert (a[c].to_numpy() == b[c].to_numpy()).all(), c


def test_sharded_trainer_wide_vocabulary(ray_session, monkeypatch):
    """Many distinct words spread over many shards (num_parts floor is
    16): the driver folds only pair deltas; state lives in the shard
    actors. Bit-identity with the in-process placement over a
    30k-distinct-word synthetic vocabulary."""
    rng = np.random.default_rng(9)
    alphabet = "abcdefgh"
    vocab = sorted({"".join(rng.choice(list(alphabet),
                                       rng.integers(3, 9)))
                    for _ in range(30_000)})
    docs = [" ".join(vocab[j] for j in rng.integers(0, len(vocab), 40))
            for _ in range(800)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(800, dtype=np.int64)),
        "text": pa.array(docs)}))
    a, b = _both_placements(ds, 8, monkeypatch)
    assert len(a) == len(b) > 0
    for c in a.columns:
        assert (a[c].to_numpy() == b[c].to_numpy()).all(), c


def test_actor_placement_skips_empty_word_blocks(ray_session, monkeypatch):
    """Two distinct words over four input blocks: the word-count
    groupby emits blocks with no rows and no columns; such a block has
    no ``term`` column to build a shard actor from."""
    texts = ["aa bb", "bb aa aa", "aa", "bb bb"]
    ds = rd.from_arrow([pa.table({
        "doc_id": pa.array([i], type=pa.int64()),
        "text": pa.array([t])}) for i, t in enumerate(texts)])
    wc = _global_word_counts(texts)
    want = naive_train(sorted(wc), [wc[w] for w in sorted(wc)], 5)
    monkeypatch.setattr(bpe, "LOCAL_TRAIN_MAX_WORDS", 0)
    assert train_bpe(ds, 5, num_parts=4).to_pylist() == want
