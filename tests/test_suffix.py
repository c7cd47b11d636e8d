"""Distributed suffix array: ranks must equal a brute-force sort of
every suffix of the corpus string G, and the duplicate-coverage
operator must equal a brute-force L-gram coverage union — including
multi-doc boundaries, blank docs, and the convergence guard."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ts_type_filter_ray.functions.suffix import (longest_repeat,
                                                 sa_dup_coverage,
                                                 suffix_lcp,
                                                 suffix_ranks)

SEP = "\x01"


def _g(texts):
    return "".join(t.strip(" ").lower() + SEP for t in texts)


def _brute_ranks(texts):
    g = _g(texts)
    order = sorted(range(len(g)), key=lambda p: g[p:])
    rank = [0] * len(g)
    for i, p in enumerate(order):
        rank[p] = i
    return rank


def _brute_coverage(texts, L):
    g = _g(texts)
    n = len(g)
    grams = {}
    for p in range(n - L + 1):
        grams.setdefault(g[p:p + L], []).append(p)
    dup_starts = sorted(p for ps in grams.values() if len(ps) >= 2
                        for p in ps)
    # doc char ranges
    out = {}
    off = 0
    for d, t in enumerate(texts):
        t = t.strip(" ").lower()
        ln = len(t)
        covered = set()
        for p in dup_starts:
            if p >= off and p + L <= off + ln:
                covered.update(range(p - off, p - off + L))
        if covered:
            out[d] = (ln, len(covered))
        off += ln + 1
    return out


def _ds(texts):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    })).repartition(3)


CORPUS = [
    "the quick brown fox jumps over the quick brown dog",
    "pack my box with five dozen jugs",
    "",                                   # blank doc: separator only
    "the quick brown fox is back again",
    "  padded with spaces  ",             # trim contract
    "zz",                                 # shorter than most L
    "pack my box with five dozen jugs",   # exact duplicate doc
]


def test_suffix_ranks_equal_bruteforce(ray_session):
    want = _brute_ranks(CORPUS)
    got = suffix_ranks(_ds(CORPUS)).to_pandas()
    assert len(got) == len(want)
    by_pos = dict(zip(got["pos"], got["rank"]))
    for p, r in enumerate(want):
        assert by_pos[p] == r, f"rank mismatch at pos {p}"


def test_suffix_ranks_stride(ray_session):
    want = _brute_ranks(CORPUS)
    got = suffix_ranks(_ds(CORPUS), stride=8).to_pandas()
    assert list(got["pos"]) == [p for p in range(len(want))
                                if p % 8 == 0]
    for p, r in zip(got["pos"], got["rank"]):
        assert r == want[p]


@pytest.mark.parametrize("L", [1, 2, 4, 5, 8, 16])
def test_coverage_equal_bruteforce(ray_session, L):
    want = _brute_coverage(CORPUS, L)
    got = sa_dup_coverage(_ds(CORPUS), min_len=L).to_pandas()
    assert len(got) == len(want)
    for row in got.itertuples():
        ln, cov = want[row.doc_id]
        assert row.n_chars == ln
        assert row.n_dup_chars == cov
        assert row.dup_char_fraction == cov / ln


def test_coverage_no_repeats_is_empty(ray_session):
    texts = ["abcdefg", "hijklmn"]
    got = sa_dup_coverage(_ds(texts), min_len=4).to_pandas()
    assert len(got) == 0


def test_convergence_guard(ray_session):
    # a 64-char repeat cannot be separated within max_compare=32
    texts = ["x" * 64, "x" * 64]
    with pytest.raises(ValueError, match="repeated substring"):
        suffix_ranks(_ds(texts), max_compare=32)


def test_degenerate_single_doc(ray_session):
    texts = ["abab"]
    want = _brute_ranks(texts)
    got = suffix_ranks(_ds(texts)).to_pandas()
    assert sorted(got["rank"]) == list(range(len(want)))
    for p, r in zip(got["pos"], got["rank"]):
        assert r == want[p]


def test_validation(ray_session):
    with pytest.raises(ValueError, match="stride"):
        suffix_ranks(_ds(CORPUS), stride=0)
    with pytest.raises(ValueError, match="min_len"):
        sa_dup_coverage(_ds(CORPUS), min_len=0)
    with pytest.raises(ValueError, match="stride"):
        suffix_lcp(_ds(CORPUS), stride=0)


def _brute_lcp(texts):
    """pos -> LCP with the suffix-array predecessor (rank-0 omitted)."""
    g = _g(texts)
    order = sorted(range(len(g)), key=lambda p: g[p:])
    out = {}
    for i in range(1, len(order)):
        a, b = order[i], order[i - 1]
        l = 0
        while a + l < len(g) and b + l < len(g) and g[a + l] == g[b + l]:
            l += 1
        out[a] = l
    return out


@pytest.mark.parametrize("stride", [1, 8])
def test_suffix_lcp_equal_bruteforce(ray_session, stride):
    want = _brute_lcp(CORPUS)
    got = suffix_lcp(_ds(CORPUS), stride=stride).to_pandas()
    assert list(got["pos"]) == sorted(p for p in want
                                      if p % stride == 0)
    for row in got.itertuples():
        assert row.lcp == want[row.pos], f"lcp mismatch at {row.pos}"


def test_longest_repeat_equal_bruteforce(ray_session):
    want = max(_brute_lcp(CORPUS).values())
    got = longest_repeat(_ds(CORPUS)).to_pandas()
    assert list(got.columns) == ["longest_repeat"]
    assert len(got) == 1
    assert got["longest_repeat"][0] == want
    # the corpus plants an exact duplicate doc, so the repeat spans it
    assert want >= len("pack my box with five dozen jugs")


def test_longest_repeat_no_repeats(ray_session):
    # every character of G unique -> 0 (multi-doc corpora always
    # repeat the separator itself, so this needs a single doc)
    got = longest_repeat(_ds(["abcdefg"])).to_pandas()
    assert got["longest_repeat"][0] == 0


def test_longest_repeat_separator_only(ray_session):
    # disjoint alphabets across docs: the only repeat is the
    # separator -> 1, and it is G-level semantics by design
    got = longest_repeat(_ds(["abc", "defg"])).to_pandas()
    assert got["longest_repeat"][0] == 1


def test_longest_repeat_single_char_overlap(ray_session):
    # only single characters repeat -> 1 (the K=1 filter branch)
    got = longest_repeat(_ds(["ab", "ca"])).to_pandas()
    assert got["longest_repeat"][0] == 1


def test_lcp_shuffle_path_equals_broadcast(ray_session, monkeypatch):
    # a broadcast bound of 0 forces the distributed gather/apply
    # exchanges; results must be identical to the broadcast-probe path
    from ts_type_filter_ray.functions import suffix
    want = suffix_lcp(_ds(CORPUS), stride=4).to_pandas()
    monkeypatch.setattr(suffix, "DESCEND_BROADCAST_ROWS", 0)
    got = suffix_lcp(_ds(CORPUS), stride=4).to_pandas()
    assert list(got["pos"]) == list(want["pos"])
    assert list(got["lcp"]) == list(want["lcp"])


def test_longest_repeat_shuffle_path(ray_session, monkeypatch):
    from ts_type_filter_ray.functions import suffix
    want = longest_repeat(_ds(CORPUS)).to_pandas()
    monkeypatch.setattr(suffix, "DESCEND_BROADCAST_ROWS", 0)
    got = longest_repeat(_ds(CORPUS)).to_pandas()
    assert got["longest_repeat"][0] == want["longest_repeat"][0]


def test_suffix_array_handle_shares_doubling(ray_session):
    from ts_type_filter_ray.functions.suffix import SuffixArray
    sa = SuffixArray(_ds(CORPUS))
    # every surface off one handle equals its standalone wrapper
    r1 = sa.suffix_ranks(stride=8).to_pandas()
    r2 = suffix_ranks(_ds(CORPUS), stride=8).to_pandas()
    assert list(r1["rank"]) == list(r2["rank"])
    c1 = sa.dup_coverage(5).to_pandas().sort_values("doc_id")
    c2 = (sa_dup_coverage(_ds(CORPUS), min_len=5).to_pandas()
          .sort_values("doc_id"))
    assert list(c1["n_dup_chars"]) == list(c2["n_dup_chars"])
    l1 = sa.lcp(stride=8).to_pandas()
    l2 = suffix_lcp(_ds(CORPUS), stride=8).to_pandas()
    assert list(l1["lcp"]) == list(l2["lcp"])
    m1 = sa.longest_repeat().to_pandas()
    assert m1["longest_repeat"][0] == max(_brute_lcp(CORPUS).values())


def test_lcp_one_is_prefix_of_other(ray_session):
    # suffix 'a<sep>' vs 'a<sep>a<sep>': LCP runs to the end of the
    # shorter suffix (the past-the-end guard in the descent)
    texts = ["a", "a"]
    want = _brute_lcp(texts)
    got = suffix_lcp(_ds(texts)).to_pandas()
    for row in got.itertuples():
        assert row.lcp == want[row.pos]
