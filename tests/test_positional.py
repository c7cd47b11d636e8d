"""Positional index: phrase / proximity answers from the persisted index
must equal a brute-force Python oracle over the lowercase-whitespace
token sequences, and the phrase path must agree with the scan-shaped
``functions/ngrams.phrase_match`` on the same corpus."""

import numpy as np
import pyarrow as pa
import pytest
from conftest import assert_same_postings

from ts_type_filter_ray.pipelines.positional import (
    POS_BITS, PositionalIndex, PositionalSearcher, build_positional_index)

DOCS = [
    "the fast key order sort",                    # 0
    "order fast order fast order",                # 1: overlapping repeats
    "batch batch batch stream",                   # 2: self-adjacent term
    "",                                           # 3: empty doc
    "Fast ORDER fast",                            # 4: case folding
    "solo",                                       # 5: single token
    "a b c d e f g a b c",                        # 6: long-ish phrase
]

PHRASES = ["order fast", "fast order fast", "batch batch",
           "batch batch batch", "a b c", "missing phrase", "solo",
           "fast", "g a b", "e f g a", ""]

PROX = [("order", "fast", 1), ("key", "sort", 3), ("key", "sort", 2),
        ("a", "g", 1), ("a", "g", 3), ("solo", "solo", 2),
        ("batch", "stream", 1), ("nope", "fast", 5),
        # same-term pairs: need the term TWICE within the window
        ("order", "order", 2), ("batch", "batch", 1), ("fast", "fast", 1)]


def _toks(s):
    return s.lower().split()


def _oracle_phrase(phrase):
    p = _toks(phrase)
    if not p:
        return []
    out = []
    for d, text in enumerate(DOCS):
        t = _toks(text)
        if any(t[i:i + len(p)] == p for i in range(len(t) - len(p) + 1)):
            out.append(d)
    return out


def _oracle_prox(a, b, w):
    # two DISTINCT positions (vacuous for distinct terms; for a == b it
    # requires the term twice within the window — a single occurrence
    # must not trivially match itself)
    out = []
    for d, text in enumerate(DOCS):
        t = _toks(text)
        pa_ = [i for i, x in enumerate(t) if x == a]
        pb = [i for i, x in enumerate(t) if x == b]
        if any(abs(i - j) <= w and i != j for i in pa_ for j in pb):
            out.append(d)
    return out


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory, ray_session):
    import ray.data as rd
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(DOCS)), type=pa.int64()),
        "content": pa.array(DOCS, type=pa.string()),
    })).repartition(3)
    root = str(tmp_path_factory.mktemp("posidx") / "idx")
    return build_positional_index(corpus, root, num_term_buckets=4,
                                  doc_part_bits=2, batch_size=2)


def test_stats(pos_index):
    assert pos_index.num_documents == len(DOCS)
    total_tokens = sum(len(_toks(d)) for d in DOCS)
    assert pos_index.num_positions == total_tokens
    vocab = {t for d in DOCS for t in _toks(d)}
    assert pos_index.num_terms == len(vocab)
    postings = len({(t, d) for d, s in enumerate(DOCS) for t in _toks(s)})
    assert pos_index.num_postings == postings


def test_reload_roundtrip(pos_index):
    again = PositionalIndex.load(pos_index.root)
    assert again == pos_index


@pytest.mark.parametrize("phrase", PHRASES)
def test_phrase_golden(pos_index, phrase):
    s = PositionalSearcher(pos_index)
    assert s.phrase(phrase).tolist() == _oracle_phrase(phrase), phrase


@pytest.mark.parametrize("a,b,w", PROX)
def test_proximity_golden(pos_index, a, b, w):
    s = PositionalSearcher(pos_index)
    assert s.proximity(a, b, w).tolist() == _oracle_prox(a, b, w), (a, b, w)


def test_parity_with_scan_phrase_match(ray_session):
    """Index answers ≡ the scan-shaped phrase_match over the sf0.001
    documents corpus (500 docs)."""
    import ray.data as rd

    from ts_type_filter_ray.functions.ngrams import phrase_match
    from ts_type_filter_ray.pipelines.flagship import (
        phrase_index_for, PHRASE_INDEX_SET)

    sf = "/root/testdata/sf0.001"
    idx = phrase_index_for(sf)
    s = PositionalSearcher(idx)
    scan = phrase_match(
        rd.read_parquet(f"{sf}/documents.parquet"),
        PHRASE_INDEX_SET).to_pandas()
    for i, p in enumerate(PHRASE_INDEX_SET):
        got = s.phrase(p).tolist()
        want = scan[scan.phrase_idx == i].doc_id.tolist()
        assert got == want, p


def test_position_limit_enforced(ray_session, tmp_path):
    import ray.data as rd
    big = "x " * ((1 << POS_BITS) + 8)
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([0], type=pa.int64()),
        "content": pa.array([big], type=pa.string()),
    }))
    with pytest.raises(Exception, match="positional limit"):
        build_positional_index(corpus, str(tmp_path / "idx2"),
                               num_term_buckets=2)


def test_first_occurrences_golden(pos_index):
    """first_occurrences(term) ≡ min token position per containing doc."""
    s = PositionalSearcher(pos_index)
    for term in ("fast", "batch", "a", "order", "solo", "zz_missing"):
        docs, pos = s.first_occurrences(term)
        want = {d: _toks(text).index(term)
                for d, text in enumerate(DOCS) if term in _toks(text)}
        assert docs.tolist() == sorted(want), term
        assert pos.tolist() == [want[d] for d in sorted(want)], term


def test_first_occurrences_tombstones(ray_session, tmp_path_factory):
    import ray.data as rd

    from ts_type_filter_ray.pipelines.build import delete_docs
    docs = ["x order fast", "order", "fast fast order"]
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "content": pa.array(docs, type=pa.string())}))
    root = str(tmp_path_factory.mktemp("posfirst") / "idx")
    idx = build_positional_index(corpus, root, num_term_buckets=2,
                                 doc_part_bits=2)
    delete_docs(root, [1])
    s = PositionalSearcher(PositionalIndex.load(root))
    d, p = s.first_occurrences("order")
    assert d.tolist() == [0, 2] and p.tolist() == [1, 2]
    # tombstoned doc is the LAST doc for this term: exercises the
    # searchsorted end-of-array guard
    delete_docs(root, [2])
    s2 = PositionalSearcher(PositionalIndex.load(root))
    d2, p2 = s2.first_occurrences("order")
    assert d2.tolist() == [0] and p2.tolist() == [1]
    d3, p3 = s2.first_occurrences("fast")
    assert d3.tolist() == [0] and p3.tolist() == [2]


def test_min_pair_distance_golden(pos_index):
    """min_pair_distance(a, b) ≡ brute-force min |pos_a − pos_b| per doc
    containing both terms."""
    s = PositionalSearcher(pos_index)
    pairs = [("order", "fast"), ("key", "sort"), ("a", "g"),
             ("batch", "stream"), ("solo", "fast"), ("zz", "fast")]
    for a, b in pairs:
        docs, mind = s.min_pair_distance(a, b)
        want = {}
        for d, text in enumerate(DOCS):
            t = _toks(text)
            ds = [abs(i - j) for i, x in enumerate(t) if x == a
                  for j, y in enumerate(t) if y == b]
            if ds:
                want[d] = min(ds)
        assert docs.tolist() == sorted(want), (a, b)
        assert mind.tolist() == [want[d] for d in sorted(want)], (a, b)
    with pytest.raises(ValueError, match="distinct"):
        s.min_pair_distance("fast", "fast")


def _oracle_ordered_window(phrase, gap, docs=None):
    terms = _toks(phrase)
    if not terms:
        return []
    out = []
    for d, text in enumerate(docs if docs is not None else DOCS):
        t = _toks(text)

        def chain(i, prev):
            if i == len(terms):
                return True
            return any(chain(i + 1, p) for p in range(prev + 1,
                                                      prev + gap + 1)
                       if p < len(t) and t[p] == terms[i])
        starts = [p for p, x in enumerate(t) if x == terms[0]]
        if any(chain(1, p) for p in starts):
            out.append(d)
    return out


@pytest.mark.parametrize("phrase,gap", [
    ("order fast", 1), ("order fast", 2), ("fast order sort", 3),
    ("the key sort", 2), ("batch batch", 1), ("batch stream", 1),
    ("a c e", 2), ("a d g", 3), ("g a c", 2), ("solo", 1),
    ("missing stuff", 4), ("", 2)])
def test_ordered_window_golden(pos_index, phrase, gap):
    s = PositionalSearcher(pos_index)
    assert s.ordered_window(phrase, gap).tolist() == \
        _oracle_ordered_window(phrase, gap), (phrase, gap)


def test_ordered_window_needs_backtracking(ray_session, tmp_path_factory):
    """The case greedy earliest-next gets wrong: t2 ∈ {5, 9}, t3 at 12,
    gap 5 — only the later t2 completes the chain."""
    import ray.data as rd
    docs = ["x x x x t1 t2 x x x t2 x x t3",   # 0: matches via t2@9
            "x x x x t1 t2 x x x x x x t3"]    # 1: gap t2->t3 is 7 > 5
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "content": pa.array(docs, type=pa.string())}))
    root = str(tmp_path_factory.mktemp("posow") / "idx")
    idx = build_positional_index(corpus, root, num_term_buckets=2,
                                 doc_part_bits=2)
    s = PositionalSearcher(idx)
    assert s.ordered_window("t1 t2 t3", 5).tolist() == [0]
    assert s.ordered_window("t1 t2 t3", 7).tolist() == [0, 1]
    assert _oracle_ordered_window("t1 t2 t3", 5, docs) == [0]


def test_ordered_window_gap1_is_phrase(pos_index):
    s = PositionalSearcher(pos_index)
    for p in PHRASES:
        if not p:
            continue
        assert s.ordered_window(p, 1).tolist() == s.phrase(p).tolist(), p


def test_keys_roundtrip_positions(pos_index):
    """Decoded (doc, pos) keys for a term reproduce the raw token
    positions exactly (delta codec round-trip through the merge)."""
    s = PositionalSearcher(pos_index)
    for term in ("fast", "batch", "a", "order"):
        keys = s._term_keys([term])[term]
        got = [(int(k) >> POS_BITS, int(k) & ((1 << POS_BITS) - 1))
               for k in keys]
        want = [(d, i) for d, text in enumerate(DOCS)
                for i, t in enumerate(_toks(text)) if t == term]
        assert got == want, term


# -- stemmed mode (VERDICT r3 #8) ---------------------------------------

DOCS_STEM = [
    "running tests quickly",            # run test quick
    "he runs the tested runner",        # he run the test runner
    "test run",                         # test run (reversed order)
    "quick tester running",             # quick tester run
    "nothing relevant here",
    "",
]

STEM_PHRASES = ["run test", "running tested", "tests runs", "test run",
                "quickly", "tested runner zzz", ""]

STEM_PROX = [("running", "quick", 2), ("runs", "tester", 1),
             ("test", "runner", 2), ("zzz", "run", 3)]


@pytest.fixture(scope="module")
def pos_index_stemmed(tmp_path_factory, ray_session):
    import ray.data as rd

    from ts_type_filter_ray.text.porter2 import stem
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(DOCS_STEM)), type=pa.int64()),
        "content": pa.array(DOCS_STEM, type=pa.string()),
    })).repartition(2)
    root = str(tmp_path_factory.mktemp("posidx_stem") / "idx")
    return build_positional_index(corpus, root, num_term_buckets=4,
                                  doc_part_bits=2, batch_size=2,
                                  stemmer=stem)


def _stoks(s):
    from ts_type_filter_ray.text.porter2 import stem
    return [stem(t) for t in s.lower().split()]


@pytest.mark.parametrize("phrase", STEM_PHRASES)
def test_stemmed_phrase_golden(pos_index_stemmed, phrase):
    """Phrase over the STEMMED positional index ≡ contiguous stemmed
    token subsequence — 'running tested' matches 'run test' positions."""
    from ts_type_filter_ray.text.porter2 import stem
    s = PositionalSearcher(pos_index_stemmed, stemmer=stem)
    p = _stoks(phrase)
    want = []
    if p:
        for d, text in enumerate(DOCS_STEM):
            t = _stoks(text)
            if any(t[i:i + len(p)] == p
                   for i in range(len(t) - len(p) + 1)):
                want.append(d)
    assert s.phrase(phrase).tolist() == want, phrase


@pytest.mark.parametrize("a,b,w", STEM_PROX)
def test_stemmed_proximity_golden(pos_index_stemmed, a, b, w):
    from ts_type_filter_ray.text.porter2 import stem
    s = PositionalSearcher(pos_index_stemmed, stemmer=stem)
    sa, sb = _stoks(a)[0], _stoks(b)[0]
    want = []
    for d, text in enumerate(DOCS_STEM):
        t = _stoks(text)
        ia = [i for i, x in enumerate(t) if x == sa]
        ib = [i for i, x in enumerate(t) if x == sb]
        if any(abs(i - j) <= w for i in ia for j in ib):
            want.append(d)
    assert s.proximity(a, b, w).tolist() == want, (a, b, w)


def test_stemmed_index_merges_token_forms(pos_index_stemmed):
    """Tokens that stem to the same term share one posting row: the
    stemmed index's vocabulary is the stemmed vocabulary, and position
    lists stay ascending across merged forms."""
    vocab = {t for d in DOCS_STEM for t in _stoks(d)}
    assert pos_index_stemmed.num_terms == len(vocab)
    from ts_type_filter_ray.text.porter2 import stem
    s = PositionalSearcher(pos_index_stemmed, stemmer=stem)
    keys = s._term_keys(["run"])["run"]
    # doc 1 has 'runs'(1) and 'runner'? runner stems to itself; doc 1:
    # he(0) runs(1) the(2) tested(3) runner(4) -> 'run' at pos 1 only
    # doc 0: running(0); doc 2: run(1); doc 3: running(2)
    got = sorted((int(k) >> POS_BITS, int(k) & ((1 << POS_BITS) - 1))
                 for k in keys)
    want = sorted((d, i) for d, text in enumerate(DOCS_STEM)
                  for i, t in enumerate(_stoks(text)) if t == "run")
    assert got == want


def _mk_corpus(docs, nparts=3):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "content": pa.array(docs, type=pa.string()),
    })).repartition(nparts)


def test_extend_and_compact_positional(ray_session, tmp_path_factory):
    """Fresh build over A+B ≡ build A then LSM-extend B, for every
    phrase/proximity query — before AND after compaction; stats match;
    compaction collapses back to one file per bucket."""
    import os

    from ts_type_filter_ray.pipelines.positional import (
        build_positional_index, compact_positional_index,
        extend_positional_index)

    docs_b = ["order fast order", "new phrase batch batch", "fast solo"]
    both = DOCS + docs_b

    base = tmp_path_factory.mktemp("posext")
    fresh = build_positional_index(_mk_corpus(both), str(base / "fresh"),
                                   num_term_buckets=4, doc_part_bits=2,
                                   batch_size=2)
    inc = build_positional_index(_mk_corpus(DOCS), str(base / "inc"),
                                 num_term_buckets=4, doc_part_bits=2,
                                 batch_size=2)
    inc = extend_positional_index(str(base / "inc"), _mk_corpus(docs_b),
                                  batch_size=2)
    assert inc.num_segments == 2
    assert inc.id_ceiling == len(both)
    for attr in ("num_documents", "num_terms", "num_postings",
                 "num_positions"):
        assert getattr(inc, attr) == getattr(fresh, attr), attr

    sf, si = PositionalSearcher(fresh), PositionalSearcher(inc)
    for p in PHRASES + ["new phrase", "batch batch", "fast solo"]:
        assert si.phrase(p).tolist() == sf.phrase(p).tolist(), p
    for a, b, w in PROX:
        assert si.proximity(a, b, w).tolist() == \
            sf.proximity(a, b, w).tolist(), (a, b, w)

    comp = compact_positional_index(str(base / "inc"))
    assert comp.num_segments == 1
    for attr in ("num_documents", "num_terms", "num_postings",
                 "num_positions"):
        assert getattr(comp, attr) == getattr(fresh, attr), attr
    # exactly one data file per bucket after compaction
    for d in sorted(os.listdir(comp.postings_dir)):
        if d.startswith("bucket="):
            files = [f for f in os.listdir(
                os.path.join(comp.postings_dir, d))
                if f.endswith(".parquet") and not f.startswith((".", "_"))]
            assert len(files) == 1, d
    assert_same_postings(str(base / "inc"), str(base / "fresh"))
    sc = PositionalSearcher(comp)
    for p in PHRASES + ["new phrase", "batch batch", "fast solo"]:
        assert sc.phrase(p).tolist() == sf.phrase(p).tolist(), p
    for a, b, w in PROX:
        assert sc.proximity(a, b, w).tolist() == \
            sf.proximity(a, b, w).tolist(), (a, b, w)


def test_extend_positional_stemmed(ray_session, tmp_path_factory):
    """Stemmed extension merges vocabulary forms across segments."""
    from ts_type_filter_ray.pipelines.positional import (
        build_positional_index, extend_positional_index)
    from ts_type_filter_ray.text.porter2 import stem

    base = tmp_path_factory.mktemp("posext_stem")
    idx = build_positional_index(_mk_corpus(["running tests daily"]),
                                 str(base / "i"), num_term_buckets=2,
                                 doc_part_bits=2, stemmer=stem)
    extend_positional_index(str(base / "i"),
                            _mk_corpus(["the runs tested often"]),
                            stemmer=stem)
    from ts_type_filter_ray.pipelines.positional import (PositionalIndex,
                                                         PositionalSearcher)
    s = PositionalSearcher(PositionalIndex.load(str(base / "i")),
                           stemmer=stem)
    # both docs match the stemmed phrase "run test*"
    assert s.phrase("running tested").tolist() == [0, 1]


@pytest.mark.parametrize("crash", ["before_commit", "before_rename"])
@pytest.mark.parametrize("kind", ["main", "positional"])
def test_compaction_swap_recovery(ray_session, tmp_path, faults, kind,
                                  crash):
    """A compaction that crashes inside a bucket's ``.compact.tmp`` swap
    loses nothing, for both index kinds. The crash comes after the tmp
    is written but before the markers go (``before_commit``), or after
    the old segments went but before the rename (``before_rename``).
    An index loaded after the crash answers exactly as before it, also
    when several loads finish the same swap at once, and a re-run
    leaves one data file per bucket (and a main index that fsck
    passes)."""
    import os
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from conftest import InjectedFault
    from ts_type_filter_ray.pipelines import build
    from ts_type_filter_ray.pipelines.fsck import fsck_index
    from ts_type_filter_ray.pipelines.positional import (
        compact_positional_index, extend_positional_index)
    from ts_type_filter_ray.pipelines.query import LocalSearcher

    root = str(tmp_path / "idx")
    docs_b = ["order fast order", "new phrase batch batch", "fast solo"]
    if kind == "main":
        build.build_index(_mk_corpus(DOCS), root, doc_part_bits=2,
                          num_term_buckets=2)
        build.extend_index(root, _mk_corpus(docs_b))
        compact = build.compact_index

        def answers():
            s = LocalSearcher(build.BuiltIndex.load(root))
            return [s.bm25(q, 10) for q in
                    ("order fast", "batch", "fast solo", "a b c", "new")]
    else:
        build_positional_index(_mk_corpus(DOCS), root, num_term_buckets=2,
                               doc_part_bits=2)
        extend_positional_index(root, _mk_corpus(docs_b))
        compact = compact_positional_index

        def answers():
            s = PositionalSearcher(PositionalIndex.load(root))
            return ([s.phrase(p).tolist() for p in PHRASES]
                    + [s.proximity(a, b, w).tolist() for a, b, w in PROX])

    want = answers()
    postings = os.path.join(root, "postings")
    buckets = [os.path.join(postings, d) for d in sorted(os.listdir(
        postings))]
    faults.inline_waves()
    faults.arm(build, "os.remove" if crash == "before_commit"
               else "os.replace")
    with pytest.raises(InjectedFault):
        compact(root)
    faults.undo()
    # the crash hit the first bucket's swap: the old segments and their
    # markers still beside the tmp, or no marker and no extension
    # segment left
    swapping = [names for names in (os.listdir(d) for d in buckets)
                if ".compact.tmp" in names]
    assert len(swapping) == 1
    if crash == "before_commit":
        assert {"_SUCCESS", "merged.parquet"} <= set(swapping[0])
    else:
        assert not [f for f in swapping[0]
                    if f.startswith(("_SUCCESS", "segment_"))]
        # several index loads finishing the same swap at once
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for f in [pool.submit(build._finish_swaps, root)
                          for _ in range(8)]:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)

    assert answers() == want
    compact(root)
    assert answers() == want
    for d in buckets:
        assert [f for f in os.listdir(d) if f.endswith(".parquet")
                and not f.startswith((".", "_"))] == ["merged.parquet"], d
    if kind == "main":
        assert fsck_index(root)["ok"][0].as_py()


def test_upsert_validates_before_destruction(ray_session,
                                             tmp_path_factory):
    """A failing upsert must not half-commit the delete."""
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.pipelines.build import (build_index,
                                                    load_tombstones,
                                                    upsert_docs)

    corpus = _mk_corpus(["alpha beta", "gamma delta"], nparts=1)
    c2 = rd.from_arrow(pa.table({
        "doc_id": pa.array([0], type=pa.int64()),
        "content": pa.array(["x y"], type=pa.string())}))
    root = str(tmp_path_factory.mktemp("upsafe") / "idx")
    build_index(corpus, root, doc_part_bits=2, num_term_buckets=2)
    # empty replacement corpus → extend fails BEFORE any tombstone
    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "content": pa.array([], type=pa.string())}))
    with pytest.raises(ValueError):
        upsert_docs(root, [0], empty)
    assert load_tombstones(root).size == 0  # nothing deleted
    # replacing a not-yet-allocated id is rejected up front
    with pytest.raises(ValueError, match="ceiling"):
        upsert_docs(root, [99], c2)
    assert load_tombstones(root).size == 0


def test_best_windows_golden(pos_index):
    """Snippet windows ≡ brute force: among windows anchored at hit
    positions, maximal (distinct query terms, hits), tie → earliest."""
    s = PositionalSearcher(pos_index)

    def ref(query, window, doc_ids):
        terms = sorted(set(query.lower().split()))
        rows = []
        for d in sorted(doc_ids):
            toks = _toks(DOCS[d])
            hits = [(i, t) for i, t in enumerate(toks) if t in terms]
            if not hits:
                continue
            best = None
            for i, (p0, _t0) in enumerate(hits):
                inside = [(p, t) for p, t in hits
                          if p0 <= p < p0 + window]
                cand = (-len({t for _p, t in inside}), -len(inside), p0)
                if best is None or cand < best:
                    best = cand
            rows.append((d, best[2], -best[0], -best[1]))
        return rows

    all_ids = list(range(len(DOCS)))
    for query, w in (("order fast", 2), ("order fast", 3),
                     ("batch stream", 4), ("a c g", 3), ("key sort", 5),
                     ("missing terms", 4), ("solo", 1)):
        assert s.best_windows(query, w, all_ids) == ref(query, w, all_ids), \
            (query, w)
    # restricted to a result page
    assert s.best_windows("order fast", 2, [1, 4]) == ref(
        "order fast", 2, [1, 4])
    assert s.best_windows("", 3, all_ids) == []
    assert s.best_windows("order", 3, []) == []


# -- ordered spans (ordered_proximity) --------------------------------------


def _oracle_oprox(a, b, w):
    out = []
    for d, text in enumerate(DOCS):
        t = _toks(text)
        pa_ = [i for i, x in enumerate(t) if x == a]
        pb = [i for i, x in enumerate(t) if x == b]
        if any(1 <= j - i <= w for i in pa_ for j in pb):
            out.append(d)
    return out


def test_ordered_proximity_golden(pos_index):
    s = PositionalSearcher(pos_index)
    vocab = sorted({t for d in DOCS for t in _toks(d)})
    pairs = [(a, b, w) for a in vocab[:6] for b in vocab[:6]
             for w in (1, 2, 4)]
    for a, b, w in pairs:
        assert (s.ordered_proximity(a, b, w).tolist()
                == _oracle_oprox(a, b, w)), (a, b, w)
    # window=0 matches nothing; order matters
    assert s.ordered_proximity("order", "fast", 0).tolist() == []


def test_ordered_proximity_window1_is_bigram_phrase(pos_index):
    s = PositionalSearcher(pos_index)
    vocab = sorted({t for d in DOCS for t in _toks(d)})
    for a in vocab[:5]:
        for b in vocab[:5]:
            assert (s.ordered_proximity(a, b, 1).tolist()
                    == s.phrase(f"{a} {b}").tolist()), (a, b)
