"""Incremental index extension (LSM segments): building A then extending
with B must equal building A∪B from scratch — stats identical, boolean
matches identical, BM25 top-k scores bit-identical (scores are computed
at query time from current stats + decoded tf/dl, so segment layout must
not leak into results)."""

import glob
import os

import pytest
from conftest import assert_same_postings

from ts_type_filter_ray.pipelines.build import (BuiltIndex, build_index,
                                                extend_index)
from ts_type_filter_ray.pipelines.query import LocalSearcher
from ts_type_filter_ray.sources.corpus import read_corpus
from ts_type_filter_ray.sources.synthetic import generate_corpus

QUERIES = ["import def", "running", "return self import", "jalapeños",
           "ident_1x ident_2x", "word42"]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory, ray_session):
    d = str(tmp_path_factory.mktemp("ext") / "corpus")
    generate_corpus(d, num_docs=400, seed=11, num_files=4)
    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    return files[:2], files[2:3], files[3:], files


def _assert_equal_searchers(sa: LocalSearcher, sb: LocalSearcher):
    for q in QUERIES:
        assert list(sa.match(q)) == list(sb.match(q)), q
        assert [tuple(r) for r in sa.bm25(q, k=10)] == \
               [tuple(r) for r in sb.bm25(q, k=10)], q


def test_extend_equals_fresh_build(corpora, tmp_path, ray_session):
    a, b, c, all_files = corpora
    full = build_index(read_corpus(all_files), str(tmp_path / "full"))

    inc = build_index(read_corpus(a), str(tmp_path / "inc"))
    inc = extend_index(str(tmp_path / "inc"), read_corpus(b))
    assert inc.stats.num_segments == 2
    inc = extend_index(str(tmp_path / "inc"), read_corpus(c))
    assert inc.stats.num_segments == 3

    assert (inc.stats.num_documents, inc.stats.total_doc_len,
            inc.stats.num_unique_terms, inc.stats.num_postings) == \
           (full.stats.num_documents, full.stats.total_doc_len,
            full.stats.num_unique_terms, full.stats.num_postings)
    # extension never raises the pruning bound below validity
    assert inc.stats.impact_correction >= 1.0

    _assert_equal_searchers(LocalSearcher(inc), LocalSearcher(full))


def test_extend_reload_from_disk(corpora, tmp_path, ray_session):
    a, b, _, _ = corpora
    build_index(read_corpus(a), str(tmp_path / "r"))
    extend_index(str(tmp_path / "r"), read_corpus(b))
    re = BuiltIndex.load(str(tmp_path / "r"))
    assert re.stats.num_segments == 2
    s = LocalSearcher(re)
    assert len(s.match("import")) > 0
    # docs shards from both generations are present
    shards = os.listdir(os.path.join(str(tmp_path / "r"), "docs"))
    assert any(f.startswith("docs_g1") for f in shards)


def test_compact_after_extend(corpora, tmp_path, ray_session):
    from ts_type_filter_ray.pipelines.build import compact_index
    a, b, c, all_files = corpora
    full = build_index(read_corpus(all_files), str(tmp_path / "cfull"))
    build_index(read_corpus(a), str(tmp_path / "cinc"))
    extend_index(str(tmp_path / "cinc"), read_corpus(b))
    extend_index(str(tmp_path / "cinc"), read_corpus(c))
    comp = compact_index(str(tmp_path / "cinc"))
    assert comp.stats.num_segments == 1
    assert comp.stats.impact_correction == 1.0
    # byte level: the compacted index IS the fresh build's
    assert comp.stats == full.stats
    assert_same_postings(comp.root, full.root)
    # one file per bucket again
    pdir = os.path.join(str(tmp_path / "cinc"), "postings")
    for d in os.listdir(pdir):
        files = [f for f in os.listdir(os.path.join(pdir, d))
                 if f.endswith(".parquet") and not f.startswith((".", "_"))]
        assert files == ["merged.parquet"]
    _assert_equal_searchers(LocalSearcher(comp), LocalSearcher(full))


def test_failed_commit_keeps_previous_stats(corpora, tmp_path, ray_session,
                                            monkeypatch):
    """stats.json is committed atomically: an extension whose commit
    dies mid-write leaves the pre-extend stats whole and loadable."""
    import json

    a, b, _, _ = corpora
    root = str(tmp_path / "torn")
    before = build_index(read_corpus(a), root).stats
    real_dump = json.dump

    def torn_dump(obj, f, **kw):
        if not (isinstance(obj, dict) and "num_documents" in obj):
            return real_dump(obj, f, **kw)
        f.write(json.dumps(obj, **kw)[:20])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        extend_index(root, read_corpus(b))
    monkeypatch.undo()
    assert BuiltIndex.load(root).stats == before
    assert sorted(os.listdir(root)) == ["docs", "postings", "stats.json"]


def test_uncommitted_segment_stays_invisible(corpora, tmp_path, ray_session,
                                             faults):
    """An extension whose stats commit raises leaves its segment files
    on disk, but every postings reader lists only the segments
    stats.json counts: the warm searcher, the one-off paths and a
    serving actor's partition searcher answer exactly as before the
    extend, with no id at or past N."""
    from conftest import InjectedFault

    from ts_type_filter_ray.pipelines import build
    from ts_type_filter_ray.pipelines.query import (bm25_dataset,
                                                    match_doc_ids)
    from ts_type_filter_ray.pipelines.serve import _DocPartSearcher

    a, b, _, _ = corpora
    root = str(tmp_path / "uncommitted")
    before = LocalSearcher(build_index(read_corpus(a), root))
    want = {q: (before.match(q).tolist(), before.bm25(q, k=10))
            for q in QUERIES + ["import"]}
    faults.arm(build, "json.dump")
    with pytest.raises(InjectedFault):
        extend_index(root, read_corpus(b))
    faults.undo()
    assert glob.glob(os.path.join(root, "postings", "*", "segment_1.*"))
    idx = BuiltIndex.load(root)
    n = idx.stats.num_documents
    after = LocalSearcher(idx)
    actor = _DocPartSearcher._part_searcher(root, list(range(n)))
    for q, (ids, top) in want.items():
        assert after.match(q).tolist() == ids and all(d < n for d in ids), q
        assert after.bm25(q, k=10) == top, q
        assert match_doc_ids(idx, q).tolist() == ids, q
        assert bm25_dataset(idx, q, k=10) == top, q
        assert actor.match(q).tolist() == ids, q


def test_persisted_df_tracks_extend_and_compact(corpora, tmp_path,
                                                ray_session):
    """The per-bucket ``_df.parquet`` written at merge time must stay
    equal to the full postings-metadata aggregation after every extend
    and after compaction (each of those paths refreshes it)."""
    import pyarrow.dataset as pads

    from ts_type_filter_ray.pipelines.build import compact_index
    from ts_type_filter_ray.pipelines.serve import load_global_df

    def meta_df(idx):
        meta = pads.dataset(idx.postings_dir, partitioning="hive").to_table(
            columns=["term", "df"])
        return (meta.group_by("term").aggregate([("df", "sum")])
                .rename_columns(["term", "df"]).sort_by("term"))

    a, b, c, _ = corpora
    idx = build_index(read_corpus(a), str(tmp_path / "dfinc"))
    assert load_global_df(idx).equals(meta_df(idx))
    idx = extend_index(str(tmp_path / "dfinc"), read_corpus(b))
    assert load_global_df(idx).equals(meta_df(idx))
    idx = compact_index(str(tmp_path / "dfinc"))
    assert load_global_df(idx).equals(meta_df(idx))


def _assert_fsck_clean(root):
    from ts_type_filter_ray.pipelines.fsck import fsck_index
    report = fsck_index(root).to_pylist()[0]
    assert report["ok"], report
    assert report["stats_consistent"], report
    assert report["df_files_consistent"], report


def test_extend_leaving_most_buckets_untouched(corpora, tmp_path,
                                               ray_session):
    """One-doc, one-term batches touch a single term bucket each; the
    other buckets still own vocabulary, so the extension's counts must
    still cover them — equal to a fresh build over the union, before and
    after compaction."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ts_type_filter_ray.pipelines.build import compact_index

    a, _, c, _ = corpora
    # one directory, so the sorted file order (= doc_id order) of the
    # fresh build is base files, then the batches in extension order
    base = []
    for i, f in enumerate(a):
        base.append(str(tmp_path / f"a{i}.parquet"))
        shutil.copy(f, base[-1])
    row = pq.read_table(c[0]).slice(0, 1)
    col = row.schema.get_field_index("content")
    batches = []
    for i, word in enumerate(["zzyzxterm", "qwxyzzyterm"]):
        batches.append(str(tmp_path / f"b{i}.parquet"))
        pq.write_table(row.set_column(col, "content", pa.array(
            [word], type=row.schema.field("content").type)), batches[-1])

    full = build_index(read_corpus(base + batches), str(tmp_path / "full"))
    root = str(tmp_path / "inc")
    build_index(read_corpus(base), root)
    for batch in batches:
        inc = extend_index(root, read_corpus([batch]))
        _assert_fsck_clean(root)
    assert (inc.stats.num_unique_terms, inc.stats.num_postings) == \
           (full.stats.num_unique_terms, full.stats.num_postings)

    compact_index(root)
    _assert_fsck_clean(root)
    assert sorted(os.listdir(os.path.join(root, "postings"))) == \
        sorted(os.listdir(full.postings_dir))
    assert_same_postings(root, full.root)


def test_extend_honours_stopwords(corpora, tmp_path, ray_session):
    """A stopworded build extended with the same stopwords equals a
    stopworded fresh build over the union: statistics, match and BM25."""
    import pyarrow as pa
    import ray.data as rd

    def ds(texts):
        return rd.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "content": pa.array(texts, type=pa.large_string())}))

    stop = {"the", "and"}
    root = str(tmp_path / "tiny")
    build_index(ds(["the cat and the dog", "a bird"]), root, stopwords=stop)
    inc = extend_index(root, ds(["the fish"]), stopwords=stop)
    fresh = build_index(ds(["the cat and the dog", "a bird", "the fish"]),
                        str(tmp_path / "tiny_full"), stopwords=stop)
    assert inc.stats.total_doc_len == fresh.stats.total_doc_len == 5
    assert LocalSearcher(inc).match("the").size == 0

    a, b, _, _ = corpora
    stop = {"import", "def", "return", "self"}
    full = build_index(read_corpus(a + b), str(tmp_path / "full"),
                       stopwords=stop)
    build_index(read_corpus(a), str(tmp_path / "inc"), stopwords=stop)
    inc = extend_index(str(tmp_path / "inc"), read_corpus(b),
                       stopwords=stop)
    assert (inc.stats.num_documents, inc.stats.total_doc_len,
            inc.stats.num_unique_terms, inc.stats.num_postings) == \
           (full.stats.num_documents, full.stats.total_doc_len,
            full.stats.num_unique_terms, full.stats.num_postings)
    sa, sb = LocalSearcher(inc), LocalSearcher(full)
    assert sa.match("import").size == 0
    _assert_equal_searchers(sa, sb)


def test_maybe_compact_policy(ray_session, tmp_path):
    """Tiered policy: metadata-only no-op below both thresholds,
    compacts past the segment cap, and result equals an eager
    compaction (same stats, 1 segment)."""
    from ts_type_filter_ray.pipelines.build import (build_index,
                                                    extend_index,
                                                    maybe_compact)
    from ts_type_filter_ray.sources.corpus import read_corpus
    from ts_type_filter_ray.sources.synthetic import generate_corpus

    base = str(tmp_path / "c0")
    generate_corpus(base, num_docs=60, seed=31, num_files=2)
    root = str(tmp_path / "idx")
    build_index(read_corpus(base), root)

    exts = []
    for i in range(3):
        d = str(tmp_path / f"c{i+1}")
        generate_corpus(d, num_docs=20, seed=40 + i, num_files=1)
        exts.append(d)
        extend_index(root, read_corpus(d))

    # 4 segments total — at the default cap, not over it
    did, idx = maybe_compact(root, max_segments=4)
    assert not did and idx.stats.num_segments == 4

    did, idx = maybe_compact(root, max_segments=3)
    assert did and idx.stats.num_segments == 1
    assert idx.stats.num_documents == 120

    # already compact: no-op again
    did, idx = maybe_compact(root, max_segments=3)
    assert not did


def test_maybe_compact_tombstone_trigger(ray_session, tmp_path):
    from ts_type_filter_ray.pipelines.build import (build_index,
                                                    delete_docs,
                                                    maybe_compact)
    from ts_type_filter_ray.sources.corpus import read_corpus
    from ts_type_filter_ray.sources.synthetic import generate_corpus

    base = str(tmp_path / "c0")
    generate_corpus(base, num_docs=50, seed=33, num_files=2)
    root = str(tmp_path / "idx")
    build_index(read_corpus(base), root)

    delete_docs(root, list(range(5)))           # 10% tombstoned
    did, idx = maybe_compact(root, max_tombstone_fraction=0.2)
    assert not did

    delete_docs(root, list(range(5, 20)))       # 40% tombstoned
    did, idx = maybe_compact(root, max_tombstone_fraction=0.2)
    assert did
    assert idx.stats.num_documents == 30


# -- vector-index LSM extend (r5) --------------------------------------


def test_extend_vector_index(ray_session, tmp_path):
    """Appending fresh vectors to a written vector index: pruned reads
    and beam search over the extended layout are identical to a
    one-shot build over the union; id collisions raise before any file
    is written."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions import ann

    rng = np.random.default_rng(2)
    n, d = 300, 8
    emb = rng.normal(size=(n, d)).astype(np.float32)

    def tbl(sl):
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(n, dtype=np.int64)[sl]),
            "embedding": pa.array(list(emb[sl]),
                                  type=pa.list_(pa.float32()))}))

    full = str(tmp_path / "full")
    ann.write_vector_index(tbl(slice(None)), full)
    part = str(tmp_path / "part")
    ann.write_vector_index(tbl(slice(0, 200)), part)
    assert ann.max_indexed_vec_id(part) == 199
    ann.extend_vector_index(part, tbl(slice(200, n)))

    ids = [0, 42, 199, 200, 299]
    a = ann._read_vectors_indexed(full, ids).sort_by("vec_id")
    b = ann._read_vectors_indexed(part, ids).sort_by("vec_id")
    assert a.equals(b)

    import pytest
    with pytest.raises(Exception, match="ceiling"):
        ann.extend_vector_index(part, tbl(slice(50, 60)))

    g = ann.write_graph_index(
        ann.knn_join(tbl(slice(None)), k=4, block_rows=128),
        str(tmp_path / "g"))
    r1 = ann.graph_search_topk(full, g, [3, 250], k=4).to_pandas()
    r2 = ann.graph_search_topk(part, g, [3, 250], k=4).to_pandas()
    assert (r1.values == r2.values).all()


def test_topk_recall(ray_session):
    """Recall evaluator: exact-vs-self is 1.0; a half-degraded result
    reports the exact per-query fractions; mismatched query sets
    raise."""
    import numpy as np
    import pyarrow as pa
    import pytest

    from ts_type_filter_ray.functions.ann import topk_recall

    def res(rows):
        return pa.table({
            "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "rank": pa.array([r[1] for r in rows], type=pa.int32()),
            "vec_id": pa.array([r[2] for r in rows], type=pa.int64()),
        })

    exact = res([(0, 1, 10), (0, 2, 11), (0, 3, 12),
                 (1, 1, 20), (1, 2, 21), (1, 3, 22)])
    perfect = topk_recall(exact, exact)
    assert perfect["recall"].to_pylist() == [1.0, 1.0]

    approx = res([(0, 1, 10), (0, 2, 99), (0, 3, 12),
                  (1, 1, 50), (1, 2, 51), (1, 3, 52)])
    r = topk_recall(approx, exact)
    assert r["query_id"].to_pylist() == [0, 1]
    assert r["n_hits"].to_pylist() == [2, 0]
    assert r["recall"].to_pylist() == [2 / 3, 0.0]

    with pytest.raises(Exception, match="different query sets"):
        topk_recall(res([(7, 1, 1)]), exact)
