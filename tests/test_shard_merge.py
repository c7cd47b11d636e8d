"""Shard-merge lifecycle: K independently built shard indexes →
merge_index_roots → identical to a fresh build over the concatenated
corpus (postings content, stats, boolean match sets, bit-identical BM25
scores)."""

import os

import pytest
from conftest import assert_same_postings

from ts_type_filter_ray.pipelines.build import (build_index,
                                                merge_index_roots)
from ts_type_filter_ray.pipelines.query import LocalSearcher
from ts_type_filter_ray.sources.corpus import read_corpus
from ts_type_filter_ray.sources.synthetic import generate_corpus

QUERIES = ["import def", "running", "self return", "jalapeños",
           "nonexistentterm", ""]


@pytest.fixture(scope="module")
def merged_and_fresh(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("shardmerge")
    # doc_part_bits=6 (64-doc parts) with a 150-doc first shard makes the
    # id offset NOT part-aligned, so the merge's part re-split is
    # genuinely exercised (rows straddle the shifted part boundary)
    fa = generate_corpus(str(base / "ca"), num_docs=150, seed=11,
                         num_files=2)
    fb = generate_corpus(str(base / "cb"), num_docs=100, seed=22,
                         num_files=2)
    kw = dict(doc_part_bits=6, num_term_buckets=8)
    ia = build_index(read_corpus(fa), str(base / "ia"), **kw)
    ib = build_index(read_corpus(fb), str(base / "ib"), **kw)
    merged = merge_index_roots([ia.root, ib.root], str(base / "im"))
    fresh = build_index(read_corpus(fa + fb), str(base / "if"), **kw)
    return merged, fresh


def test_stats_identical(merged_and_fresh):
    merged, fresh = merged_and_fresh
    assert merged.stats == fresh.stats


def test_postings_tables_identical(merged_and_fresh):
    merged, fresh = merged_and_fresh
    assert_same_postings(merged.root, fresh.root)


def test_match_and_bm25_identical(merged_and_fresh):
    merged, fresh = merged_and_fresh
    sm = LocalSearcher(merged)
    sf = LocalSearcher(fresh)
    for q in QUERIES:
        assert sm.match(q).tolist() == sf.match(q).tolist(), q
        assert sm.bm25(q, k=10) == sf.bm25(q, k=10), q  # scores too


def test_bucket_df_files_written(merged_and_fresh):
    merged, _ = merged_and_fresh
    dirs = [d for d in os.listdir(merged.postings_dir)
            if d.startswith("bucket=")]
    assert dirs
    for d in dirs:
        assert os.path.exists(
            os.path.join(merged.postings_dir, d, "_df.parquet"))


def test_config_mismatch_rejected(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("shardcfg")
    fa = generate_corpus(str(base / "ca"), num_docs=40, seed=3,
                         num_files=1)
    fb = generate_corpus(str(base / "cb"), num_docs=40, seed=4,
                         num_files=1)
    ia = build_index(read_corpus(fa), str(base / "ia"),
                     doc_part_bits=6, num_term_buckets=8)
    ib = build_index(read_corpus(fb), str(base / "ib"),
                     doc_part_bits=8, num_term_buckets=8)
    with pytest.raises(ValueError, match="config mismatch"):
        merge_index_roots([ia.root, ib.root], str(base / "im"))


def test_tombstoned_shard_rejected(ray_session, tmp_path_factory):
    from ts_type_filter_ray.pipelines.build import delete_docs

    base = tmp_path_factory.mktemp("shardtomb")
    fa = generate_corpus(str(base / "ca"), num_docs=40, seed=5,
                         num_files=1)
    ia = build_index(read_corpus(fa), str(base / "ia"),
                     doc_part_bits=6, num_term_buckets=8)
    delete_docs(ia.root, [1, 2])
    with pytest.raises(ValueError, match="tombstones"):
        merge_index_roots([ia.root], str(base / "im"))
