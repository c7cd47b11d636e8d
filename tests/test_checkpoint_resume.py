"""Checkpoint/resume: interrupted builds resume with zero recomputation of
completed shards and produce an index identical to an uninterrupted build."""

import os

import pytest
from conftest import assert_same_postings

from ts_type_filter_ray.pipelines.build import build_index
from ts_type_filter_ray.pipelines.query import LocalSearcher
from ts_type_filter_ray.sources.corpus import read_corpus
from ts_type_filter_ray.state.manifest import (build_index_checkpointed,
                                               load_manifest)

QUERIES = ["import", "def return", "ident_5x", "uniq_10_0", "Import", ""]


@pytest.fixture(scope="module")
def direct_index(ray_session, small_code_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("direct_idx")
    return build_index(read_corpus(small_code_corpus_dir), str(out),
                       doc_part_bits=8, num_term_buckets=16)


def _mtimes(root):
    out = {}
    for dirpath, _dirs, fnames in os.walk(os.path.join(root, "partials")):
        for f in fnames:
            p = os.path.join(dirpath, f)
            out[p] = os.path.getmtime(p)
    return out


def test_interrupt_resume_identical(ray_session, small_code_corpus_dir,
                                    tmp_path_factory, direct_index):
    out = str(tmp_path_factory.mktemp("ckpt_idx"))

    # "interrupted" run: only 2 of 4 shards complete
    res = build_index_checkpointed(small_code_corpus_dir, out,
                                   num_shards=4, doc_part_bits=8,
                                   num_term_buckets=16,
                                   max_shards_this_run=2)
    assert res is None
    m = load_manifest(out)
    assert sum(1 for s in m["shards"].values() if s["status"] == "done") == 2
    before = _mtimes(out)
    assert before

    # resume: completes remaining shards WITHOUT touching finished ones
    idx = build_index_checkpointed(small_code_corpus_dir, out,
                                   num_shards=4, doc_part_bits=8,
                                   num_term_buckets=16)
    assert idx is not None
    after = _mtimes(out)
    for p, t in before.items():
        assert after[p] == t, f"completed shard output {p} was recomputed"

    # identical to the uninterrupted one-shot build
    assert idx.stats.num_documents == direct_index.stats.num_documents
    assert idx.stats.num_unique_terms == direct_index.stats.num_unique_terms
    assert idx.stats.num_postings == direct_index.stats.num_postings
    assert idx.stats.total_doc_len == direct_index.stats.total_doc_len

    s_ck, s_di = LocalSearcher(idx), LocalSearcher(direct_index)
    for q in QUERIES:
        assert s_ck.match(q).tolist() == s_di.match(q).tolist()
        assert s_ck.bm25(q, k=10) == s_di.bm25(q, k=10)


def test_second_resume_is_noop(ray_session, small_code_corpus_dir,
                               tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt_idx2"))
    build_index_checkpointed(small_code_corpus_dir, out, num_shards=2,
                             doc_part_bits=8, num_term_buckets=8)
    before = _mtimes(out)
    build_index_checkpointed(small_code_corpus_dir, out, num_shards=2,
                             doc_part_bits=8, num_term_buckets=8)
    assert _mtimes(out) == before  # every shard skipped on resume


def test_manifest_records_rollup_and_counters(ray_session,
                                              small_code_corpus_dir,
                                              tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt_idx3"))
    build_index_checkpointed(small_code_corpus_dir, out, num_shards=2,
                             doc_part_bits=8, num_term_buckets=8)
    m = load_manifest(out)
    assert len(m["shards"]) == 2
    total_docs = sum(s["num_docs"] for s in m["shards"].values())
    assert total_docs == 600
    for s in m["shards"].values():
        assert s["fingerprint"]
        assert len(s["sha256_xor_rollup"]) == 64
        assert s["total_doc_len"] > 0


def test_reshard_invalidates_stale_partials(ray_session,
                                            small_code_corpus_dir,
                                            tmp_path_factory, direct_index):
    """Re-running into the same out_dir with different --shards (or bucket
    params) must wipe incompatible partials, not double-count them
    (ADVICE r1)."""
    out = str(tmp_path_factory.mktemp("ckpt_idx4"))
    build_index_checkpointed(small_code_corpus_dir, out, num_shards=5,
                             doc_part_bits=8, num_term_buckets=16)
    # different shard count: old partials are incompatible
    idx = build_index_checkpointed(small_code_corpus_dir, out, num_shards=3,
                                   doc_part_bits=8, num_term_buckets=16)
    m = load_manifest(out)
    assert m["params"]["num_shards"] == 3
    assert set(m["shards"]) == {"0", "1", "2"}
    shard_dirs = sorted(d for d in os.listdir(os.path.join(out, "partials"))
                        if d.startswith("shard="))
    assert shard_dirs == ["shard=0", "shard=1", "shard=2"]
    # the 3-shard checkpointed build IS build_index's, byte for byte
    assert idx.stats == direct_index.stats
    assert_same_postings(idx.root, direct_index.root)


def test_finalize_param_mismatch_raises(ray_session, small_code_corpus_dir,
                                        tmp_path_factory):
    from ts_type_filter_ray.state.manifest import finalize_index
    out = str(tmp_path_factory.mktemp("ckpt_idx5"))
    build_index_checkpointed(small_code_corpus_dir, out, num_shards=2,
                             doc_part_bits=8, num_term_buckets=8)
    with pytest.raises(RuntimeError, match="params"):
        finalize_index(out, num_term_buckets=32, doc_part_bits=8)


def test_resume_rewrites_partials_from_an_older_spill_layout(
        ray_session, small_code_corpus_dir, tmp_path_factory, direct_index):
    """A checkpoint whose manifest predates the spill layout key (its
    partials were Parquet) is wiped and every shard re-tokenized; the
    finished index equals the direct build."""
    import json

    import pyarrow.parquet as pq

    from ts_type_filter_ray.state.spill import read_spill, spill_files

    out = str(tmp_path_factory.mktemp("ckpt_idx6"))
    build_index_checkpointed(small_code_corpus_dir, out, num_shards=2,
                             doc_part_bits=8, num_term_buckets=16)
    # turn the checkpoint into the older layout: Parquet partials and a
    # manifest whose params carry no spill key
    for dirpath, _dirs, _files in os.walk(os.path.join(out, "partials")):
        for f in spill_files(dirpath):
            pq.write_table(read_spill([f]), f[:-len(".arrow")] + ".parquet")
            os.remove(f)
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    manifest["params"] = {"num_shards": 2, "num_term_buckets": 16,
                          "doc_part_bits": 8}
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    stale = _mtimes(out)

    idx = build_index_checkpointed(small_code_corpus_dir, out, num_shards=2,
                                   doc_part_bits=8, num_term_buckets=16)
    assert not set(stale) & set(_mtimes(out))  # every shard re-ran
    assert idx.stats == direct_index.stats
    for d in sorted(os.listdir(direct_index.postings_dir)):
        got, want = (pq.read_table(os.path.join(root, "postings", d,
                                                "merged.parquet"))
                     for root in (out, direct_index.root))
        assert got.equals(want), d
    s_ck, s_di = LocalSearcher(idx), LocalSearcher(direct_index)
    for q in QUERIES:
        assert s_ck.bm25(q, k=10) == s_di.bm25(q, k=10)


def test_empty_corpus_raises_like_build_index(ray_session,
                                              small_code_corpus_dir,
                                              tmp_path):
    """A corpus of one zero-row file: the checkpointed build fails with
    the same error as ``build_index`` instead of committing a zero-doc
    index whose avgdl divides by zero."""
    import pyarrow.parquet as pq

    first = sorted(f for f in os.listdir(small_code_corpus_dir)
                   if f.endswith(".parquet"))[0]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(
        pq.read_table(os.path.join(small_code_corpus_dir, first)).slice(0, 0),
        str(corpus / "part-00000.parquet"))
    msg = "cannot build an index over an empty corpus"
    with pytest.raises(ValueError, match=msg):
        build_index(read_corpus(str(corpus)), str(tmp_path / "direct"))
    with pytest.raises(ValueError, match=msg):
        build_index_checkpointed(str(corpus), str(tmp_path / "ckpt"),
                                 num_shards=2)
    assert not os.path.exists(str(tmp_path / "ckpt" / "stats.json"))
