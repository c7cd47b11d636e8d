"""Duplicate-document paths over the code corpus (which plants
byte-identical files — FIXTURES.md F1) and manifest rollup invariants."""

import hashlib

import pyarrow.dataset as pads
import ray.data as rd

from ts_type_filter_ray.functions.dedup import exact_dedup_groups
from ts_type_filter_ray.pipelines.build import build_index
from ts_type_filter_ray.pipelines.query import LocalSearcher, term_bucket
from ts_type_filter_ray.sources.corpus import read_corpus
from ts_type_filter_ray.state.manifest import (build_index_checkpointed,
                                               load_manifest)


def test_planted_duplicates_detected(ray_session, small_code_corpus_dir):
    from ts_type_filter_ray.sources.corpus import read_corpus_docs
    groups = exact_dedup_groups(
        read_corpus_docs(small_code_corpus_dir)).take_all()
    dup_groups = [g for g in groups if g["n_copies"] > 1]
    assert dup_groups, "generator plants byte-identical files"
    total = sum(g["n_copies"] for g in groups)
    assert total == 600
    for g in dup_groups:
        # canonical copy is the smallest doc_id
        assert g["keep_doc_id"] >= 0


def test_manifest_rollup_matches_docs_table(ray_session,
                                            small_code_corpus_dir,
                                            tmp_path_factory):
    out = str(tmp_path_factory.mktemp("rollup_idx"))
    idx = build_index_checkpointed(small_code_corpus_dir, out, num_shards=2,
                                   doc_part_bits=8, num_term_buckets=8)
    manifest = load_manifest(out)
    rollup = 0
    for s in manifest["shards"].values():
        rollup ^= int(s["sha256_xor_rollup"], 16)
    docs = pads.dataset(idx.docs_dir).to_table(columns=["sha256"])
    expect = 0
    for sha in docs["sha256"].to_pylist():
        expect ^= int(sha, 16)
    assert rollup == expect
    # and the rollup equals the XOR over the raw input contents
    src = pads.dataset(small_code_corpus_dir).to_table(columns=["content"])
    raw = 0
    for c in src["content"].to_pylist():
        raw ^= int(hashlib.sha256(c.encode()).hexdigest(), 16)
    assert rollup == raw


def test_bucket_subset_searcher(ray_session, sonnets_corpus_dir,
                                tmp_path_factory):
    """A searcher loading only one term's bucket answers that term
    exactly (the per-actor bucket-sharding path)."""
    out = str(tmp_path_factory.mktemp("subset_idx"))
    idx = build_index(read_corpus(sonnets_corpus_dir), out,
                      doc_part_bits=6, num_term_buckets=8)
    full = LocalSearcher(idx)
    b = term_bucket("fire", 8)
    sub = LocalSearcher(idx, buckets=[b])
    assert sub.match("fire").tolist() == full.match("fire").tolist()
    # a term in another bucket is invisible to this shard by design
    other = next(t for t in ["same", "heat", "thrall"]
                 if term_bucket(t, 8) != b)
    assert sub.match(other).size == 0
    assert full.match(other).size > 0


def test_curation_pipeline(ray_session, tmp_path):
    import json
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ts_type_filter_ray.pipelines.curation import curate

    base = " ".join(f"w{i}" for i in range(50))
    rows = {
        "doc_id": list(range(6)),
        "text": [
            base,                     # 0: keeper
            base,                     # 1: exact dup of 0 → dropped
            base + " tail",           # 2: near dup of 0 → dropped
            "tiny",                   # 3: too short → dropped
            "the and of a to in is it that for " * 5,  # 4: all stopwords
            " ".join(f"z{i}" for i in range(60)),      # 5: keeper
        ],
    }
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(rows["doc_id"], type=pa.int64()),
                                 "text": pa.array(rows["text"])}))
    curated, report = curate(ds, min_tokens=5, max_stopword_ratio=0.8,
                             out_dir=str(tmp_path / "curated"))
    kept = sorted(r["doc_id"] for r in curated.take_all())
    assert kept == [0, 5]
    assert report["dropped_exact_dup"] == 1
    assert report["dropped_near_dup"] >= 1
    assert report["dropped_quality"] == 2
    assert report["kept"] == 2 and report["input"] == 6
    # resumable layout: output is a parquet dir
    out = pq.read_table(str(tmp_path / "curated"))
    assert out.num_rows == 2


_TWO_CPU_CURATE = """
import sys
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
from ts_type_filter_ray.pipelines.curation import curate
d = sys.argv[1]
rng = np.random.default_rng(5)
words = [f"w{i}" for i in range(400)]
texts = [" ".join(rng.choice(words, 60)) for _ in range(150)]
texts += [t + " tail" for t in texts[:20]] + texts[:10]
pq.write_table(pa.table({"doc_id": np.arange(len(texts)),
                         "text": texts}), f"{d}/docs.parquet")
_, report = curate(rd.read_parquet(d), keep_langs=("en", "und"))
print(report["input"], report["dropped_exact_dup"], report["kept"])
"""


def test_curation_finishes_on_two_cpus(tmp_path):
    """The curation pipeline must not deadlock when only two CPUs are
    free: its near-dup and exact-dup side datasets read the corpus and
    shuffle, and while a MinHash actor pool and the base-verdict actor
    pool held CPUs in the same execution, those tasks never ran (a
    one-file corpus hung here; the subprocess time limit turns a hang
    into a failure)."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    out = subprocess.run(
        [sys.executable, "-c", _TWO_CPU_CURATE, str(tmp_path)], cwd=repo,
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    # 150 distinct docs, 20 near copies and 10 exact copies of them
    assert out.stdout.split()[-3:] == ["180", "10", "150"]


def test_tf_cosine_pairs_matches_duckdb(ray_session):
    """Exact all-pairs tf-cosine vs a DuckDB oracle (value-level,
    including the float cosine — all-integer dot/norms, one final
    division on both sides)."""
    import duckdb
    import pyarrow as pa

    from ts_type_filter_ray.functions.dedup import tf_cosine_pairs

    docs = [
        (0, "the cat sat on the mat"),
        (1, "THE cat sat on a mat"),
        (2, "completely different words here"),
        (3, "the the the cat cat mat"),
        (4, ""),
        (5, "the cat sat on the mat"),
        (6, "words different completely here"),
        (7, "   "),
        (8, "mat the"),
    ]
    tbl = pa.table({"doc_id": pa.array([d for d, _ in docs],
                                       type=pa.int64()),
                    "text": pa.array([t for _, t in docs])})
    got = tf_cosine_pairs(rd.from_arrow(tbl), threshold=0.4,
                          num_parts=4).take_all()
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = con.execute(r"""
        with raw as (
          select doc_id,
                 unnest(regexp_split_to_array(lower(trim(text)),'\s+'))
                 as term
          from documents where trim(text) <> ''),
        tf as (select doc_id, term, count(*)::BIGINT as tf
               from raw group by 1, 2),
        nrm as (select doc_id, sum(tf*tf)::BIGINT as sq
                from tf group by 1),
        dt as (select a.doc_id as id_a, b.doc_id as id_b,
                      sum(a.tf*b.tf)::BIGINT as dot
               from tf a join tf b using (term)
               where a.doc_id < b.doc_id group by 1, 2)
        select id_a, id_b,
               dot::DOUBLE / (sqrt(na.sq::DOUBLE) * sqrt(nb.sq::DOUBLE)) as cosine
        from dt
        join nrm na on na.doc_id = id_a
        join nrm nb on nb.doc_id = id_b
        where dot::DOUBLE / (sqrt(na.sq::DOUBLE) * sqrt(nb.sq::DOUBLE))
              >= 0.4::DOUBLE
        order by id_a, id_b""").fetchall()
    assert [(r["id_a"], r["id_b"], r["cosine"]) for r in got] == exp


def test_tf_cosine_max_term_df_underestimates_only(ray_session):
    import pyarrow as pa

    from ts_type_filter_ray.functions.dedup import tf_cosine_pairs

    # 'common' is shared by all docs; capping it out can only LOWER
    # reported cosines / drop pairs, never invent or inflate them
    docs = [(i, f"common tok{i} tok{i}x") for i in range(6)]
    docs += [(10, "common alpha beta gamma"), (11, "common alpha beta gamma")]
    tbl = pa.table({"doc_id": pa.array([d for d, _ in docs],
                                       type=pa.int64()),
                    "text": pa.array([t for _, t in docs])})
    full = {(r["id_a"], r["id_b"]): r["cosine"]
            for r in tf_cosine_pairs(rd.from_arrow(tbl), threshold=0.1,
                                     num_parts=2,
                                     max_term_df=None).take_all()}
    capped = {(r["id_a"], r["id_b"]): r["cosine"]
              for r in tf_cosine_pairs(rd.from_arrow(tbl), threshold=0.1,
                                       num_parts=2,
                                       max_term_df=4).take_all()}
    assert set(capped) <= set(full)
    for k, v in capped.items():
        assert v <= full[k] + 1e-12
    # the 10-11 pair survives the cap through its uncapped terms
    assert (10, 11) in capped
