"""The build's spill (state/spill.py): the datasink's bucket layout and
column sets, the reader's order, the fused read → tokenize → spill
operator, and postings bytes that do not depend on the tokenize slice
length."""

import os
from types import SimpleNamespace

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ts_type_filter_ray.stages.tokenizer import TokenizePartials
from ts_type_filter_ray.state.spill import (META_BUCKET, POSTING_COLUMNS,
                                            SpillDatasink, read_spill,
                                            spill_files)


def _corpus_block(lo: int, n: int) -> pa.Table:
    words = ["alpha", "beta", "gamma", "delta", "running", "import"]
    return pa.table({
        "repo": pa.array([f"r{i % 3}" for i in range(lo, lo + n)]),
        "content": pa.array([" ".join(words[(i + j) % 6]
                                      for j in range(1 + i % 5))
                             for i in range(lo, lo + n)]),
        "doc_id": pa.array(range(lo, lo + n), type=pa.int64()),
    })


def test_spill_round_trip_mixed_block(tmp_path):
    """Posting rows, meta rows with a passthrough column and an empty
    block through two write tasks: every bucket's rows come back in
    arrival order, posting files hold only the posting columns, meta
    files keep the passthrough column, and file names sort by task."""
    tok = TokenizePartials(8, 4, emit_meta=True, batch_size=3)
    first, second = tok(_corpus_block(0, 7)), tok(_corpus_block(7, 5))
    first_buckets = set(first["bucket"].to_pylist())
    assert META_BUCKET in first_buckets and len(first_buckets) > 1
    root = str(tmp_path / "spill")
    sink = SpillDatasink(root)
    sink.write([first, first.slice(0, 0)], SimpleNamespace(task_idx=3))
    sink.write([second], SimpleNamespace(task_idx=12))

    both = pa.concat_tables([first, second])
    buckets = sorted(set(both["bucket"].to_pylist()))
    assert sorted(os.listdir(root)) == sorted(f"bucket={b}" for b in buckets)
    for b in buckets:
        files = spill_files(os.path.join(root, f"bucket={b}"))
        assert [os.path.basename(f) for f in files] == [
            name for name, part in (("00000003.arrow", first),
                                    ("00000012.arrow", second))
            if b in part["bucket"].to_pylist()]
        got = read_spill(files)
        want = both.filter(pc.equal(both["bucket"], b))
        if b == META_BUCKET:
            assert got.column_names == [c for c in both.column_names
                                        if c != "bucket"]
            assert "repo" in got.column_names
            assert got.equals(want.drop_columns(["bucket"]))
        else:
            assert got.column_names == list(POSTING_COLUMNS)
            assert got.equals(want.select(list(POSTING_COLUMNS)))
    meta = read_spill(
        spill_files(os.path.join(root, f"bucket={META_BUCKET}")))
    assert pc.list_flatten(meta["doc_ids"]).to_pylist() == list(range(12))


def test_tokenize_slices_match_batches():
    """Cutting a block into slices inside the tokenizer emits the same
    rows as tokenizing the slices one by one."""
    block = _corpus_block(0, 10)
    whole = TokenizePartials(8, 4, emit_meta=True, batch_size=4)(block)
    one = TokenizePartials(8, 4, emit_meta=True)
    parts = [one(block.slice(lo, 4)) for lo in (0, 4, 8)]
    assert whole.equals(pa.concat_tables(parts))
    assert one(block.slice(0, 0)).num_rows == 0


def test_corpus_spill_runs_as_one_fused_task(ray_session,
                                              small_code_corpus_dir,
                                              tmp_path):
    """With a read task per CPU, read → tokenize → spill execute as ONE
    task-pool operator (no block split between read and tokenize), and
    the meta files, in name order, hold the doc ids in order."""
    import ray

    from ts_type_filter_ray.pipelines.build import _tokenize_spill
    from ts_type_filter_ray.sources.corpus import (CorpusDatasource,
                                                   corpus_files, read_corpus)

    cpus = int(ray.cluster_resources()["CPU"])
    n_read = CorpusDatasource(
        corpus_files(small_code_corpus_dir)).num_read_tasks()
    assert n_read >= cpus
    for stopwords, fn in ((None, "tokenize_task"),
                          ({"the"}, "TokenizePartials")):
        out = str(tmp_path / fn)
        written = _tokenize_spill(read_corpus(small_code_corpus_dir), out,
                                  8, 16, 64, None, None, stopwords)
        assert f"ReadCorpus->MapBatches({fn})->Write" in written.stats()
        meta_files = spill_files(os.path.join(out, "bucket=-1"))
        assert len(meta_files) == n_read
        ids = pc.list_flatten(read_spill(meta_files)["doc_ids"])
        assert ids.to_pylist() == list(range(600))


def test_few_read_tasks_still_split_across_cpus(ray_session, tmp_path):
    """A corpus with fewer read tasks than CPUs is still split so every
    CPU gets a block."""
    import ray

    from ts_type_filter_ray.sources.corpus import read_corpus
    from ts_type_filter_ray.sources.synthetic import generate_corpus

    d = str(tmp_path / "one_file")
    generate_corpus(d, num_docs=200, seed=5, num_files=1)
    cpus = int(ray.cluster_resources()["CPU"])
    assert read_corpus(d).materialize().num_blocks() >= cpus


def test_postings_bytes_independent_of_batch_size(ray_session,
                                                  small_code_corpus_dir,
                                                  tmp_path):
    """Postings rows come out in (term, part) order, so two builds of one
    corpus that differ only in the tokenize slice length write equal
    postings tables."""
    from ts_type_filter_ray.pipelines.build import build_index
    from ts_type_filter_ray.sources.corpus import read_corpus

    roots = []
    for bs in (64, 1000):
        roots.append(str(tmp_path / f"bs{bs}"))
        build_index(read_corpus(small_code_corpus_dir), roots[-1],
                    doc_part_bits=4, num_term_buckets=8,
                    tokenize_batch_size=bs)
    buckets = sorted(os.listdir(os.path.join(roots[0], "postings")))
    assert len(buckets) == 8
    for bkt in buckets:
        a, b = (pq.read_table(os.path.join(r, "postings", bkt,
                                           "merged.parquet"))
                for r in roots)
        assert a.equals(b), bkt
        keys = list(zip(a["term"].to_pylist(), a["part"].to_pylist()))
        assert keys == sorted(keys)
