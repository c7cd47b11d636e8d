"""The one index-file writer (``state/index_file.write_index_table``):
every Parquet file of the main and the positional index, and of the side
indexes, is zstd with statistics only on filter keys; a failed docs-shard
write leaves nothing under a final name; and an index written with
pyarrow's defaults (snappy, every statistic) still loads, answers,
extends, compacts and passes fsck."""

import os
import shutil
import types

import pyarrow.parquet as pq
import pytest
from conftest import InjectedFault, assert_same_postings

from ts_type_filter_ray.pipelines import build
from ts_type_filter_ray.pipelines.build import (BuiltIndex, build_index,
                                                compact_index, delete_docs,
                                                extend_index,
                                                merge_index_roots)
from ts_type_filter_ray.pipelines.fsck import fsck_index
from ts_type_filter_ray.pipelines.query import LocalSearcher
from ts_type_filter_ray.sources.corpus import read_corpus
from ts_type_filter_ray.sources.synthetic import generate_corpus
from ts_type_filter_ray.state import index_file

KW = dict(doc_part_bits=4, num_term_buckets=4)
QUERIES = ["import def", "running", "self return", "jalapeños",
           "nonexistentterm"]
#: columns no reader filters on: they must carry no statistics
UNFILTERED = {"doc_ids_enc", "tfs_enc", "dls_enc", "max_impact", "df",
              "pcounts_enc", "poss_enc", "sha256"}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    base = tmp_path_factory.mktemp("index_file")
    return (generate_corpus(str(base / "a"), num_docs=120, seed=5,
                            num_files=2),
            generate_corpus(str(base / "b"), num_docs=60, seed=6,
                            num_files=2))


def _parquet_files(root: str) -> list[str]:
    return sorted(os.path.join(d, f) for d, _, fs in os.walk(root)
                  for f in fs if f.endswith(".parquet"))


def _stats_columns(path: str) -> set[str]:
    """The columns of *path* with statistics in any row group; asserts
    every column chunk is zstd."""
    md = pq.ParquetFile(path).metadata
    out = set()
    for rg in range(md.num_row_groups):
        for c in range(md.num_columns):
            col = md.row_group(rg).column(c)
            assert col.compression == "ZSTD", (path, col.path_in_schema)
            if col.is_stats_set:
                out.add(col.path_in_schema)
    return out


def _assert_compact(root: str) -> int:
    """Every Parquet file under *root* is zstd, has no statistics on an
    unfiltered column, and keeps them on ``term``. Returns the count."""
    files = _parquet_files(root)
    for f in files:
        stats = _stats_columns(f)
        assert not stats & UNFILTERED, (f, stats)
        if "term" in pq.read_schema(f).names:
            assert "term" in stats, f
    return len(files)


def test_every_index_writer_is_compact(ray_session, tmp_path, corpora):
    """Build, extend, delete, compact and shard-merge a main index, and
    build, extend and compact a positional index: every file each step
    leaves is written by the one writer."""
    from ts_type_filter_ray.pipelines.positional import (
        build_positional_index, compact_positional_index,
        extend_positional_index)

    a, b = corpora
    root = str(tmp_path / "main")
    build_index(read_corpus(a), root, **KW)
    n_built = _assert_compact(root)
    extend_index(root, read_corpus(b))
    assert _assert_compact(root) > n_built
    delete_docs(root, [0, 7, 130])
    assert _parquet_files(os.path.join(root, "tombstones"))
    _assert_compact(root)
    compact_index(root)
    _assert_compact(root)
    shard = build_index(read_corpus(b), str(tmp_path / "shard"), **KW)
    merged = str(tmp_path / "merged")
    merge_index_roots([root, shard.root], merged)
    assert _assert_compact(merged) >= 2 * KW["num_term_buckets"]

    pos = str(tmp_path / "pos")
    build_positional_index(read_corpus(a), pos, num_term_buckets=2,
                           doc_part_bits=4)
    extend_positional_index(pos, read_corpus(b))
    delete_docs(pos, [3])
    _assert_compact(pos)
    compact_positional_index(pos)
    assert _assert_compact(pos) >= 2


def test_side_index_files_keep_sort_key_statistics(ray_session, tmp_path,
                                                   corpora):
    """The fuzzy, trigram, forward and numeric files are zstd and keep
    row-group statistics on the sort key their probes prune by, and on
    nothing else."""
    import ray.data as rd

    from ts_type_filter_ray.pipelines.forward import build_forward_index
    from ts_type_filter_ray.pipelines.fuzzy import build_fuzzy_index
    from ts_type_filter_ray.pipelines.numeric import build_numeric_index
    from ts_type_filter_ray.pipelines.trigram import build_trigram_index

    root = build_index(read_corpus(corpora[0]), str(tmp_path / "i"),
                       **KW).root
    docs = pq.read_table(os.path.join(root, "docs"))
    dirs = {
        build_fuzzy_index(root, max_dist=1): {"variant"},
        build_trigram_index(root): {"gram"},
        build_forward_index(root): {"doc_id"},
    }
    build_numeric_index(rd.from_arrow(docs.select(["doc_id", "doc_len"])),
                        root, ["doc_len"])
    field = os.path.join(root, "_numeric", "field=doc_len")
    dirs[os.path.join(field, "byval")] = {"doc_len"}
    dirs[os.path.join(field, "byid")] = {"doc_id"}
    for d, keys in dirs.items():
        files = _parquet_files(d)
        assert files, d
        for f in files:
            assert _stats_columns(f) == keys, f


def _meta_spill(tmp_path, n_docs: int) -> list[str]:
    """Doc-metadata spill files for ``_docs_from_meta_files``, written
    in-process by the build's own tokenizer and spill sink."""
    import pyarrow as pa

    from ts_type_filter_ray.stages.tokenizer import TokenizePartials
    from ts_type_filter_ray.state.spill import (META_BUCKET, SpillDatasink,
                                                spill_files)

    batch = pa.table({
        "doc_id": pa.array(range(n_docs), type=pa.int64()),
        "content": [f"doc {i} import def running" for i in range(n_docs)],
        "repo": ["org/a" if i % 3 else "org/b" for i in range(n_docs)]})
    rows = TokenizePartials(doc_part_bits=4, num_term_buckets=2,
                            emit_meta=True)(batch)
    spill = str(tmp_path / "spill")
    SpillDatasink(spill).write([rows], types.SimpleNamespace(task_idx=0))
    return spill_files(os.path.join(spill, f"bucket={META_BUCKET}"))


@pytest.mark.parametrize("step", ["pq.write_table", "os.replace"])
@pytest.mark.parametrize("writer", ["docs_table", "shard_merge"])
def test_failed_docs_shard_write_leaves_no_torn_file(ray_session, tmp_path,
                                                     faults, corpora, step,
                                                     writer):
    """A docs-shard write that dies midway (the parquet write torn at half
    its bytes) or before it is published leaves no ``docs_*.parquet``
    under a final name, and no tmp file; a retry writes the whole
    shard."""
    out = tmp_path / "docs"
    out.mkdir()
    dest = str(out / "docs_00000.parquet")
    if writer == "docs_table":
        meta = _meta_spill(tmp_path, 40)

        def write():
            return build._docs_from_meta_files(meta, dest)
        want_rows = 40
    else:
        src_root = build_index(read_corpus(corpora[1]),
                               str(tmp_path / "src"), **KW).root
        src = _parquet_files(os.path.join(src_root, "docs"))[0]
        want_rows = pq.read_metadata(src).num_rows

        def write():
            return build._shift_docs_shard(src, dest, 1000)

    faults.arm(index_file, step, tear=step == "pq.write_table")
    with pytest.raises(InjectedFault):
        write()
    faults.undo()
    assert os.listdir(out) == []
    write()
    assert os.listdir(out) == ["docs_00000.parquet"]
    got = pq.read_table(dest)
    assert got.num_rows == want_rows
    if writer == "shard_merge":
        assert got["doc_id"].to_pylist() == [
            i + 1000 for i in pq.read_table(src)["doc_id"].to_pylist()]


def test_index_written_with_pyarrow_defaults_still_works(ray_session,
                                                         tmp_path,
                                                         corpora):
    """An index whose every file was written with ``pq.write_table``'s
    defaults (snappy, statistics on every column) — the layout before
    the compact writer — loads, answers ``==`` the compact index, passes
    fsck, and extends + compacts into an index equal to a fresh build."""
    a, b = corpora
    compact = build_index(read_corpus(a), str(tmp_path / "compact"), **KW)
    old = str(tmp_path / "old")
    shutil.copytree(compact.root, old)
    for f in _parquet_files(old):
        pq.write_table(pq.read_table(f), f)
        md = pq.ParquetFile(f).metadata
        assert md.row_group(0).column(0).compression == "SNAPPY"

    s_old, s_new = (LocalSearcher(BuiltIndex.load(r))
                    for r in (old, compact.root))
    for q in QUERIES:
        assert s_old.match(q).tolist() == s_new.match(q).tolist(), q
        assert s_old.bm25(q, k=10) == s_new.bm25(q, k=10), q
    assert fsck_index(old)["ok"][0].as_py()

    extend_index(old, read_corpus(b))
    extended = compact_index(old)
    fresh = build_index(read_corpus(a + b), str(tmp_path / "fresh"), **KW)
    assert extended.stats == fresh.stats
    assert_same_postings(old, fresh.root)
    docs = [pq.read_table(os.path.join(r, "docs")).sort_by("doc_id")
            for r in (old, fresh.root)]
    assert docs[0].equals(docs[1])
    assert fsck_index(old)["ok"][0].as_py()


def test_any_column_type_reads_back_as_with_pyarrow_defaults(tmp_path):
    """Docs shards carry the corpus's own metadata columns, of any type:
    all-null, nested, dictionary, repeating and unique ones, and an empty
    table, read back as they do from a file written with pyarrow's
    defaults."""
    import pyarrow as pa

    n = 12
    table = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "nulls": pa.nulls(n),
        "null_str": pa.array([None] * n, type=pa.string()),
        "tags": pa.array([[i % 2] for i in range(n)]),
        "meta": pa.array([{"k": i % 3} for i in range(n)]),
        "lang": pa.array(["py"] * n).dictionary_encode(),
        "repo": ["org/a" if i % 3 else "org/b" for i in range(n)],
        "path": [f"src/f{i}.py" for i in range(n)],
        "flag": [i % 2 == 0 for i in range(n)],
        "when": pa.array(range(n), type=pa.date32()),
        "digest": pa.array([bytes([i % 2]) * 4 for i in range(n)],
                           type=pa.binary(4)),
    })
    for t in (table, table.slice(0, 0)):
        ours, theirs = str(tmp_path / "ours.parquet"), str(
            tmp_path / "theirs.parquet")
        index_file.write_index_table(t, ours)
        pq.write_table(t, theirs)
        assert pq.read_table(ours).equals(pq.read_table(theirs))
        assert pq.read_table(ours).equals(t)
        assert sorted(os.listdir(tmp_path)) == ["ours.parquet",
                                                "theirs.parquet"]
