"""Corpus sources: deterministic doc_id-assigning Parquet reader and the
adapter from the driver's ``documents.parquet`` shape to the corpus shape.

Doc-id design (SURVEY.md §1.4, §7.4): the reference's "insertion order"
(``ts_type_filter/inverted_index.py:53,99-101``) becomes a dense
``doc_id:int64`` assigned from **(file order, row order)** — a metadata-only
footer pass on the driver computes per-row-group global offsets, then one
Ray task per row-group reads its rows and stamps ``doc_id = offset + i``.
This is deterministic, needs **no shuffle** (unlike sort-based ranking),
and scales: at 10^12 files the footer pass itself becomes a small Ray job
over file manifests, and the per-row-group task model is unchanged.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd
from ray.data import Dataset
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]


def corpus_files(path_or_dir: str | list[str]) -> list[str]:
    """Resolve a directory / glob / list into a sorted file list (the
    file order that defines doc_id order)."""
    if isinstance(path_or_dir, list):
        return sorted(path_or_dir)
    if os.path.isdir(path_or_dir):
        return sorted(glob.glob(os.path.join(path_or_dir, "*.parquet")))
    return sorted(glob.glob(path_or_dir))


def _row_group_tasks(files: list[str]) -> list[dict]:
    """Footer-only metadata pass: one task per parquet row-group with its
    global row offset. Cheap (reads footers, not data)."""
    tasks = []
    offset = 0
    for path in files:
        md = pq.ParquetFile(path).metadata
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            tasks.append({"path": path, "row_group": rg,
                          "doc_id_offset": offset, "num_rows": g.num_rows,
                          "size_bytes": g.total_byte_size})
            offset += g.num_rows
    return tasks


def _read_one_row_group(path: str, rg: int, offset: int,
                        columns: list[str] | None) -> pa.Table:
    tbl = pq.ParquetFile(path).read_row_group(rg, columns=columns)
    doc_ids = pa.array(range(offset, offset + tbl.num_rows), type=pa.int64())
    return tbl.append_column("doc_id", doc_ids)


class CorpusDatasource(Datasource):
    """One independent ``ReadTask`` per parquet row-group with real
    num_rows/size_bytes metadata, so the streaming executor schedules
    reads in parallel and never bundles the whole corpus into one task
    (a ``from_items`` task-descriptor table has ~100-byte rows — the
    executor coalesces those into a single bundle and the fused
    read→tokenize stage ends up on ONE actor; measured 0% tokenize
    scaling before this class existed)."""

    def __init__(self, files: list[str], columns: list[str] | None = None,
                 tasks: list[dict] | None = None):
        """``tasks`` overrides the metadata pass — used by the sharded
        checkpointed build, whose doc_id offsets are global while the
        shard's file list is a subset."""
        self._columns = columns
        self._tasks = tasks if tasks is not None else _row_group_tasks(files)
        # uncompressed byte size per row group: carried in the task
        # dicts from the ONE footer pass (re-opening every footer here
        # doubled the driver-side metadata cost); tasks from older
        # callers without the field fall back to a footer read
        self._sizes = []
        by_path: dict[str, pq.ParquetFile] = {}
        for t in self._tasks:
            size = t.get("size_bytes")
            if size is None:
                pf = by_path.setdefault(t["path"],
                                        pq.ParquetFile(t["path"]))
                size = pf.metadata.row_group(t["row_group"]).total_byte_size
            self._sizes.append(size)

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._sizes)

    def get_name(self) -> str:
        return "Corpus"

    def num_read_tasks(self, parallelism: int | None = None) -> int:
        """How many read tasks :meth:`get_read_tasks` makes: one per
        *parallelism* (if given), at most one per row group and at most
        4 per cluster CPU (Ray's default parallelism hint floors at
        200, which defeats the bundling; 4 per CPU leaves slack for
        stragglers at a bounded dispatch cost)."""
        cap = 4 * _cluster_cpus()
        if parallelism is not None:
            cap = min(cap, parallelism)
        return max(1, min(len(self._tasks), cap))

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        """Bundle contiguous row groups into ≤ ``parallelism`` tasks.

        One task per row group (r1) made task count ∝ corpus size: on
        this VM the driver dispatches ~100-150 tasks/s, so 160 read
        tasks cost ~1-2 s of serial driver time at ANY cpu count — a
        non-scaling floor. Honoring the executor's parallelism hint
        keeps tasks ≫ cpus without drowning the dispatcher."""
        tasks = self._tasks
        n_bundles = self.num_read_tasks(parallelism)
        cols = self._columns
        out = []
        for b in range(n_bundles):
            lo = b * len(tasks) // n_bundles
            hi = (b + 1) * len(tasks) // n_bundles
            if hi <= lo:
                continue
            bundle = tasks[lo:hi]
            size = sum(self._sizes[lo:hi])
            meta = BlockMetadata(
                num_rows=sum(t["num_rows"] for t in bundle),
                size_bytes=size, exec_stats=None,
                input_files=sorted({t["path"] for t in bundle}))
            specs = [(t["path"], t["row_group"], t["doc_id_offset"])
                     for t in bundle]

            def read_bundle(specs=specs, c=cols):
                return [pa.concat_tables(
                    [_read_one_row_group(p, r, o, c) for p, r, o in specs])]

            out.append(ReadTask(read_bundle, meta))
        return out


def _cluster_cpus() -> int:
    try:
        import ray
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def read_corpus_source(source: CorpusDatasource) -> Dataset:
    """``read_datasource`` with as many output blocks as read tasks, and
    at least one per cluster CPU. Ray splits each read task's output
    whenever it expects fewer blocks than that; a split read cannot fuse
    with the stages after it, so the build's read → tokenize → spill
    runs as one task per read task when there are enough read tasks,
    and is split across CPUs when there are not."""
    return rd.read_datasource(source, override_num_blocks=max(
        source.num_read_tasks(), _cluster_cpus()))


def read_corpus(path_or_dir: str | list[str],
                columns: list[str] | None = None) -> Dataset:
    """Read a corpus directory as a Dataset with dense deterministic
    ``doc_id``; ``columns`` prunes at the read (always includes corpus
    columns needed downstream if given)."""
    files = corpus_files(path_or_dir)
    if not files:
        raise FileNotFoundError(f"no parquet files under {path_or_dir!r}")
    return read_corpus_source(CorpusDatasource(files, columns))


def corpus_from_documents(sf_dir: str) -> Dataset:
    """Adapt the driver's ``documents.parquet``
    (``doc_id,text,lang,source,n_chars`` — TESTDATA.md) into the corpus
    shape mandated by ``BASELINE.json`` ``input_hint``. The existing
    ``doc_id`` is kept as the insertion order."""
    path = os.path.join(sf_dir, "documents.parquet")

    def adapt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        doc_ids = batch["doc_id"]
        return pa.table({
            "repo": batch["source"],
            "path": pa.array([f"doc{d}.txt" for d in doc_ids.to_pylist()]),
            "commit": pa.array(["0" * 40] * n),
            "lang": batch["lang"],
            "content": batch["text"].cast(pa.large_string()),
            "doc_id": doc_ids,
        })

    return rd.read_parquet(path).map_batches(adapt, batch_format="pyarrow")


# ------------------------------------------------ delimited-text corpora

def _read_delimited(path: str, fmt: str,
                    columns: list[str] | None = None) -> pa.Table:
    """Read one JSONL / CSV file as an Arrow table (pyarrow C++ readers)."""
    if fmt == "jsonl":
        import pyarrow.json as pj
        tbl = pj.read_json(path)
    elif fmt == "csv":
        import pyarrow.csv as pcsv
        tbl = pcsv.read_csv(path)
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")
    if columns is not None:
        tbl = tbl.select(columns)
    return tbl


class _DelimitedCorpusDatasource(Datasource):
    """JSONL/CSV corpus with the same deterministic-``doc_id`` contract
    as :class:`CorpusDatasource`: ids ordered by (file order, row order).
    One ReadTask per file (delimited formats have no row groups);
    ``offsets[i]`` is file i's global row offset."""

    def __init__(self, files: list[str], fmt: str, offsets: list[int],
                 columns: list[str] | None = None):
        self._files = files
        self._fmt = fmt
        self._offsets = offsets
        self._columns = columns
        self._sizes = [os.path.getsize(f) for f in files]

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._sizes)

    def get_name(self) -> str:
        return f"Corpus[{self._fmt}]"

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        out = []
        for path, off, size in zip(self._files, self._offsets,
                                   self._sizes):
            meta = BlockMetadata(num_rows=None, size_bytes=size,
                                 exec_stats=None, input_files=[path])

            def read_file(p=path, o=off, f=self._fmt, c=self._columns):
                tbl = _read_delimited(p, f, c)
                ids = pa.array(range(o, o + tbl.num_rows), type=pa.int64())
                return [tbl.append_column("doc_id", ids)]

            out.append(ReadTask(read_file, meta))
        return out


def read_corpus_delimited(path_or_dir: str | list[str], fmt: str,
                          columns: list[str] | None = None,
                          dense_ids: bool = True) -> Dataset:
    """Read a JSONL (``fmt="jsonl"``) or CSV (``fmt="csv"``) corpus with
    deterministic ``doc_id``.

    ``dense_ids=True`` (default, matches the Parquet reader's contract)
    needs per-file row counts for the global offsets; delimited formats
    have no footer metadata, so a DISTRIBUTED counting pass reads each
    file once before the real read — 2× the I/O. That is the honest
    price of dense ids on footer-less formats; prefer Parquet at scale,
    or pass ``dense_ids=False`` to stamp unique sortable
    ``(file_index << 40) | row_index`` ids in a single pass (ids are no
    longer dense, and the flagship build's ``doc_id >> bits`` merge
    partitioning then shards by FILE — fine when files are even-sized,
    skewed when not)."""
    if isinstance(path_or_dir, list):
        files = sorted(path_or_dir)
    elif os.path.isdir(path_or_dir):
        ext = "jsonl" if fmt == "jsonl" else "csv"
        # .gz variants decompress transparently in the pyarrow readers
        # (compression inferred from the extension) — the common
        # crawl-dump delivery format
        files = sorted(
            glob.glob(os.path.join(path_or_dir, f"*.{ext}"))
            + glob.glob(os.path.join(path_or_dir, f"*.{ext}.gz")))
    else:
        files = sorted(glob.glob(path_or_dir))
    if not files:
        raise FileNotFoundError(f"no {fmt} files under {path_or_dir!r}")

    if dense_ids:
        def count(batch: pa.Table) -> pa.Table:
            ns = [_read_delimited(p, fmt).num_rows
                  for p in batch["path"].to_pylist()]
            return pa.table({"path": batch["path"],
                             "n": pa.array(ns, type=pa.int64())})

        rows = (rd.from_arrow(pa.table({"path": pa.array(files)}))
                .map_batches(count, batch_format="pyarrow").take_all())
        by_path = {r["path"]: r["n"] for r in rows}  # ≤ #files rows
        offsets, total = [], 0
        for f in files:
            offsets.append(total)
            total += by_path[f]
    else:
        offsets = [i << 40 for i in range(len(files))]
    return rd.read_datasource(
        _DelimitedCorpusDatasource(files, fmt, offsets, columns))


def read_corpus_docs(path_or_dir: str | list[str]):
    """:func:`read_corpus` adapted to the documents-table contract
    (``doc_id``, ``text``) the functions/ operators consume — the ONE
    place the ``content → text`` schema mapping lives (CLI, bench, and
    tests all route through it)."""
    import pyarrow as pa

    def to_docs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "text": batch["content"].cast(pa.string()),
        })

    return read_corpus(path_or_dir).map_batches(
        to_docs, batch_format="pyarrow")
