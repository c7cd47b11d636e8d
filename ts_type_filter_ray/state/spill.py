"""The build's transient exchange: bucket-partitioned LZ4 Arrow IPC files.

Tokenize tasks emit partial rows that carry a ``bucket`` column — the
term's hash bucket for posting rows, :data:`META_BUCKET` for the per-doc
metadata rows. :class:`SpillDatasink` is the write end of a Ray Data job:
each write task lays its rows out as

    <root>/bucket=<b>/<task_idx:08d>.arrow

one file per bucket it touched, rows in arrival order. Merge tasks read a
bucket back with :func:`read_spill` over :func:`spill_files`. The spill
lives only for the length of one build, so it is written the way it is
cheapest to read again: Arrow IPC needs no decode, and LZ4 keeps the
bytes below the Parquet form of the same rows. The finished index stays
Parquet.

The ``bucket`` column itself is not stored — the directory carries it.
Posting files keep only the *posting_columns* (the tokenizer's
passthrough columns are all-null on posting rows); metadata files keep
every column, passthrough metadata included.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np
import pyarrow as pa
from ray.data.block import Block, BlockAccessor
from ray.data.datasource import Datasink

#: names this on-disk layout; checkpoint manifests record it, so partials
#: left in another layout are re-tokenized rather than misread
LAYOUT = "bucket_dirs/arrow_ipc_lz4"
#: ``bucket`` of the per-doc metadata rows (posting rows have ``>= 0``)
META_BUCKET = -1
#: what a posting row of the main index keeps on disk
POSTING_COLUMNS = ("term", "part", "doc_ids", "tfs", "dls")


class SpillDatasink(Datasink[None]):
    """Write end of the spill (see the module docstring).

    Task indices number the write tasks in submission order, so when
    the read, tokenize and write run as one fused task per read task,
    file names sort in doc-id order within every bucket directory."""

    def __init__(self, root: str,
                 posting_columns: Iterable[str] = POSTING_COLUMNS):
        self._root = root
        self._posting_columns = list(posting_columns)

    def write(self, blocks: Iterable[Block], ctx) -> None:
        tables = [t for t in (BlockAccessor.for_block(b).to_arrow()
                              for b in blocks) if t.num_rows]
        if not tables:
            return
        tbl = pa.concat_tables(tables)
        bucket = tbl["bucket"].to_numpy()
        order = np.argsort(bucket, kind="stable")
        bucket = bucket[order]
        tbl = tbl.take(order)
        cuts = (np.flatnonzero(bucket[1:] != bucket[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(bucket)]):
            b = int(bucket[lo])
            rows = tbl.slice(lo, hi - lo)
            rows = (rows.drop_columns(["bucket"]) if b == META_BUCKET
                    else rows.select(self._posting_columns))
            d = os.path.join(self._root, f"bucket={b}")
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, f"{ctx.task_idx:08d}.arrow")
            opts = pa.ipc.IpcWriteOptions(compression="lz4")
            with pa.ipc.new_file(path, rows.schema, options=opts) as w:
                w.write_table(rows)


def spill_files(bucket_dir: str) -> list[str]:
    """The spill files of one ``bucket=<b>`` directory, in name order."""
    return [os.path.join(bucket_dir, f) for f in sorted(os.listdir(bucket_dir))
            if f.endswith(".arrow")]


def read_spill(files: list[str]) -> pa.Table:
    """Concatenate spill *files* (non-empty list) in the given order."""
    tables = []
    for f in files:
        with pa.OSFile(f) as src:
            tables.append(pa.ipc.open_file(src).read_all())
    return pa.concat_tables(tables)
