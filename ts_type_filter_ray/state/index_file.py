"""The one writer of every index Parquet file: postings segments,
``_df.parquet``, docs shards, tombstones and the side indexes (fuzzy,
trigram, numeric/forward).

Each file is written under one fixed rule, chosen for bytes on disk:

- zstd at pyarrow's default level for every column;
- a dictionary only for a column whose values repeat, at most one
  distinct value per :data:`_ROWS_PER_DICT_VALUE` rows (a postings
  segment's ``part``, ``df`` and ``tfs_enc``, a docs shard's
  ``repo``/``lang``/``doc_len``). A dictionary over near-unique values
  costs bytes: the sorted ``term`` column of a segment or of
  ``_df.parquet`` compresses smaller plain;
- row-group statistics only on the columns readers filter or prune by
  (*filter_keys*): ``term``, ``part`` and ``doc_id`` by default, a side
  index's sort key for its row-group probes. Statistics on the long
  encoded postings blobs cost bytes and no reader looks at them.

Column names, types and values read back exactly as from a file
written with pyarrow's defaults, so readers, and indexes written with
those defaults, need no format version. The write goes to a
dot-prefixed tmp file unique to the process and thread, which every
index reader skips, and ``os.replace`` publishes it: a failed write
leaves nothing under the final name.
"""

from __future__ import annotations

import os
import threading

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: the columns index readers filter on: a term's rows (the searchers'
#: term lookups), a serving actor's doc partitions, a docs-table lookup
FILTER_KEYS = ("term", "part", "doc_id")
#: a column is dictionary-encoded when it holds at most one distinct
#: value per this many rows
_ROWS_PER_DICT_VALUE = 4


def _repeats(col: pa.ChunkedArray) -> bool:
    if pa.types.is_dictionary(col.type):  # repeats by its own declaration
        return True
    if (len(col) == 0 or pa.types.is_nested(col.type)
            or pa.types.is_null(col.type)):
        return False
    return pc.count_distinct(col).as_py() * _ROWS_PER_DICT_VALUE <= len(col)


def write_index_table(table: pa.Table, path: str, *,
                      filter_keys=FILTER_KEYS,
                      row_group_size: int | None = None) -> None:
    """Write *table* to *path* atomically under the module's rule, with
    row-group statistics on those of *filter_keys* that *table* has."""
    names = table.column_names
    head, tail = os.path.split(path)
    tmp = os.path.join(
        head, f".{tail}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        pq.write_table(
            table, tmp, row_group_size=row_group_size, compression="zstd",
            use_dictionary=[c for c in names if _repeats(table[c])] or False,
            write_statistics=[c for c in filter_keys if c in names] or False)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
