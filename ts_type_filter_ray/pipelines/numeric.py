"""Numeric field index: range queries, doc-value gathers, sort-by-field.

The points/doc-values half of a fulltext engine (the reference's index
is text-only — ``inverted_index.py`` has no numeric fields; this is the
Lucene-points analog a user needs once documents carry metadata like
``n_chars``). Two sorted single-field Parquet layouts per field, both
built with one Ray Data sort each and both answered by PRUNED reads —
no query ever scans the documents table:

- ``byval/`` — ``(value, doc_id)`` value-sorted. A range query
  ``[lo, hi]`` prunes files by the manifest's per-file [min, max], then
  row groups by footer statistics, and reads only overlapping 4096-row
  groups: O(matching + log) I/O independent of corpus size (the same
  manual row-group pruning the fuzzy index uses —
  ``fuzzy.fuzzy_candidate_terms`` — because pyarrow's dataset filter
  does not prune row groups for these predicates).
- ``byid/`` — ``(doc_id, value)`` doc-sorted: the doc-values column.
  Gathers for a match set (sort-by-field, numeric stats over matches)
  prune the same way on doc_id, so a k-doc gather reads O(k) groups.

Scale notes: each layout is ONE ``Dataset.sort`` over a two-column
projection (16 bytes/row — the all-to-all ships values+ids only, never
text), written as one file per sorted block so files are disjoint in
key-space and prune independently. The JSON manifest is O(num files)
driver state; at cluster scale it would become a Parquet manifest with
the same (file, min, max) rows read column-pruned — noted, not needed
at sandbox scale. Values must be non-null numerics; builds reject null
values loudly rather than silently dropping docs from range semantics.
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state.index_file import write_index_table

__all__ = ["build_numeric_index", "NumericIndex"]

_ROW_GROUP = 4096


def _numeric_dir(root: str) -> str:
    return os.path.join(root, "_numeric")


class _SortedWriter:
    """map_batches callable: one sorted block → one Parquet file +
    manifest row (file, key min/max, rows). Runs after ``Dataset.sort``,
    so each block is internally sorted and blocks are range-disjoint —
    per-file pruning needs no cross-file coordination. *columns* beyond
    the key ride along unchanged (the forward index stores term+tf next
    to its doc_id key)."""

    def __init__(self, out_dir: str, key_col: str, columns: list[str]):
        self._dir = out_dir
        self._key = key_col
        self._cols = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"file": pa.array([], type=pa.string()),
                             "kmin": pa.array([], type=pa.float64()),
                             "kmax": pa.array([], type=pa.float64()),
                             "rows": pa.array([], type=pa.int64())})
        for c in self._cols:
            if batch[c].null_count:
                raise ValueError(
                    f"sorted layout column {c!r} has nulls — null "
                    "semantics for range/gather queries are undefined; "
                    "filter or fill before building")
            # manifest bounds and query bounds travel as float64, which
            # is exact only up to 2^53 — refuse integer magnitudes that
            # would silently misprune/corrupt (ns timestamps etc.)
            if pa.types.is_integer(batch[c].type):
                m = pc.max(pc.abs(batch[c])).as_py()
                if m is not None and m > (1 << 53):
                    raise ValueError(
                        f"numeric index column {c!r} holds |value| > "
                        f"2^53 ({m}) — float64 range/manifest bounds "
                        "would be inexact; rescale the field first")
        batch = batch.select(self._cols)
        name = f"part-{uuid.uuid4().hex}.parquet"
        path = os.path.join(self._dir, name)
        write_index_table(batch, path, filter_keys=(self._key,),
                          row_group_size=_ROW_GROUP)
        col = batch[self._key]
        return pa.table({
            "file": pa.array([name], type=pa.string()),
            "kmin": pa.array([float(pc.min(col).as_py())],
                             type=pa.float64()),
            "kmax": pa.array([float(pc.max(col).as_py())],
                             type=pa.float64()),
            "rows": pa.array([batch.num_rows], type=pa.int64()),
        })


def _write_sorted(ds, out_dir: str, key_col: str,
                  columns: list[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = ds.sort(key_col).map_batches(
        _SortedWriter(out_dir, key_col, columns),
        batch_size=None, batch_format="pyarrow",
    ).take_all()  # bounded: one row per sorted block
    rows = sorted(manifest, key=lambda r: (r["kmin"], r["file"]))
    tmp = os.path.join(out_dir, "_manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(rows, f)
    os.replace(tmp, os.path.join(out_dir, "_manifest.json"))


def build_numeric_index(ds, out_root: str, fields: list[str],
                        doc_id_col: str = "doc_id",
                        fingerprint: str | None = None) -> str:
    """Build the numeric field index for *fields* of Dataset *ds* under
    ``{out_root}/_numeric`` (the ``_`` prefix keeps it invisible to any
    postings/dataset discovery over the index root, like ``_df.parquet``).
    Idempotent per field via ``_SUCCESS.<field>`` markers, so a re-run
    after a crash skips finished fields (resumable-output contract).

    *fingerprint* is the staleness contract (the fuzzy/trigram-artifact
    pattern): pass any string identifying the source snapshot (e.g.
    ``f"{stats.num_documents}:{stats.id_ceiling}"``). A re-build whose
    fingerprint differs from the stored one WIPES the artifact first —
    the ``_SUCCESS`` markers alone would otherwise no-op the rebuild
    and leave range/gather answers silently stale after an
    extend/delete/compact. ``NumericIndex(root,
    expected_fingerprint=...)`` enforces the same contract at load."""
    import shutil

    base = _numeric_dir(out_root)
    meta_path = os.path.join(base, "_meta.json")
    if os.path.isdir(base) and fingerprint is not None:
        stored = None
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                stored = json.load(fh).get("fingerprint")
        if stored != fingerprint:
            shutil.rmtree(base)
    os.makedirs(base, exist_ok=True)
    if fingerprint is not None and not os.path.exists(meta_path):
        with open(meta_path, "w") as fh:
            json.dump({"fingerprint": fingerprint}, fh)
    schema = ds.schema()  # ray.data Schema: parallel .names / .types
    types = dict(zip(schema.names, schema.types))
    for f in fields:
        if f not in types:
            raise ValueError(f"field {f!r} not in dataset schema "
                             f"{schema.names}")
        marker = os.path.join(base, f"_SUCCESS.{f}")
        if os.path.exists(marker):
            continue
        fdir = os.path.join(base, f"field={f}")
        # materialize the 16-byte/row projection ONCE: both sorted
        # layouts consume it, and a lazy plan would re-run the source
        # scan per sort (the packing.py precedent)
        two = ds.select_columns([doc_id_col, f]).materialize()
        _write_sorted(two, os.path.join(fdir, "byval"), f,
                      [f, doc_id_col])
        _write_sorted(two, os.path.join(fdir, "byid"), doc_id_col,
                      [doc_id_col, f])
        dtype = str(types[f])
        with open(os.path.join(fdir, "_field.json"), "w") as fh:
            json.dump({"dtype": dtype, "doc_id_col": doc_id_col}, fh)
        open(marker, "w").close()
    return base


def _load_manifest(d: str) -> list[dict]:
    with open(os.path.join(d, "_manifest.json")) as f:
        return json.load(f)


def _prune_read(d: str, manifest: list[dict], key_col: str,
                lo: float, hi: float, columns: list[str],
                keys: np.ndarray | None = None) -> list[pa.Table]:
    """Read only the row groups whose [min, max] statistics intersect
    [lo, hi] from the files whose manifest range intersects it. When
    *keys* (sorted) is given, a row group must additionally contain AT
    LEAST ONE key — the scattered-id gather case, where the single
    [min(ids), max(ids)] envelope would defeat pruning entirely (two
    ids at the corpus's ends would otherwise read every group)."""
    out = []
    for row in manifest:
        if row["kmax"] < lo or row["kmin"] > hi:
            continue
        pf = pq.ParquetFile(os.path.join(d, row["file"]))
        md = pf.metadata
        ci = pf.schema_arrow.get_field_index(key_col)
        rgs = []
        for i in range(md.num_row_groups):
            st = md.row_group(i).column(ci).statistics
            if st is None or st.min is None or st.max is None:
                rgs.append(i)
                continue
            if float(st.max) < lo or float(st.min) > hi:
                continue
            if keys is not None:
                j = np.searchsorted(keys, st.min)
                if j >= keys.size or keys[j] > st.max:
                    continue
            rgs.append(i)
        if rgs:
            out.append(pf.read_row_groups(rgs, columns=columns))
    return out


class NumericIndex:
    """Query-side handle over a built numeric index. Holds only the
    per-field manifests (O(files) driver state) — every read is pruned."""

    def __init__(self, root: str, expected_fingerprint: str | None = None):
        base = _numeric_dir(root)
        if not os.path.isdir(base):
            raise FileNotFoundError(
                f"no numeric index under {root!r} — run "
                "build_numeric_index first")
        self.fingerprint: str | None = None
        meta_path = os.path.join(base, "_meta.json")
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                self.fingerprint = json.load(fh).get("fingerprint")
        if (expected_fingerprint is not None
                and self.fingerprint != expected_fingerprint):
            raise ValueError(
                f"numeric index under {root!r} is STALE (fingerprint "
                f"{self.fingerprint!r} != expected "
                f"{expected_fingerprint!r}) — re-run build_numeric_index")
        self._base = base
        self._fields: dict[str, dict] = {}
        for name in sorted(os.listdir(base)):
            if not name.startswith("field="):
                continue
            f = name[len("field="):]
            if not os.path.exists(os.path.join(base, f"_SUCCESS.{f}")):
                continue
            fdir = os.path.join(base, name)
            with open(os.path.join(fdir, "_field.json")) as fh:
                meta = json.load(fh)
            self._fields[f] = {
                "dir": fdir,
                "meta": meta,
                "byval": _load_manifest(os.path.join(fdir, "byval")),
                "byid": _load_manifest(os.path.join(fdir, "byid")),
            }

    @property
    def fields(self) -> list[str]:
        return sorted(self._fields)

    def _field(self, field: str) -> dict:
        try:
            return self._fields[field]
        except KeyError:
            raise KeyError(
                f"field {field!r} not in numeric index "
                f"(have {self.fields})") from None

    # -- range queries (byval layout) ----------------------------------

    def range_docs(self, field: str, lo=None, hi=None,
                   include_lo: bool = True, include_hi: bool = True
                   ) -> np.ndarray:
        """Ascending unique doc_ids whose *field* value lies in the
        range. ``None`` bounds are open (Lucene's ``*``); inclusivity
        per side mirrors ``[..]`` vs ``{..}``. Pruned reads only."""
        info = self._field(field)
        flo = -np.inf if lo is None else float(lo)
        fhi = np.inf if hi is None else float(hi)
        if flo > fhi:
            return np.empty(0, dtype=np.int64)
        chunks = _prune_read(os.path.join(info["dir"], "byval"),
                             info["byval"], field, flo, fhi,
                             [field, info["meta"]["doc_id_col"]])
        ids = []
        for t in chunks:
            v = t[field].to_numpy(zero_copy_only=False)
            m = (v >= flo) if include_lo else (v > flo)
            m &= (v <= fhi) if include_hi else (v < fhi)
            if m.any():
                ids.append(t[info["meta"]["doc_id_col"]]
                           .to_numpy(zero_copy_only=False)[m])
        if not ids:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(ids)).astype(np.int64)

    # -- doc-value gathers (byid layout) --------------------------------

    def gather(self, field: str, doc_ids: np.ndarray) -> np.ndarray:
        """Values of *field* aligned to *doc_ids* (any order, duplicates
        legal — each occurrence gets its value). Raises on ids absent
        from the index — a silent NaN would corrupt sort/stats
        semantics. Reads only row groups containing at least one
        requested id (scattered ids stay O(k) groups; a plain
        [min, max] envelope would read everything between them)."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if doc_ids.size == 0:
            return np.empty(0, dtype=np.float64)
        info = self._field(field)
        id_col = info["meta"]["doc_id_col"]
        uniq, inv = np.unique(doc_ids, return_inverse=True)
        lo, hi = float(uniq[0]), float(uniq[-1])
        chunks = _prune_read(os.path.join(info["dir"], "byid"),
                             info["byid"], id_col, lo, hi,
                             [id_col, field], keys=uniq)
        vals_u = np.full(uniq.size, np.nan, dtype=np.float64)
        found = np.zeros(uniq.size, dtype=bool)
        for t in chunks:
            ids_t = t[id_col].to_numpy(zero_copy_only=False)
            v_t = t[field].to_numpy(zero_copy_only=False).astype(np.float64)
            pos = np.searchsorted(uniq, ids_t)
            ok = (pos < uniq.size) & \
                (uniq[np.minimum(pos, uniq.size - 1)] == ids_t)
            vals_u[pos[ok]] = v_t[ok]
            found[pos[ok]] = True
        if not found.all():
            missing = uniq[~found][:5].tolist()
            raise KeyError(
                f"doc_ids missing from numeric index field {field!r}: "
                f"{missing}{'...' if (~found).sum() > 5 else ''}")
        return vals_u[inv]

    def topk_by_field(self, field: str, doc_ids: np.ndarray, k: int,
                      ascending: bool = False
                      ) -> list[tuple[int, float]]:
        """Top-k of *doc_ids* ordered by *field* (value desc by default,
        doc_id asc tie-break) — the sort-by-field result page."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if doc_ids.size == 0:
            return []
        vals = self.gather(field, doc_ids)
        keys = vals if ascending else -vals
        sel = np.lexsort((doc_ids, keys))[:k]
        return [(int(doc_ids[i]), float(vals[i])) for i in sel]

    def stats(self, field: str, doc_ids: np.ndarray) -> dict:
        """count / sum / min / max / avg of *field* over *doc_ids*.
        avg is computed as float64(sum)/float64(count) — the exact
        expression shape the SQL oracle uses (``sum::DOUBLE /
        count::DOUBLE``), so the float is reproducible bit-for-bit."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if doc_ids.size == 0:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "avg": None}
        vals = self.gather(field, doc_ids)
        total = float(np.sum(vals))
        n = int(doc_ids.size)
        return {"count": n, "sum": total,
                "min": float(vals.min()), "max": float(vals.max()),
                "avg": np.float64(total) / np.float64(n)}
