"""Composed training-data curation pipeline — the end-to-end shape a
100 TB data pipeline runs, built entirely from this engine's operators:

  read → quality features (vectorized) → exact dedup (sha keep-min)
       → near-dup (MinHash-LSH, Jaccard ≥ t verified distributed)
       → language-ID → write curated parquet + a one-row summary of what
         each stage dropped (no silent truncation).

Scale shape (r2 rework — no driver materialization of per-doc ids):
per-doc verdicts are COLUMNS, not driver sets. The base pass computes
quality and language flags inline; exact-dup losers and near-dup drop ids
are small side *Datasets* (object store, never the driver heap) merged in
through one coarse-partition groupby — the same union-shuffle semi-join
used by ``functions.dedup._attach_blobs``. The doc payload rides through
that single linear shuffle, so ``curated`` needs no second join.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset
from ray.data.aggregate import Count, Sum

from ..functions import dedup, textstats
from ..functions.partitioning import auto_num_parts

_KIND_BASE = 0
_KIND_EXACT_LOSER = 1
_KIND_NEAR_DROP = 2


def exact_dup_losers(docs: Dataset, num_parts: int | None = None) -> Dataset:
    """(doc_id,) of every doc that is NOT the min-doc_id winner of its
    sha256 group — fully distributed: coarse partition of the sha space,
    vectorized segment scan per partition."""
    if num_parts is None:
        num_parts = auto_num_parts(docs)

    def add_sha(batch: pa.Table) -> pa.Table:
        digests = [hashlib.sha256(t.encode("utf-8")).digest()
                   for t in batch["text"].to_pylist()]
        # 8-byte prefix partitions/sorts; the FULL 32-byte hex is what the
        # segment scan compares, so a prefix collision cannot conflate two
        # distinct documents (ADVICE r2)
        key = np.frombuffer(b"".join(d[:8] for d in digests),
                            dtype=np.uint64)
        return pa.table({
            "part": pa.array((key % num_parts).astype(np.int32)),
            "key": pa.array(key),
            "sha256": pa.array([d.hex() for d in digests], type=pa.string()),
            "doc_id": batch["doc_id"],
        })

    def losers(group: pa.Table) -> pa.Table:
        key = group["key"].to_numpy(zero_copy_only=False)
        did = group["doc_id"].to_numpy(zero_copy_only=False)
        sha = group["sha256"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, key))
        key, did, sha = key[order], did[order], sha[order]
        first = np.ones(len(key), dtype=bool)
        # 8-byte key prefix disambiguated by the full sha (collisions)
        first[1:] = (key[1:] != key[:-1]) | (sha[1:] != sha[:-1])
        return pa.table({"doc_id": pa.array(did[~first], type=pa.int64())})

    return (docs.map_batches(add_sha, batch_format="pyarrow")
            .groupby("part").map_groups(losers, batch_format="pyarrow"))


class _BaseVerdicts:
    """Actor-pool stage: payload + kind + vectorized quality/language
    verdict columns in one pass over the corpus."""

    def __init__(self, min_tokens: int, max_stopword_ratio: float,
                 keep_langs: tuple[str, ...] | None):
        self._min_tokens = min_tokens
        self._max_ratio = max_stopword_ratio
        self._keep_langs = keep_langs
        self._langid = textstats.LangIdStage() if keep_langs else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        n_tok, flat, parents = textstats._tokens(batch)
        ntok = n_tok.to_numpy(zero_copy_only=False).astype(np.int64)
        is_stop = pc.is_in(
            pc.utf8_lower(flat),
            value_set=pa.array(textstats.STOPWORDS)).to_numpy(
                zero_copy_only=False)
        par = parents.to_numpy(zero_copy_only=False)
        n_stop = np.bincount(par, weights=is_stop, minlength=n)
        ratio = n_stop / np.maximum(ntok, 1)
        quality_ok = ((ntok >= self._min_tokens)
                      & (ratio <= self._max_ratio)).astype(np.int8)
        if self._langid is None:
            lang_ok = np.ones(n, dtype=np.int8)
        else:
            pred = self._langid(batch)["pred_lang"].to_pylist()
            lang_ok = np.fromiter(
                (p in self._keep_langs for p in pred), dtype=np.int8,
                count=n)
        out = batch.append_column(
            "kind", pa.array(np.full(n, _KIND_BASE, dtype=np.int8)))
        out = out.append_column("quality_ok", pa.array(quality_ok))
        return out.append_column("lang_ok", pa.array(lang_ok))


def curate(docs: Dataset, *,
           min_tokens: int = 5,
           max_stopword_ratio: float = 0.9,
           keep_langs: tuple[str, ...] | None = None,
           jaccard_threshold: float = 0.8,
           out_dir: str | None = None,
           num_parts: int | None = None) -> tuple[Dataset, dict]:
    """Return (curated dataset, per-stage drop counts).

    *docs* must have ``doc_id:int64, text:string`` (+ any payload
    columns, carried through). The report is one small driver aggregate;
    per-doc state never leaves the cluster. ``num_parts=None`` derives
    the coarse-partition count from the corpus row count
    (:func:`..functions.partitioning.auto_num_parts`) so per-partition
    ``map_groups`` tasks stay memory-bounded at any corpus size.
    """
    if num_parts is None:
        num_parts = auto_num_parts(docs)
    schema = docs.schema()  # ray.data Schema wrapper
    payload_names = list(schema.names)
    payload_types = dict(zip(schema.names, schema.types))

    base = docs.map_batches(
        _BaseVerdicts,
        fn_constructor_args=(min_tokens, max_stopword_ratio, keep_langs),
        batch_format="pyarrow", concurrency=(1, 8))

    # the two small side datasets run to the object store first, each
    # with the whole cluster: executed inside the union below, their
    # reads and shuffles waited on CPUs held by the base stage's actor
    # pool and the pipeline hung on a 3-CPU cluster
    losers = exact_dup_losers(docs, num_parts).materialize()
    near_drops = (dedup.minhash_dedup_pairs(docs,
                                            threshold=jaccard_threshold)
                  .groupby("id_b").aggregate(Count(alias_name="n"))
                  .select_columns(["id_b"])).materialize()

    def marker(kind: int, id_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols: dict[str, pa.Array] = {}
            for name in payload_names:
                t = payload_types[name]
                if name == "doc_id":
                    cols[name] = batch[id_col].cast(pa.int64())
                else:
                    cols[name] = pa.nulls(n, type=t)
            cols["kind"] = pa.array(np.full(n, kind, dtype=np.int8))
            cols["quality_ok"] = pa.array(np.zeros(n, dtype=np.int8))
            cols["lang_ok"] = pa.array(np.zeros(n, dtype=np.int8))
            return pa.table(cols)
        return fn

    stream = base.union(
        losers.map_batches(marker(_KIND_EXACT_LOSER, "doc_id"),
                           batch_format="pyarrow"),
        near_drops.map_batches(marker(_KIND_NEAR_DROP, "id_b"),
                               batch_format="pyarrow"))

    def add_part(batch: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(batch["doc_id"], num_parts - 1),
                       pa.int32())
        return batch.append_column("part", part)

    def merge(group: pa.Table) -> pa.Table:
        kind = group["kind"].to_numpy(zero_copy_only=False)
        did = group["doc_id"].to_numpy(zero_copy_only=False)
        base_mask = kind == _KIND_BASE
        base_ids = did[base_mask]
        exact_ok = (~np.isin(base_ids, did[kind == _KIND_EXACT_LOSER])
                    ).astype(np.int8)
        near_ok = (~np.isin(base_ids, did[kind == _KIND_NEAR_DROP])
                   ).astype(np.int8)
        sub = group.filter(pa.array(base_mask))
        q = sub["quality_ok"].to_numpy(zero_copy_only=False)
        lang = sub["lang_ok"].to_numpy(zero_copy_only=False)
        pre_lang = (q & exact_ok & near_ok).astype(np.int8)
        keep = (pre_lang & lang).astype(np.int8)
        out = pa.table({name: sub[name] for name in payload_names})
        for name, arr in (("quality_ok", q), ("exact_ok", exact_ok),
                          ("near_ok", near_ok), ("lang_ok", lang),
                          ("pre_lang", pre_lang), ("keep", keep)):
            out = out.append_column(name, pa.array(arr))
        return out

    merged = (stream.map_batches(add_part, batch_format="pyarrow")
              .groupby("part").map_groups(merge, batch_format="pyarrow"))

    agg = merged.aggregate(
        Count(alias_name="n"),
        Sum("quality_ok", alias_name="q"),
        Sum("exact_ok", alias_name="x"),
        Sum("near_ok", alias_name="nr"),
        Sum("pre_lang", alias_name="pre"),
        Sum("keep", alias_name="keep"))
    n0 = int(agg["n"])
    report = {
        "input": n0,
        "dropped_quality": n0 - int(agg["q"]),
        "dropped_exact_dup": n0 - int(agg["x"]),
        "dropped_near_dup": n0 - int(agg["nr"]),
        "kept": int(agg["keep"]),
    }
    if keep_langs is not None:
        report["dropped_language"] = int(agg["pre"]) - int(agg["keep"])

    def only_kept(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch["keep"], 1)).select(payload_names)

    curated = merged.map_batches(only_kept, batch_format="pyarrow")
    if out_dir:
        curated.write_parquet(out_dir)
    return curated, report


def curation_report_table(sf_dir: str, **kw) -> pa.Table:
    """One-row summary table for the driver contract (rows-only check)."""
    import ray.data as rd
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    _, report = curate(docs, **kw)
    return pa.table({k: pa.array([v], type=pa.int64())
                     for k, v in sorted(report.items())})
