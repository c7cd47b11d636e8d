"""Dominant spectral direction of the hashed term-frequency matrix —
distributed power iteration on the uncentered Gram matrix AᵀA, where A
is the (docs × 2^dim_bits) hashed bag-of-words matrix of
:func:`textstats.hashed_features`.

The LSA-flavoured corpus signal: the top eigendirection of AᵀA is the
dominant co-occurrence axis of the (hashed) vocabulary, and each doc's
projection onto it is a one-number topicality score — the spectral
member of the curation-scoring family (classifier logit, LM perplexity,
DSIR weight, …). Uncentered by design (LSA convention; centering would
densify A).

Shape — one corpus-stream pass per iteration, bounded driver state:

- The feature table (doc_id, feature_idx, tf) materializes ONCE (sparse,
  O(Σ distinct tokens per doc) rows — far smaller than the text) and is
  re-streamed per iteration; a doc's rows are contiguous within a batch
  by construction of ``hashed_features`` (emitted where the doc's text
  lives, never shuffled).
- Per iteration, with the current direction v (2^dim_bits int64,
  broadcast once via ``ray.put``): each batch computes its docs'
  projections u = A·v locally (doc rows are co-resident), scatters
  tf·u into a per-batch partial dimension vector, and emits only the
  nonzero (feature_idx, partial) rows. A Sum groupby over ≤ 2^dim_bits
  keys reduces the partials; the driver folds the ≤ 2^dim_bits-row
  result into the next v. Nothing doc- or corpus-sized ever lands on
  the driver or in the exchange.

Exactness — the all-integer trick: with v₀ = 1 and integer tf, every
u and w is an exact int64, so the SQL oracle (the same iterations
unrolled as join+sum CTEs) matches bit-for-bit. Magnitudes grow by a
factor ≤ T·D per iteration (T = Σ tf, D = max per-doc Σ tf); the
engine PRE-COMPUTES that bound from one partial pass and raises before
any pass could overflow int64. ``shift_bits`` is the scale path for
more iterations: each iterate is floor-divided by 2^shift_bits (exact,
sign-free — all values are nonnegative — and SQL-mirrorable as
``w // 2^s``), trading low bits for unbounded iteration count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset
from ray.data.aggregate import Sum

_INT64_SAFE = 1 << 62


def _bounds(feats: Dataset) -> tuple[int, int]:
    """(T = Σ tf, D = max per-doc Σ tf) from one pass of per-batch
    partials (docs are batch-contiguous, so per-doc sums are local);
    driver folds one tiny row per batch."""

    def partial(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        if len(tf) == 0:
            return pa.table({"t": pa.array([0], type=pa.int64()),
                             "d": pa.array([0], type=pa.int64())})
        new = np.ones(len(d), dtype=bool)
        new[1:] = d[1:] != d[:-1]
        seg = np.cumsum(new) - 1
        per_doc = np.zeros(seg[-1] + 1, dtype=np.int64)
        np.add.at(per_doc, seg, tf)
        return pa.table({"t": pa.array([int(tf.sum())], type=pa.int64()),
                         "d": pa.array([int(per_doc.max())],
                                       type=pa.int64())})

    rows = feats.map_batches(partial, batch_format="pyarrow").take_all()
    return (sum(r["t"] for r in rows),
            max((r["d"] for r in rows), default=0))


def _doc_seg(batch: pa.Table):
    f = batch["feature_idx"].to_numpy(zero_copy_only=False)
    tf = batch["tf"].to_numpy(zero_copy_only=False)
    d = batch["doc_id"].to_numpy(zero_copy_only=False)
    if len(f) == 0:
        return f, tf, d, None, None
    new = np.ones(len(d), dtype=bool)
    new[1:] = d[1:] != d[:-1]
    seg = np.cumsum(new) - 1
    return f, tf, d, new, seg


def _iterate(feats: Dataset, dim: int, iters: int, shift_bits: int,
             growth: int) -> np.ndarray:
    """The power loop: returns the final direction vector (int64,
    length *dim*). One feature-stream pass + one ≤ dim-key Sum groupby
    per iteration; raises before a pass whose worst-case magnitude
    could overflow int64 (all intermediates are ≤ the final bound
    because T ≥ D ≥ tf element-wise)."""
    import ray

    v = np.ones(dim, dtype=np.int64)
    bound = 1
    for _ in range(int(iters)):
        bound = bound * growth
        if bound >= _INT64_SAFE:
            raise ValueError(
                f"power iterate bound {bound:.3g} ≥ 2^62 — raise "
                f"shift_bits (currently {shift_bits}) or lower iters")
        vref = ray.put(v)

        def partials(batch: pa.Table, _vref=vref) -> pa.Table:
            # re-declare the dtype: an unpickled vector carries a
            # non-canonical int64 instance, which sends np.add.at down
            # its slow generic loop (~15x slower)
            vv = np.asarray(ray.get(_vref), dtype=np.int64)
            f, tf, d, new, seg = _doc_seg(batch)
            z = pa.array([], type=pa.int64())
            if len(f) == 0:
                return pa.table({"feature_idx": z, "w": z})
            u = np.zeros(seg[-1] + 1, dtype=np.int64)
            np.add.at(u, seg, tf * vv[f])
            w = np.zeros(len(vv), dtype=np.int64)
            np.add.at(w, f, tf * u[seg])
            nz = np.flatnonzero(w)
            return pa.table({
                "feature_idx": pa.array(nz, type=pa.int64()),
                "w": pa.array(w[nz]),
            })

        summed = (feats.map_batches(partials, batch_format="pyarrow")
                  .groupby("feature_idx").aggregate(Sum("w"))
                  .take_all())  # bounded: ≤ 2^dim_bits rows
        v = np.zeros(dim, dtype=np.int64)
        for r in summed:
            v[r["feature_idx"]] = r["sum(w)"]
        if shift_bits:
            v >>= shift_bits
            bound = max(1, bound >> shift_bits)
    return v


def dominant_direction(ds: Dataset, dim_bits: int = 10, iters: int = 2,
                       shift_bits: int = 0, top_k: int | None = None
                       ) -> Dataset:
    """(feature_idx, score) — the power iterate (AᵀA)^iters · 1 over the
    hashed feature matrix of *ds* (a documents Dataset), sorted by
    (score desc, feature_idx asc), optionally truncated to ``top_k``.
    Integer-exact (see module docstring)."""
    import ray

    from .textstats import hashed_features

    dim = 1 << dim_bits
    # sparse feature table streams once per iteration; annotated
    # boundedness: O(Σ distinct tokens per doc) rows, spillable blocks
    feats = hashed_features(ds, dim_bits=dim_bits).materialize()
    t_sum, d_max = _bounds(feats)
    v = _iterate(feats, dim, iters, shift_bits, max(1, t_sum * d_max))

    nz = np.flatnonzero(v)
    order = np.lexsort((nz, -v[nz]))
    nz = nz[order]
    if top_k is not None:
        nz = nz[:top_k]
    return ray.data.from_arrow(pa.table({
        "feature_idx": pa.array(nz, type=pa.int64()),
        "score": pa.array(v[nz], type=pa.int64()),
    }))


def doc_projections(ds: Dataset, dim_bits: int = 10, iters: int = 2,
                    shift_bits: int = 0) -> Dataset:
    """(doc_id, proj) — each doc's integer projection A·v onto the
    ``iters``-step power iterate (the per-doc spectral topicality
    score). One extra feature-stream pass with the final v broadcast;
    the projection's own overflow bound (D · max|v|, both exact values,
    not estimates) is checked before the pass. Blank docs emit no row
    (inner semantics, matching ``hashed_features``)."""
    import ray

    from .textstats import hashed_features

    dim = 1 << dim_bits
    feats = hashed_features(ds, dim_bits=dim_bits).materialize()
    t_sum, d_max = _bounds(feats)
    v = _iterate(feats, dim, iters, shift_bits, max(1, t_sum * d_max))
    if v.max(initial=0) * max(1, d_max) >= _INT64_SAFE:
        raise ValueError("projection bound ≥ 2^62 — raise shift_bits")
    vref = ray.put(v)

    def proj(batch: pa.Table) -> pa.Table:
        vv = np.asarray(ray.get(vref), dtype=np.int64)  # see partials
        f, tf, d, new, seg = _doc_seg(batch)
        z = pa.array([], type=pa.int64())
        if len(f) == 0:
            return pa.table({"doc_id": z, "proj": z})
        u = np.zeros(seg[-1] + 1, dtype=np.int64)
        np.add.at(u, seg, tf * vv[f])
        return pa.table({
            "doc_id": pa.array(d[new], type=pa.int64()),
            "proj": pa.array(u),
        })

    return feats.map_batches(proj, batch_format="pyarrow").sort("doc_id")
