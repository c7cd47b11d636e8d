"""Distributed suffix array over the corpus character stream — the
faithful ExactSubstr machinery (Lee et al. 2022, "Deduplicating
Training Data Makes Language Models Better", §4: suffix-array
duplicate-substring detection), built by prefix doubling
(Manber & Myers 1990) as a sequence of linear Ray Data shuffles.

The corpus string is ``G = concat over doc_id asc of
(lower(trim(text)) + chr(1))`` — every document (blank included)
followed by one separator; ``chr(1)`` sorts below every text character
and never appears inside a document, so an equal pair of
separator-free windows is automatically a pair of *within-document*
windows. Positions are 0-based code points of ``G``.

Prefix doubling, shuffle-native: the state after round *j* is one row
per position ``(pos, r)`` where ``r`` is the **first-ordinal** of the
position's equal-``2^j``-prefix class — the number of positions whose
``2^j``-prefix sorts strictly below (ties share the ordinal). First
ordinals preserve both order and equality, and they make the re-rank
*local*: because ``r`` already counts every row in smaller classes,
the next round's ordinal is

    r' = r + (first-ordinal of r2 within the r-class)

which needs only the rows of ONE class — so each round is exactly two
linear exchanges, with no global sort and no driver state:

1. *shift zip*: attach ``r2 = r[pos + 2^j]`` (−1 past the end — the
   shorter suffix sorts first, which is lexicographic for suffixes) by
   re-keying a copy of the rank table to ``pos − 2^j`` and aligning
   inside contiguous ``pos >> cbits`` ranges (positions are dense, so
   the alignment is one searchsorted);
2. *class re-rank*: group by ``r`` (same class → same partition), sort
   the class by ``r2``, add the within-class subgroup offsets.

Rounds continue until no class holds ≥ 2 rows — i.e. until
``2^j`` exceeds the longest repeated substring, so the round count is
``O(log(max repeat))``, not ``O(log n)``. Skew note: the largest
round-*j* task is the largest equal-``2^j``-prefix class. For natural
text that decays geometrically (round 1 ≈ the most frequent
character's share); a degenerate corpus (one repeated byte) keeps O(n)
classes through ``log(n)`` rounds — the known doubling worst case;
difference-cover (DC3) sampling is the published fix if such corpora
matter.

Value-exactness: ``suffix_ranks`` is gate-checked against a DuckDB
oracle that materializes every suffix of the same ``G`` **truncated to
``max_compare`` code points** and takes ``rank() over (order by
suffix)``; truncation is sound because the engine refuses to answer
(raises) unless doubling converged within ``max_compare`` — i.e. the
longest repeated substring is shorter than the oracle's comparison
window. ``sa_dup_coverage`` is checked against an L-gram
``group by having count(*) >= 2`` + gaps-and-islands SQL oracle — the
fixed-length formulation computed by independent means.

No reference counterpart: retaildevcrews/ts_type_filter has no
suffix-array or dedup machinery; this extends the engine's
training-data family (``ngrams.dup_token_spans`` is the token-level
fixed-k cousin; this module gives variable-length char-level matching
from the same corpus contract).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from .partitioning import auto_num_parts

__all__ = ["suffix_ranks", "sa_dup_coverage", "suffix_lcp",
           "longest_repeat", "SuffixArray", "cross_longest_common",
           "distinct_substrings"]

#: Above this many pairs, the LCP descent switches from the
#: broadcast-gather path (requests shipped to the rank tables via
#: ``ray.put``, zero shuffles, state held as driver numpy — bounded by
#: this constant) to the shuffle path (state stays distributed; each
#: level is a gather + apply exchange pair).
DESCEND_BROADCAST_ROWS = 2_000_000

_SEP = "\x01"

_CHAR_SCHEMA = {"pos": pa.int64(), "r": pa.int64()}


def _norm_text(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """lower(trim(text)) with the SQL-trim contract (ASCII space only),
    nulls as '' — the corpus-string normalization shared with the
    DuckDB oracle."""
    col = pc.fill_null(col, "")
    col = pc.utf8_trim(col, " ")
    col = pc.utf8_lower(col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col


def _char_stream(ds: Dataset, part_bits: int = 12
                 ) -> tuple[Dataset, Dataset, int]:
    """(chars, bounds, n): ``chars`` has one row per code point of G —
    (pos, r) with r = the raw code point (an order- and equality-
    preserving labeling; :func:`_ordinalize` turns it into first
    ordinals) — and ``bounds`` one row per document (doc_id, off, len)
    giving its half-open char range [off, off+len) inside G (the
    separator at off+len belongs to no document).

    Offsets come from the packing-style two-pass exclusive scan: one
    length pass, a per-part Sum groupby, an O(parts) driver prefix
    broadcast via ``ray.put`` — document CONTENT never shuffles, and
    because ``part = doc_id >> part_bits`` owns a contiguous doc-id
    range, each part also owns one contiguous char range: its task
    emits (pos, code) rows from a single whole-group encode + arange.
    """
    import ray
    from ray.data.aggregate import Sum

    def lens(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        t = _norm_text(batch["text"])
        return pa.table({
            "part": pa.array((d >> part_bits).astype(np.int64)),
            "doc_id": pa.array(d, type=pa.int64()),
            "len": pc.cast(pc.utf8_length(t), pa.int64()),
        })

    counts = ds.map_batches(lens, batch_format="pyarrow").materialize()

    def part_partials(batch: pa.Table) -> pa.Table:
        part = batch["part"].to_numpy(zero_copy_only=False)
        ln = batch["len"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(part, return_inverse=True)
        sums = np.bincount(inv, weights=(ln + 1).astype(np.float64))
        return pa.table({
            "part": pa.array(uniq, type=pa.int64()),
            "part_n": pa.array(sums.astype(np.int64)),
        })

    totals = (counts.map_batches(part_partials, batch_format="pyarrow")
              .groupby("part").aggregate(Sum("part_n"))
              .rename_columns(["part", "part_n"]).take_all())
    totals.sort(key=lambda row: row["part"])
    base: dict[int, int] = {}
    off = 0
    for row in totals:
        base[int(row["part"])] = off
        off += int(row["part_n"])
    n = off
    base_ref = ray.put(base)

    def bounds_rows(group: pa.Table) -> pa.Table:
        bases = ray.get(base_ref)
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        ln = group["len"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(d, kind="stable")
        d, ln = d[order], ln[order]
        part = int(group["part"][0].as_py())
        offs = bases[part] + np.concatenate(
            ([0], np.cumsum(ln + 1)))[:-1]
        return pa.table({
            "doc_id": pa.array(d, type=pa.int64()),
            "off": pa.array(offs),
            "len": pa.array(ln),
        })

    bounds = counts.groupby("part").map_groups(
        bounds_rows, batch_format="pyarrow")

    # the char emission needs text + the part base: zip the original
    # docs with nothing — each task re-derives its part's doc order and
    # within-part offsets from its own rows (one length pass per group)
    def doc_rows(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "part": pa.array((d >> part_bits).astype(np.int64)),
            "doc_id": pa.array(d, type=pa.int64()),
            "text": pc.cast(_norm_text(batch["text"]), pa.large_string()),
        })

    def emit_chars(group: pa.Table) -> pa.Table:
        bases = ray.get(base_ref)
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(d, kind="stable")
        texts = group["text"].combine_chunks().take(pa.array(order))
        part = int(group["part"][0].as_py())
        joined = _SEP.join(texts.to_pylist()) + _SEP
        codes = np.frombuffer(joined.encode("utf-32-le"),
                              dtype="<u4").astype(np.int64)
        pos = bases[part] + np.arange(len(codes), dtype=np.int64)
        return pa.table({"pos": pa.array(pos), "r": pa.array(codes)})

    chars = (ds.map_batches(doc_rows, batch_format="pyarrow")
             .groupby("part").map_groups(emit_chars,
                                         batch_format="pyarrow"))
    return chars, bounds, n


def _empty_rank() -> pa.Table:
    return pa.table({"pos": pa.array([], type=pa.int64()),
                     "r": pa.array([], type=pa.int64())})


def _ordinalize(chars: Dataset) -> Dataset:
    """Raw code-point labels → first ordinals (count of strictly
    smaller code points) via one alphabet-bounded groupby + an
    O(alphabet) driver prefix broadcast — establishes the doubling
    invariant for round 0 (prefix length 1)."""
    import ray
    from ray.data.aggregate import Count

    hist = (chars.groupby("r").aggregate(Count(alias_name="c"))
            .take_all())                      # <= |alphabet| rows
    hist.sort(key=lambda row: row["r"])
    first = {}
    acc = 0
    for row in hist:
        first[int(row["r"])] = acc
        acc += int(row["c"])
    first_ref = ray.put(first)

    def relabel(batch: pa.Table) -> pa.Table:
        lut = ray.get(first_ref)
        r = batch["r"].to_numpy(zero_copy_only=False)
        keys = np.array(sorted(lut), dtype=np.int64)
        vals = np.array([lut[int(k)] for k in keys], dtype=np.int64)
        idx = np.searchsorted(keys, r)
        return pa.table({"pos": batch["pos"],
                         "r": pa.array(vals[idx])})

    return chars.map_batches(relabel, batch_format="pyarrow")


def _attach_shifted(ranks: Dataset, k: int, n: int,
                    num_parts: int) -> Dataset:
    """(pos, r, r2) with ``r2 = r[pos + k]`` (−1 past the end): one
    union-shuffle zip inside contiguous pos ranges — positions are
    dense, so a searchsorted aligns the shifted copy."""
    shift = max(1, (n + num_parts - 1) // num_parts)

    def own(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        return pa.table({
            "part": pa.array(p // shift),
            "pos": batch["pos"],
            "side": pa.array(np.zeros(len(p), dtype=np.int8)),
            "r": batch["r"],
        })

    def shifted(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        keep = p >= k
        p2 = p[keep] - k
        return pa.table({
            "part": pa.array(p2 // shift),
            "pos": pa.array(p2),
            "side": pa.array(np.ones(len(p2), dtype=np.int8)),
            "r": batch["r"].filter(pa.array(keep)),
        })

    def zip_pos(group: pa.Table) -> pa.Table:
        p = group["pos"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        r = group["r"].to_numpy(zero_copy_only=False)
        o0 = np.flatnonzero(side == 0)
        o1 = np.flatnonzero(side == 1)
        order0 = o0[np.argsort(p[o0], kind="stable")]
        p0, r0 = p[order0], r[order0]
        r2 = np.full(len(p0), -1, dtype=np.int64)
        if len(o1):
            order1 = o1[np.argsort(p[o1], kind="stable")]
            p1, r1 = p[order1], r[order1]
            idx = np.searchsorted(p0, p1)
            if (idx >= len(p0)).any() or not np.array_equal(p0[idx], p1):
                raise ValueError(
                    "suffix doubling: shifted rank rows reference "
                    "positions absent from the dense range")
            r2[idx] = r1
        return pa.table({
            "pos": pa.array(p0),
            "r": pa.array(r0),
            "r2": pa.array(r2),
        })

    return (ranks.map_batches(own, batch_format="pyarrow")
            .union(ranks.map_batches(shifted, batch_format="pyarrow"))
            .groupby("part").map_groups(zip_pos, batch_format="pyarrow"))


def _rerank(pairs: Dataset, num_parts: int) -> Dataset:
    """(pos, r, dup): the class-local re-rank — group by the current
    rank (one class per task), sort by r2, new first ordinals =
    ``r + subgroup offset``; ``dup`` marks rows whose (r, r2) subgroup
    still holds ≥ 2 members (Σ dup = 0 ⇔ converged)."""

    def mask(batch: pa.Table) -> pa.Table:
        r = batch["r"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "part", pa.array((r & (num_parts - 1)).astype(np.int32)))

    def rerank(group: pa.Table) -> pa.Table:
        r = group["r"].to_numpy(zero_copy_only=False)
        r2 = group["r2"].to_numpy(zero_copy_only=False)
        p = group["pos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((r2, r))
        r, r2, p = r[order], r2[order], p[order]
        m = len(r)
        class_new = np.ones(m, dtype=bool)
        class_new[1:] = r[1:] != r[:-1]
        pair_new = class_new.copy()
        pair_new[1:] |= r2[1:] != r2[:-1]
        idx = np.arange(m, dtype=np.int64)
        class_start = idx[class_new][np.cumsum(class_new) - 1]
        pair_start = idx[pair_new][np.cumsum(pair_new) - 1]
        new_r = r + (pair_start - class_start)
        pair_id = np.cumsum(pair_new) - 1
        sizes = np.bincount(pair_id)
        dup = (sizes[pair_id] >= 2)
        return pa.table({
            "pos": pa.array(p),
            "r": pa.array(new_r),
            "dup": pa.array(dup.astype(np.int64)),
        })

    return (pairs.map_batches(mask, batch_format="pyarrow")
            .groupby("part").map_groups(rerank, batch_format="pyarrow"))


def _double_until(ds: Dataset, stop_k: int | None, max_k: int,
                  num_parts: int | None, levels: dict | None = None
                  ) -> tuple[Dataset, Dataset, int, int, bool]:
    """Shared doubling driver → (ranks, bounds, n, k, converged):
    ``ranks`` holds first ordinals of the equal-``k``-prefix classes.
    Runs until convergence (``stop_k`` None) or until ``k >= stop_k``,
    whichever first; raises if convergence would need ``k > max_k``.

    When ``levels`` is a dict, every intermediate rank table is
    retained in it keyed by its prefix length (1, 2, 4, …) — the
    sparse table the LCP binary descent reads. The tables are the
    rounds' own materializations, so collection costs no extra
    compute; the retained footprint is O(n log maxrepeat) rows in the
    (spillable) object store — the standard sparse-table space
    tradeoff.
    """
    from ray.data.aggregate import Sum

    chars, bounds, n = _char_stream(ds)
    if num_parts is None:
        num_parts = auto_num_parts(n)
    # Block-count discipline: each round unions two branches (doubling
    # the block count) and the groupbys preserve it, so without a cap
    # the rounds accumulate 2^round blocks — measured 1.1 s → 310 s per
    # round by k=32 at a 150k-char corpus from per-block overhead
    # alone. Re-coalescing to num_parts blocks at every materialize
    # boundary keeps per-round cost flat (and is what a multi-node run
    # needs too: the sort-shuffle's sample/reduce fan-out is
    # block-count-bounded).
    ranks = _ordinalize(chars).repartition(num_parts).materialize()
    k = 1
    converged = False
    if levels is not None:
        levels[1] = ranks
    while stop_k is None or k < stop_k:
        if stop_k is None:
            # convergence probe: any class with >= 2 members left?
            pairs = _attach_shifted(ranks, k, n, num_parts)
            nxt = (_rerank(pairs, num_parts)
                   .repartition(num_parts).materialize())
            dups = nxt.aggregate(Sum("dup", alias_name="d"))["d"] or 0
            ranks = nxt.drop_columns(["dup"])
            k *= 2
            if levels is not None:
                levels[k] = ranks
            if dups == 0:
                converged = True
                break
            if k > max_k:
                raise ValueError(
                    f"suffix doubling needs prefix length > {max_k} "
                    f"to separate all suffixes — the corpus holds a "
                    f"repeated substring of >= {max_k} code points; "
                    f"raise max_compare")
        else:
            pairs = _attach_shifted(ranks, k, n, num_parts)
            ranks = (_rerank(pairs, num_parts).drop_columns(["dup"])
                     .repartition(num_parts).materialize())
            k *= 2
            if levels is not None:
                levels[k] = ranks
    return ranks, bounds, n, k, converged


def suffix_ranks(ds: Dataset, stride: int = 1,
                 max_compare: int = 4096,
                 num_parts: int | None = None) -> Dataset:
    """(pos, rank) — the suffix-array rank of every ``stride``-th code
    point of the corpus string G (rank = number of suffixes of G that
    sort strictly below; all suffixes of one string are distinct, so
    ranks are a permutation of 0..n−1 restricted to the probed
    positions). Raises unless doubling converges within
    ``max_compare`` code points — the guarantee that makes the
    truncated-suffix SQL oracle exact (module docstring)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    ranks, _bounds, _n, _k, _converged = _double_until(
        ds, None, max_compare, num_parts)

    def strided(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        keep = pa.array(p % stride == 0)
        return pa.table({
            "pos": batch["pos"].filter(keep),
            "rank": batch["r"].filter(keep),
        })

    return ranks.map_batches(strided, batch_format="pyarrow").sort("pos")


def sa_dup_coverage(ds: Dataset, min_len: int,
                    num_parts: int | None = None) -> Dataset:
    """(doc_id, n_chars, n_dup_chars, dup_char_fraction) — per
    document, how many of its code points are covered by at least one
    window of exactly ``min_len`` code points that occurs >= 2 times in
    the corpus string G (within-document windows only pair with
    within-document windows — the separator argument in the module
    docstring). Only documents with >= 1 covered position are reported
    (inner semantics, the dedup-family convention). ExactSubstr at the
    fixed threshold length: a position is covered by some >= min_len
    repeat iff it is covered by some exactly-min_len repeat.

    Distributed shape: doubling runs only to the largest power of two
    <= min_len (NOT to convergence), one shift zip attaches the second
    sparse-table anchor ``r[pos + L − 2^j]``, one rank-keyed groupby
    counts (r, r2) key multiplicities (equal keys ⟺ equal L-prefix) —
    duplicated starts come out of a segment scan, never a pair
    expansion — then a pos-range zip attributes starts to documents
    (bounds rows replicated to the O(1) pos parts their span touches)
    and a doc-keyed groupby takes each document's interval union with
    one diff-array cumsum."""
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    kj = _anchor_k(min_len)
    ranks, bounds, n, _k, converged = _double_until(
        ds, kj, 1 << 62, num_parts)
    if num_parts is None:
        num_parts = auto_num_parts(n)
    return _dup_coverage_body(ranks, bounds, n, converged, min_len,
                              num_parts)


def _anchor_k(min_len: int) -> int:
    """Largest power of two <= min_len — the sparse-table anchor."""
    kj = 1
    while kj * 2 <= min_len:
        kj *= 2
    return kj


def _dup_coverage_body(ranks: Dataset, bounds: Dataset, n: int,
                       converged: bool, min_len: int,
                       num_parts: int) -> Dataset:
    kj = _anchor_k(min_len)

    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "n_chars": pa.array([], type=pa.int64()),
        "n_dup_chars": pa.array([], type=pa.int64()),
        "dup_char_fraction": pa.array([], type=pa.float64()),
    })
    if converged:
        # every suffix separated before prefix length kj <= min_len:
        # no min_len-gram occurs twice
        import ray.data as rd
        return rd.from_arrow(empty)

    d = min_len - kj
    if d > 0:
        keyed = _attach_shifted(ranks, d, n, num_parts)
    else:
        keyed = ranks.map_batches(
            lambda b: b.append_column("r2", b["r"]),
            batch_format="pyarrow")

    def count_key(batch: pa.Table) -> pa.Table:
        r = batch["r"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "part", pa.array((r & (num_parts - 1)).astype(np.int32)))

    last_valid = n - min_len  # start of the last full window

    def dup_starts(group: pa.Table) -> pa.Table:
        r = group["r"].to_numpy(zero_copy_only=False)
        r2 = group["r2"].to_numpy(zero_copy_only=False)
        p = group["pos"].to_numpy(zero_copy_only=False)
        valid = p <= last_valid
        r, r2, p = r[valid], r2[valid], p[valid]
        order = np.lexsort((r2, r))
        r, r2, p = r[order], r2[order], p[order]
        m = len(r)
        if m == 0:
            return pa.table({"pos": pa.array([], type=pa.int64())})
        new = np.ones(m, dtype=bool)
        new[1:] = (r[1:] != r[:-1]) | (r2[1:] != r2[:-1])
        gid = np.cumsum(new) - 1
        dup = (np.bincount(gid) >= 2)[gid]
        return pa.table({"pos": pa.array(np.sort(p[dup]))})

    starts = (keyed.map_batches(count_key, batch_format="pyarrow")
              .groupby("part").map_groups(dup_starts,
                                          batch_format="pyarrow"))

    # doc attribution: bounds rows replicated to every pos part their
    # char span touches; starts keyed by their own part
    shift = max(1, (n + num_parts - 1) // num_parts)

    def start_rows(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        return pa.table({
            "part": pa.array(p // shift),
            "pos": pa.array(p, type=pa.int64()),
            "doc_id": pa.array(np.full(len(p), -1, dtype=np.int64)),
            "off": pa.array(np.zeros(len(p), dtype=np.int64)),
            "len": pa.array(np.zeros(len(p), dtype=np.int64)),
        })

    def bound_rows(batch: pa.Table) -> pa.Table:
        off = batch["off"].to_numpy(zero_copy_only=False)
        ln = batch["len"].to_numpy(zero_copy_only=False)
        d_ = batch["doc_id"].to_numpy(zero_copy_only=False)
        lo = off // shift
        hi = np.maximum(off + ln - 1, off) // shift
        reps = (hi - lo + 1).astype(np.int64)
        ends = np.cumsum(reps)
        within = np.arange(int(ends[-1]) if len(ends) else 0,
                           dtype=np.int64) - np.repeat(ends - reps, reps)
        return pa.table({
            "part": pa.array(np.repeat(lo, reps) + within),
            "pos": pa.array(np.full(int(reps.sum()), -1, dtype=np.int64)),
            "doc_id": pa.array(np.repeat(d_, reps), type=pa.int64()),
            "off": pa.array(np.repeat(off, reps)),
            "len": pa.array(np.repeat(ln, reps)),
        })

    def attribute(group: pa.Table) -> pa.Table:
        p = group["pos"].to_numpy(zero_copy_only=False)
        is_start = p >= 0
        sp = p[is_start]
        b_off = group["off"].to_numpy(zero_copy_only=False)[~is_start]
        b_len = group["len"].to_numpy(zero_copy_only=False)[~is_start]
        b_doc = group["doc_id"].to_numpy(
            zero_copy_only=False)[~is_start]
        order = np.argsort(b_off, kind="stable")
        b_off, b_len, b_doc = b_off[order], b_len[order], b_doc[order]
        if sp.size == 0 or b_off.size == 0:
            return pa.table({
                "dpart": pa.array([], type=pa.int32()),
                "doc_id": pa.array([], type=pa.int64()),
                "lp": pa.array([], type=pa.int64()),
                "len": pa.array([], type=pa.int64()),
            })
        di = np.searchsorted(b_off, sp, side="right") - 1
        ok = di >= 0
        dj = np.maximum(di, 0)
        ok &= (sp >= b_off[dj]) & (sp + min_len <= b_off[dj] + b_len[dj])
        sp, dj = sp[ok], dj[ok]
        doc = b_doc[dj]
        return pa.table({
            "dpart": pa.array((doc & (num_parts - 1)).astype(np.int32)),
            "doc_id": pa.array(doc, type=pa.int64()),
            "lp": pa.array(sp - b_off[dj]),
            "len": pa.array(b_len[dj]),
        })

    routed = (starts.map_batches(start_rows, batch_format="pyarrow")
              .union(bounds.map_batches(bound_rows,
                                        batch_format="pyarrow"))
              .groupby("part").map_groups(attribute,
                                          batch_format="pyarrow"))

    def cover(group: pa.Table) -> pa.Table:
        doc = group["doc_id"].to_numpy(zero_copy_only=False)
        lp = group["lp"].to_numpy(zero_copy_only=False)
        ln = group["len"].to_numpy(zero_copy_only=False)
        order = np.lexsort((lp, doc))
        doc, lp, ln = doc[order], lp[order], ln[order]
        first = np.ones(len(doc), dtype=bool)
        first[1:] = doc[1:] != doc[:-1]
        prev = np.empty(len(lp), dtype=np.int64)
        prev[0] = 0
        prev[1:] = lp[:-1]
        contrib = np.where(first, min_len,
                           np.minimum(min_len, lp - prev))
        seg = np.cumsum(first) - 1
        covered = np.bincount(seg, weights=contrib).astype(np.int64)
        u_doc, u_len = doc[first], ln[first]
        return pa.table({
            "doc_id": pa.array(u_doc, type=pa.int64()),
            "n_chars": pa.array(u_len, type=pa.int64()),
            "n_dup_chars": pa.array(covered),
            "dup_char_fraction": pa.array(covered / u_len,
                                          type=pa.float64()),
        })

    return routed.groupby("dpart").map_groups(
        cover, batch_format="pyarrow")


def _pair_predecessors(ranks: Dataset, n: int, num_parts: int,
                       stride: int) -> Dataset:
    """(a, b, lo=0): for every position ``a`` with ``a % stride == 0``
    whose suffix has a predecessor in suffix-array order, the position
    ``b`` of that predecessor — the LCP array's pair set. Final ranks
    are a dense permutation of 0..n−1, so the pairing is the same
    union-shuffle zip as :func:`_attach_shifted`, keyed on rank:
    a copy of the table re-keyed to ``r + 1`` lands with its
    successor."""
    shift = max(1, (n + num_parts - 1) // num_parts)

    def own(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        r = batch["r"].to_numpy(zero_copy_only=False)
        keep = p % stride == 0
        p, r = p[keep], r[keep]
        return pa.table({
            "part": pa.array(r // shift),
            "rk": pa.array(r),
            "pos": pa.array(p),
            "side": pa.array(np.zeros(len(p), dtype=np.int8)),
        })

    def pred(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        r = batch["r"].to_numpy(zero_copy_only=False) + 1
        keep = r < n
        p, r = p[keep], r[keep]
        return pa.table({
            "part": pa.array(r // shift),
            "rk": pa.array(r),
            "pos": pa.array(p),
            "side": pa.array(np.ones(len(p), dtype=np.int8)),
        })

    def pairup(group: pa.Table) -> pa.Table:
        rk = group["rk"].to_numpy(zero_copy_only=False)
        pos = group["pos"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        o = np.flatnonzero(side == 0)
        q = np.flatnonzero(side == 1)
        empty = pa.table({
            "a": pa.array([], type=pa.int64()),
            "b": pa.array([], type=pa.int64()),
            "lo": pa.array([], type=pa.int64()),
        })
        if len(o) == 0 or len(q) == 0:
            return empty
        oo = o[np.argsort(rk[o], kind="stable")]
        qq = q[np.argsort(rk[q], kind="stable")]
        ork, opos = rk[oo], pos[oo]
        qrk, qpos = rk[qq], pos[qq]
        idx = np.searchsorted(qrk, ork)
        ok = idx < len(qrk)
        ok[ok] = qrk[idx[ok]] == ork[ok]
        a = opos[ok]
        b = qpos[idx[ok]]
        return pa.table({
            "a": pa.array(a, type=pa.int64()),
            "b": pa.array(b, type=pa.int64()),
            "lo": pa.array(np.zeros(len(a), dtype=np.int64)),
        })

    return (ranks.map_batches(own, batch_format="pyarrow")
            .union(ranks.map_batches(pred, batch_format="pyarrow"))
            .groupby("part").map_groups(pairup, batch_format="pyarrow"))


def _descend_one(state: Dataset, rank_tab: Dataset, bit: int, n: int,
                 num_parts: int) -> Dataset:
    """One binary-descent level: for every pair (a, b, lo), test
    whether the length-``bit`` windows at offset ``lo`` agree —
    ``R_bit[a+lo] == R_bit[b+lo]`` ⟺ the windows are equal as strings
    (module docstring: an equal *truncated* window would force the two
    full suffixes equal, impossible) — and advance matching rows to
    ``lo + bit``. Two exchanges: a gather routed by the requested
    position's dense-range part (the rank table ships O(n) slim int
    rows — same order as one doubling round), then an apply routed by
    the pair's own id. Rows whose request would fall past the end keep
    their ``lo`` (no chars left to extend)."""
    shift = max(1, (n + num_parts - 1) // num_parts)
    mask = num_parts - 1

    def reqs(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        lo = batch["lo"].to_numpy(zero_copy_only=False)
        ok = ((a + lo) < n) & ((b + lo) < n)
        qa, qb = (a + lo)[ok], (b + lo)[ok]
        rowid = np.concatenate([a[ok], a[ok]])
        q = np.concatenate([qa, qb])
        side = np.concatenate([np.zeros(len(qa), dtype=np.int8),
                               np.ones(len(qb), dtype=np.int8)])
        return pa.table({
            "part": pa.array(q // shift),
            "q": pa.array(q),
            "rowid": pa.array(rowid),
            "side": pa.array(side),
            "r": pa.array(np.full(len(q), -1, dtype=np.int64)),
        })

    def src(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        return pa.table({
            "part": pa.array(p // shift),
            "q": pa.array(p),
            "rowid": pa.array(np.full(len(p), -1, dtype=np.int64)),
            "side": pa.array(np.full(len(p), 2, dtype=np.int8)),
            "r": batch["r"],
        })

    def lookup(group: pa.Table) -> pa.Table:
        q = group["q"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        r = group["r"].to_numpy(zero_copy_only=False)
        rowid = group["rowid"].to_numpy(zero_copy_only=False)
        s = np.flatnonzero(side == 2)
        t = np.flatnonzero(side != 2)
        ss = s[np.argsort(q[s], kind="stable")]
        qs, rs = q[ss], r[ss]
        idx = np.searchsorted(qs, q[t])
        if len(t) and ((idx >= len(qs)).any()
                       or not np.array_equal(qs[idx], q[t])):
            raise ValueError("lcp descent: request positions absent "
                             "from the dense rank range")
        return pa.table({
            "rowid": pa.array(rowid[t]),
            "side": pa.array(side[t]),
            "val": pa.array(rs[idx] if len(t)
                            else np.array([], dtype=np.int64)),
        })

    vals = (state.map_batches(reqs, batch_format="pyarrow")
            .union(rank_tab.map_batches(src, batch_format="pyarrow"))
            .groupby("part").map_groups(lookup, batch_format="pyarrow"))

    def st_rows(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False)
        m = len(a)
        return pa.table({
            "part": pa.array((a & mask).astype(np.int32)),
            "rowid": pa.array(a),
            "side": pa.array(np.full(m, 3, dtype=np.int8)),
            "b": batch["b"],
            "lo": batch["lo"],
            "val": pa.array(np.full(m, -1, dtype=np.int64)),
        })

    def val_rows(batch: pa.Table) -> pa.Table:
        rowid = batch["rowid"].to_numpy(zero_copy_only=False)
        m = len(rowid)
        return pa.table({
            "part": pa.array((rowid & mask).astype(np.int32)),
            "rowid": pa.array(rowid),
            "side": batch["side"],
            "b": pa.array(np.full(m, -1, dtype=np.int64)),
            "lo": pa.array(np.full(m, -1, dtype=np.int64)),
            "val": batch["val"],
        })

    def apply(group: pa.Table) -> pa.Table:
        rowid = group["rowid"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        val = group["val"].to_numpy(zero_copy_only=False)
        s3 = np.flatnonzero(side == 3)
        order = np.argsort(rowid[s3], kind="stable")
        s3 = s3[order]
        a = rowid[s3]
        b = group["b"].to_numpy(zero_copy_only=False)[s3]
        lo = group["lo"].to_numpy(zero_copy_only=False)[s3]
        va = np.full(len(a), -1, dtype=np.int64)
        vb = np.full(len(a), -2, dtype=np.int64)
        for which, buf in ((0, va), (1, vb)):
            w = np.flatnonzero(side == which)
            if len(w):
                pos_in = np.searchsorted(a, rowid[w])
                if (pos_in >= len(a)).any() or not np.array_equal(
                        a[pos_in], rowid[w]):
                    raise ValueError("lcp descent: gather result for "
                                     "an unknown pair id")
                buf[pos_in] = val[w]
        eq = (va >= 0) & (va == vb)
        return pa.table({
            "a": pa.array(a),
            "b": pa.array(b),
            "lo": pa.array(lo + bit * eq.astype(np.int64)),
        })

    return (state.map_batches(st_rows, batch_format="pyarrow")
            .union(vals.map_batches(val_rows, batch_format="pyarrow"))
            .groupby("part").map_groups(apply, batch_format="pyarrow"))


def _probe_level(rank_tab: Dataset, q_unique: np.ndarray) -> np.ndarray:
    """``val[i] = r`` of position ``q_unique[i]`` in the materialized
    rank table — one broadcast map over the table (requests via
    ``ray.put``, zero shuffles; each dense position lives in exactly
    one block, so the concatenated hits cover every request once)."""
    import ray
    ref = ray.put(np.ascontiguousarray(q_unique, dtype=np.int64))

    def probe(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        r = batch["r"].to_numpy(zero_copy_only=False)
        qu = ray.get(ref)
        if len(p) == 0:
            return pa.table({"q": pa.array([], type=pa.int64()),
                             "val": pa.array([], type=pa.int64())})
        o = np.argsort(p, kind="stable")
        ps, rs = p[o], r[o]
        ii = np.searchsorted(ps, qu)
        iic = np.minimum(ii, len(ps) - 1)
        hit = (ii < len(ps)) & (ps[iic] == qu)
        return pa.table({
            "q": pa.array(qu[hit], type=pa.int64()),
            "val": pa.array(rs[iic[hit]], type=pa.int64()),
        })

    df = rank_tab.map_batches(probe, batch_format="pyarrow").to_pandas()
    vq = df["q"].to_numpy()
    vv = df["val"].to_numpy()
    o = np.argsort(vq, kind="stable")
    vq, vv = vq[o], vv[o]
    idx = np.searchsorted(vq, q_unique)
    if (len(vq) == 0 and len(q_unique)) or (
            len(q_unique) and ((idx >= len(vq)).any()
                               or not np.array_equal(vq[idx], q_unique))):
        raise ValueError("lcp descent: request positions absent from "
                         "the dense rank range")
    return vv[idx] if len(q_unique) else np.array([], dtype=np.int64)


def _descend_driver(a: np.ndarray, b: np.ndarray, lo: np.ndarray,
                    levels: dict, bits: list[int], n: int
                    ) -> np.ndarray:
    """The binary descent with the (bounded, see
    ``DESCEND_BROADCAST_ROWS``) pair state as driver numpy: per level
    one broadcast probe of the rank table — the rank tables stay put
    and nothing shuffles."""
    lo = lo.copy()
    for bit in bits:
        ok = ((a + lo) < n) & ((b + lo) < n)
        if not ok.any():
            continue
        qa, qb = (a + lo)[ok], (b + lo)[ok]
        qu, inv = np.unique(np.concatenate([qa, qb]),
                            return_inverse=True)
        vals = _probe_level(levels[bit], qu)
        m = len(qa)
        eq = vals[inv[:m]] == vals[inv[m:]]
        upd = np.flatnonzero(ok)
        lo[upd[eq]] += bit
    return lo


class SuffixArray:
    """One prefix doubling to convergence, shared by every
    suffix-family surface: the retained per-level rank tables (the
    sparse table) serve rank projection, LCP descent, longest repeat,
    AND fixed-length duplicate coverage — a caller running several of
    them (the driver gate does) pays the corpus scan and the doubling
    exchanges once. Raises unless doubling converges within
    ``max_compare`` (module docstring — the oracle-soundness guard)."""

    def __init__(self, ds: Dataset, max_compare: int = 4096,
                 num_parts: int | None = None):
        self.levels: dict[int, Dataset] = {}
        self.ranks, self.bounds, self.n, self.k_final, _ = (
            _double_until(ds, None, max_compare, num_parts,
                          self.levels))
        self.num_parts = (num_parts if num_parts is not None
                          else auto_num_parts(self.n))

    def suffix_ranks(self, stride: int = 1) -> Dataset:
        """See :func:`suffix_ranks`."""
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")

        def strided(batch: pa.Table) -> pa.Table:
            p = batch["pos"].to_numpy(zero_copy_only=False)
            keep = pa.array(p % stride == 0)
            return pa.table({
                "pos": batch["pos"].filter(keep),
                "rank": batch["r"].filter(keep),
            })

        return (self.ranks.map_batches(strided, batch_format="pyarrow")
                .sort("pos"))

    def dup_coverage(self, min_len: int) -> Dataset:
        """See :func:`sa_dup_coverage` — here the anchor rank table is
        read from the retained levels instead of a second partial
        doubling."""
        if min_len < 1:
            raise ValueError(f"min_len must be >= 1, got {min_len}")
        kj = _anchor_k(min_len)
        converged = self.k_final <= kj
        ranks_kj = self.ranks if converged else self.levels[kj]
        return _dup_coverage_body(ranks_kj, self.bounds, self.n,
                                  converged, min_len, self.num_parts)

    def lcp(self, stride: int = 1) -> Dataset:
        """(pos, lcp) — the LCP array restricted to every
        ``stride``-th position: the longest common prefix (code points
        of G) between the suffix at ``pos`` and its predecessor in
        suffix-array order; the rank-0 suffix has no predecessor and
        is omitted (inner semantics). ``max(lcp)`` over all positions
        is the classic longest repeated substring.

        Distributed shape: one rank-keyed zip pairs each strided
        suffix with its predecessor, then a binary descent over
        descending powers of two resolves each pair's exact LCP —
        level ``bit`` tests ``R_bit[a+lo] == R_bit[b+lo]``. Small
        states (≤ ``DESCEND_BROADCAST_ROWS`` pairs) descend via broadcast
        probes of the in-place rank tables (zero shuffles — measured
        6× over the exchange path at a 150k-char corpus); larger
        states stay distributed, each level a gather exchange routed
        by requested position plus an apply exchange routed by pair
        id. Every LCP < ``max_compare`` by the convergence guard, so
        a truncated-suffix oracle is exact."""
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        state = (_pair_predecessors(self.ranks, self.n, self.num_parts,
                                    stride)
                 .repartition(self.num_parts).materialize())
        bits = []
        bit = self.k_final // 2
        while bit >= 1:
            bits.append(bit)
            bit //= 2
        n_pairs = state.count()
        if 0 < n_pairs <= DESCEND_BROADCAST_ROWS:
            pdf = state.to_pandas()
            a = pdf["a"].to_numpy()
            b = pdf["b"].to_numpy()
            lo = _descend_driver(a, b, np.zeros(len(a), dtype=np.int64),
                                 self.levels, bits, self.n)
            order = np.argsort(a, kind="stable")
            import ray.data as rd
            return rd.from_arrow(pa.table({
                "pos": pa.array(a[order], type=pa.int64()),
                "lcp": pa.array(lo[order], type=pa.int64()),
            }))
        for bit in bits:
            state = (_descend_one(state, self.levels[bit], bit, self.n,
                                  self.num_parts)
                     .repartition(self.num_parts).materialize())

        def out(batch: pa.Table) -> pa.Table:
            return pa.table({"pos": batch["a"], "lcp": batch["lo"]})

        return state.map_batches(out, batch_format="pyarrow").sort("pos")

    def longest_repeat(self) -> Dataset:
        """One row (longest_repeat) — the length of the longest
        substring of G occurring >= 2 times (0 when every character is
        unique). Equal to ``max`` over the full LCP array, computed
        without descending every pair: suffixes sharing a ``K``-prefix
        (``K`` = the last doubling level that still held a duplicate
        class, so ``K <= L < 2K``) form contiguous suffix-array runs,
        hence the max is achieved by an adjacent pair with
        ``R_K[a] == R_K[b]`` — one descent level at ``K`` marks
        exactly those pairs, every other pair's LCP < K is discarded,
        and the (typically tiny) survivors descend the bits below K.
        Same broadcast/shuffle split as :meth:`lcp`."""
        import ray.data as rd
        from ray.data.aggregate import Max

        pairs = (_pair_predecessors(self.ranks, self.n, self.num_parts,
                                    1)
                 .repartition(self.num_parts).materialize())
        big_k = self.k_final // 2
        low_bits = []
        bit = big_k // 2
        while bit >= 1:
            low_bits.append(bit)
            bit //= 2
        n_pairs = pairs.count()
        best = 0
        if 0 < n_pairs <= DESCEND_BROADCAST_ROWS:
            pdf = pairs.to_pandas()
            a = pdf["a"].to_numpy()
            b = pdf["b"].to_numpy()
            lo = _descend_driver(a, b, np.zeros(len(a), dtype=np.int64),
                                 self.levels, [big_k], self.n)
            keep = lo == big_k
            a, b, lo = a[keep], b[keep], lo[keep]
            if len(a):
                lo = _descend_driver(a, b, lo, self.levels, low_bits,
                                     self.n)
                best = int(lo.max())
            return rd.from_arrow(pa.table({
                "longest_repeat": pa.array([best], type=pa.int64())}))
        state = pairs
        if n_pairs > 0:
            state = (_descend_one(pairs, self.levels[big_k], big_k,
                                  self.n, self.num_parts)
                     .repartition(self.num_parts).materialize())

            def keep_shared(batch: pa.Table) -> pa.Table:
                lo = batch["lo"].to_numpy(zero_copy_only=False)
                return batch.filter(pa.array(lo == big_k))

            state = (state.map_batches(keep_shared,
                                       batch_format="pyarrow")
                     .materialize())
        if state.count() > 0:
            for bit in low_bits:
                state = (_descend_one(state, self.levels[bit], bit,
                                      self.n, self.num_parts)
                         .repartition(self.num_parts).materialize())
            m = state.aggregate(Max("lo", alias_name="m"))["m"]
            best = int(m) if m is not None else 0
        return rd.from_arrow(pa.table({
            "longest_repeat": pa.array([best], type=pa.int64())}))


def suffix_lcp(ds: Dataset, stride: int = 1, max_compare: int = 4096,
               num_parts: int | None = None) -> Dataset:
    """Functional wrapper — see :meth:`SuffixArray.lcp`."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return SuffixArray(ds, max_compare, num_parts).lcp(stride)


def longest_repeat(ds: Dataset, max_compare: int = 4096,
                   num_parts: int | None = None) -> Dataset:
    """Functional wrapper — see :meth:`SuffixArray.longest_repeat`."""
    return SuffixArray(ds, max_compare, num_parts).longest_repeat()


def _tag_bounds(bounds: Dataset, tags: Dataset,
                num_parts: int) -> Dataset:
    """(off, len, tag) — the per-doc char ranges of the generalized
    stream joined with each doc's corpus tag, via one coarse
    doc_id-hash union-shuffle. Raises if a doc_id carries two tags
    (the disjoint-ids contract of :func:`cross_longest_common`)."""

    def b_rows(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = len(d)
        return pa.table({
            "part": pa.array((d % num_parts).astype(np.int32)),
            "doc_id": pa.array(d, type=pa.int64()),
            "off": batch["off"],
            "len": batch["len"],
            "tag": pa.array(np.full(n, -1, dtype=np.int64)),
        })

    def t_rows(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = len(d)
        z = pa.array(np.full(n, -1, dtype=np.int64))
        return pa.table({
            "part": pa.array((d % num_parts).astype(np.int32)),
            "doc_id": pa.array(d, type=pa.int64()),
            "off": z,
            "len": z,
            "tag": batch["tag"].cast(pa.int64()),
        })

    def attach(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        tag = group["tag"].to_numpy(zero_copy_only=False)
        off = group["off"].to_numpy(zero_copy_only=False)
        ln = group["len"].to_numpy(zero_copy_only=False)
        is_tag = off < 0
        td = d[is_tag]
        tt = tag[is_tag]
        o = np.argsort(td, kind="stable")
        td, tt = td[o], tt[o]
        if len(td) > 1 and (td[1:] == td[:-1]).any():
            raise ValueError(
                "cross_longest_common: a doc_id appears in both "
                "corpora — ids must be disjoint")
        bd = d[~is_tag]
        idx = np.searchsorted(td, bd)
        idxc = np.minimum(idx, max(0, len(td) - 1))
        ok = (len(td) > 0) & (idx < len(td))
        hit = np.zeros(len(bd), dtype=bool)
        if len(td):
            hit = ok & (td[idxc] == bd)
        if not hit.all():
            raise ValueError(
                "cross_longest_common: a bounds doc_id has no corpus "
                "tag — inputs must cover the union corpus")
        return pa.table({
            "off": pa.array(off[~is_tag], type=pa.int64()),
            "len": pa.array(ln[~is_tag], type=pa.int64()),
            "tag": pa.array(tt[idxc], type=pa.int64()),
        })

    return (bounds.map_batches(b_rows, batch_format="pyarrow")
            .union(tags.map_batches(t_rows, batch_format="pyarrow"))
            .groupby("part").map_groups(attach, batch_format="pyarrow"))


def _attach_owner(state: Dataset, tagged_bounds: Dataset, n: int,
                  num_parts: int, pos_col: str,
                  out_col: str) -> Dataset:
    """Append ``out_col`` = corpus tag owning position ``state[pos_col]``
    (−1 for separator positions) — one pos-range union-shuffle: state
    rows route by position part, each doc's (off, len, tag) row
    replicates into every part its char range overlaps, and a per-part
    searchsorted resolves ownership. Carries every other state column
    through untouched."""
    shift = max(1, (n + num_parts - 1) // num_parts)
    carry = [c for c in state.schema().names]

    def s_rows(batch: pa.Table) -> pa.Table:
        p = batch[pos_col].to_numpy(zero_copy_only=False)
        cols = {"part": pa.array((p // shift).astype(np.int32)),
                "is_bound": pa.array(np.zeros(len(p), dtype=np.int8))}
        for c in carry:
            cols[c] = batch[c]
        m1 = pa.array(np.full(len(p), -1, dtype=np.int64))
        cols["b_off"] = m1
        cols["b_len"] = m1
        cols["b_tag"] = m1
        return pa.table(cols)

    def g_rows(batch: pa.Table) -> pa.Table:
        off = batch["off"].to_numpy(zero_copy_only=False)
        ln = batch["len"].to_numpy(zero_copy_only=False)
        tag = batch["tag"].to_numpy(zero_copy_only=False)
        keep = ln > 0  # empty docs own no positions
        off, ln, tag = off[keep], ln[keep], tag[keep]
        first = off // shift
        last = (off + ln - 1) // shift
        reps = (last - first + 1).astype(np.int64)
        tot = int(reps.sum())
        if tot == 0:
            parts = np.empty(0, dtype=np.int64)
            src = np.empty(0, dtype=np.int64)
        else:
            offs_c = np.cumsum(reps) - reps
            src = np.repeat(np.arange(len(reps), dtype=np.int64), reps)
            within = (np.arange(tot, dtype=np.int64)
                      - np.repeat(offs_c, reps))
            parts = first[src] + within
        cols = {"part": pa.array(parts.astype(np.int32)),
                "is_bound": pa.array(np.ones(tot, dtype=np.int8))}
        z = pa.array(np.zeros(tot, dtype=np.int64))
        for c in carry:
            cols[c] = z
        cols["b_off"] = pa.array(off[src], type=pa.int64())
        cols["b_len"] = pa.array(ln[src], type=pa.int64())
        cols["b_tag"] = pa.array(tag[src], type=pa.int64())
        return pa.table(cols)

    def resolve(group: pa.Table) -> pa.Table:
        is_b = group["is_bound"].to_numpy(zero_copy_only=False) == 1
        off = group["b_off"].to_numpy(zero_copy_only=False)[is_b]
        ln = group["b_len"].to_numpy(zero_copy_only=False)[is_b]
        tag = group["b_tag"].to_numpy(zero_copy_only=False)[is_b]
        o = np.argsort(off, kind="stable")
        off, ln, tag = off[o], ln[o], tag[o]
        srows = ~is_b
        p = group[pos_col].to_numpy(zero_copy_only=False)[srows]
        owner = np.full(len(p), -1, dtype=np.int64)
        if len(off):
            idx = np.searchsorted(off, p, side="right") - 1
            idxc = np.maximum(idx, 0)
            hit = (idx >= 0) & (p < off[idxc] + ln[idxc])
            owner[hit] = tag[idxc[hit]]
        mask = pa.array(srows)
        cols = {c: group[c].filter(mask) for c in carry}
        cols[out_col] = pa.array(owner)
        return pa.table(cols)

    return (state.map_batches(s_rows, batch_format="pyarrow")
            .union(tagged_bounds.map_batches(g_rows,
                                             batch_format="pyarrow"))
            .groupby("part").map_groups(resolve, batch_format="pyarrow"))


def cross_longest_common(ds_a: Dataset, ds_b: Dataset,
                         max_compare: int = 4096,
                         num_parts: int | None = None,
                         sa: "SuffixArray | None" = None) -> Dataset:
    """One row (cross_common_len) — the longest common substring
    BETWEEN two corpora: the max length of a string occurring in corpus
    A's separator-delimited stream AND in corpus B's — the
    train/test contamination-length measure (the cross-corpus member of
    the suffix family; ``longest_repeat`` is the within-union variant).
    Doc ids must be disjoint across the inputs (checked).

    Construction: one generalized suffix array over the UNION corpus
    (the shared prefix-doubling machinery), then the classic reduction
    — the answer is the max LCP over ADJACENT suffix-array pairs with
    DIFFERENT corpus ownership. Soundness: the best cross pair's SA
    interval shares its first min-LCP ≥ 1 characters, so no
    separator-start suffix can sit inside it, and ownership must flip
    at some adjacent pair whose LCP is ≥ the pair's; conversely every
    adjacent cross LCP is a common substring. Suffixes starting at
    separators own no corpus (excluded); a match may span a doc
    boundary only when both streams genuinely contain the same
    suffix+separator+prefix sequence (stream semantics, mirrored by
    the SQL oracle).

    Shape: ownership attaches to both pair endpoints via two pos-range
    union-shuffles against the replicated per-doc bounds (never a
    driver doc table); the surviving cross pairs descend the retained
    doubling levels exactly like :meth:`SuffixArray.lcp` (broadcast
    probes when the state is small, gather/apply exchanges otherwise).
    """
    import ray.data as rd
    from ray.data.aggregate import Max

    def tag_rows(tag: int):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "tag": pa.array(np.full(batch.num_rows, tag,
                                        dtype=np.int64)),
            })
        return fn

    if sa is None:
        union = (ds_a.select_columns(["doc_id", "text"])
                 .union(ds_b.select_columns(["doc_id", "text"])))
        sa = SuffixArray(union, max_compare, num_parts)
    # else: caller-supplied handle MUST be the suffix array of exactly
    # ds_a ∪ ds_b (the gate reuses the shared full-corpus handle with
    # slices partitioning it); _tag_bounds raises on any uncovered doc
    tags = (ds_a.map_batches(tag_rows(0), batch_format="pyarrow")
            .union(ds_b.map_batches(tag_rows(1), batch_format="pyarrow")))
    tagged = _tag_bounds(sa.bounds, tags, sa.num_parts)

    pairs = _pair_predecessors(sa.ranks, sa.n, sa.num_parts, 1)
    pairs = _attach_owner(pairs, tagged, sa.n, sa.num_parts, "a", "ta")
    pairs = _attach_owner(pairs, tagged, sa.n, sa.num_parts, "b", "tb")

    def cross_only(batch: pa.Table) -> pa.Table:
        ta = batch["ta"].to_numpy(zero_copy_only=False)
        tb = batch["tb"].to_numpy(zero_copy_only=False)
        keep = pa.array((ta >= 0) & (tb >= 0) & (ta != tb))
        return batch.filter(keep).select(["a", "b", "lo"])

    state = (pairs.map_batches(cross_only, batch_format="pyarrow")
             .repartition(sa.num_parts).materialize())
    bits = []
    bit = sa.k_final // 2
    while bit >= 1:
        bits.append(bit)
        bit //= 2
    n_pairs = state.count()
    best = 0
    if 0 < n_pairs <= DESCEND_BROADCAST_ROWS:
        pdf = state.to_pandas()
        a = pdf["a"].to_numpy()
        b = pdf["b"].to_numpy()
        lo = _descend_driver(a, b, np.zeros(len(a), dtype=np.int64),
                             sa.levels, bits, sa.n)
        best = int(lo.max()) if len(lo) else 0
    elif n_pairs > 0:
        for bit in bits:
            state = (_descend_one(state, sa.levels[bit], bit, sa.n,
                                  sa.num_parts)
                     .repartition(sa.num_parts).materialize())
        m = state.aggregate(Max("lo", alias_name="m"))["m"]
        best = int(m) if m is not None else 0
    return rd.from_arrow(pa.table({
        "cross_common_len": pa.array([best], type=pa.int64())}))


def distinct_substrings(ds: Dataset, max_compare: int = 4096,
                        num_parts: int | None = None,
                        sa: "SuffixArray | None" = None) -> Dataset:
    """One row (n_chars, n_distinct_substrings) — the number of DISTINCT
    substrings of the separator-delimited corpus stream, the classic
    suffix-array corollary ``n(n+1)/2 − Σ LCP``: suffix SA[i] contributes
    its ``n − SA[i]`` prefixes, of which the first ``LCP[i]`` were
    already contributed by its suffix-array predecessor. A one-number
    corpus-complexity/repetitiveness signal (its complement,
    ``Σ LCP / (n(n+1)/2)``, is the fraction of substring mass that is
    repeated — crawl-dup pressure at a glance). Built on the shared
    suffix machinery: the full-stride LCP array reduced by one Sum —
    nothing new shuffles beyond :meth:`SuffixArray.lcp`."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    if sa is None:
        sa = SuffixArray(ds, max_compare, num_parts)
    lcp = sa.lcp(stride=1)
    s = lcp.aggregate(Sum("lcp", alias_name="s"))["s"]
    total = sa.n * (sa.n + 1) // 2 - int(s if s is not None else 0)
    return rd.from_arrow(pa.table({
        "n_chars": pa.array([sa.n], type=pa.int64()),
        "n_distinct_substrings": pa.array([total], type=pa.int64()),
    }))
