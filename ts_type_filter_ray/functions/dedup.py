"""Deduplication operators: exact (sha256), MinHash+LSH, SimHash, and
exact n-gram Jaccard — the scale path for training-data dedup.

Shapes (all Ray-Data-first, per the guide's dedup patterns):
- exact:   vectorized sha256 per batch → ``groupby(sha)`` (hash shuffle)
           → min-doc_id winner per group.
- minhash: shingle→signature per batch (pure-int, seeded, process-stable
           hashing — never Python ``hash()``) → explode to
           (band, band_hash, doc_id) rows → coarse-partition groupby with
           a vectorized per-bucket segment scan (degenerate buckets
           capped by representative election) → candidate pairs →
           distributed exact-Jaccard verify: a groupby-union shuffle join
           against per-doc shingle sketches, vectorized set intersection.
- ngram:   EXACT Jaccard pairs via an inverted-shingle co-occurrence
           count (no approximation; SQL-oracle checked).
- simhash: 64-bit simhash per doc; near-dup candidates via 4-band exact
           blocking (Hamming ≤ 3 ⇒ at least one of 4 bands equal).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Min, Sum

from .partitioning import auto_num_parts, segment_upper_pairs

_MERSENNE = (1 << 61) - 1


def _stable_hash64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"),
                                          digest_size=8).digest(), "big")


# ---------------------------------------------------------------- exact


def exact_dedup_groups(ds: Dataset) -> Dataset:
    """(sha256, keep_doc_id, n_copies) per distinct content — the engine's
    version of the reference's duplicate-document detection
    (``ts_type_filter/inverted_index.py:48-50``): instead of raising, it
    elects the minimum doc_id as the canonical copy."""

    def add_sha(batch: pa.Table) -> pa.Table:
        shas = [hashlib.sha256(t.encode("utf-8")).hexdigest()
                for t in batch["text"].to_pylist()]
        return pa.table({"sha256": pa.array(shas, type=pa.string()),
                         "doc_id": batch["doc_id"]})

    return (ds.map_batches(add_sha, batch_format="pyarrow")
            .groupby("sha256")
            .aggregate(Min("doc_id", alias_name="keep_doc_id"),
                       Count(alias_name="n_copies")))


# -------------------------------------------------------------- minhash


_SHINGLE_MULT = np.uint64(0x9E3779B97F4A7C15 % _MERSENNE)
_token_hash_cache: dict[str, int] = {}


def _token_hash(tok: str) -> int:
    h = _token_hash_cache.get(tok)
    if h is None:
        if len(_token_hash_cache) > 1_000_000:
            _token_hash_cache.clear()
        h = _token_hash_cache[tok] = _stable_hash64(tok) % _MERSENNE
    return h


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Distinct hashes of the token k-grams of *text* (whole text as one
    shingle when shorter than k). Hashes are an order-sensitive
    Mersenne-mulmod fold over per-token hashes — one vectorized pass per
    gram position instead of per-shingle string building + digesting
    (the r1 hot spot: millions of blake2b calls over joined strings).
    Equal token sequences ⇒ equal hashes, so Jaccard over these sets ≡
    Jaccard over the literal k-gram strings (modulo 2^-61 collisions)."""
    toks = text.split()
    if not toks:
        return np.empty(0, dtype=np.uint64)
    th = np.fromiter((_token_hash(t) for t in toks), dtype=np.uint64,
                     count=len(toks))
    w = min(k, len(th))
    n_sh = len(th) - w + 1
    acc = np.zeros(n_sh, dtype=np.uint64)
    for j in range(w):
        acc = _mulmod_mersenne61(acc ^ th[j:j + n_sh], _SHINGLE_MULT)
    return np.unique(acc)


def _tokenize_texts_batch(texts) -> tuple[pa.Array, np.ndarray]:
    """Whitespace tokenization of a whole text column, vectorized:
    Arrow trim → split → flatten. Returns ``(flat_tokens, offsets)``
    where ``flat_tokens[offsets[i]:offsets[i+1]]`` are doc *i*'s tokens —
    ``str.split()`` semantics (blank/whitespace-only docs → zero
    tokens)."""
    col = texts if isinstance(texts, pa.ChunkedArray) else (
        pa.chunked_array([texts]))
    # null text ≡ blank — a null list_value_length otherwise poisons
    # the offsets with NaN-cast garbage
    trimmed = pc.utf8_trim_whitespace(pc.fill_null(col, ""))
    toks = pc.utf8_split_whitespace(trimmed)
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks).combine_chunks()
    # Arrow yields [''] for blank docs where str.split() yields []
    blank = pc.equal(trimmed, "")
    if pc.any(blank).as_py():
        flat = flat.filter(pc.not_equal(flat, ""))
        counts[blank.combine_chunks().to_numpy(zero_copy_only=False)] = 0
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return flat, offsets


def join_lists(lst, sep: str) -> pa.Array:
    """``pc.binary_join`` with the separator typed to the list's VALUE
    type — the kernel has no (list<large_string>, string) overload, so
    an untyped separator works on the sf corpora (string) and crashes
    on large_string ones (the bench corpus)."""
    t = lst.type.value_type
    return pc.binary_join(lst, pa.scalar(sep, type=t))


def join_elementwise(*parts) -> pa.Array:
    """``pc.binary_join_element_wise`` with every operand (including
    the trailing separator) promoted to one common string type — the
    kernel refuses MIXED string/large_string inputs, so any concat that
    touches a corpus text column must normalize first. Python ``str``
    operands become typed scalars."""
    big = any(getattr(p, "type", None) in (pa.large_string(),)
              for p in parts)
    t = pa.large_string() if big else pa.string()

    def conv(p):
        if isinstance(p, str):
            return pa.scalar(p, type=t)
        if isinstance(p, pa.ChunkedArray):
            p = p.combine_chunks()
        if isinstance(p, (pa.Array, pa.Scalar)) and p.type != t:
            return p.cast(t)
        return p

    return pc.binary_join_element_wise(*(conv(p) for p in parts))


def _hash_tokens_flat(flat: pa.Array) -> np.ndarray:
    """Per-token Mersenne-61 hashes for a flat token array: dictionary-
    encode, blake2b ONLY the unique tokens (cached across batches in the
    module-level cache), gather back through the codes — the per-byte
    hash work drops from per-occurrence to per-unique-token (the
    tokenizer / SimHashStage trick; VERDICT r3 #3)."""
    if len(flat) == 0:
        return np.empty(0, dtype=np.uint64)
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    hu = np.fromiter((_token_hash(t) for t in enc.dictionary.to_pylist()),
                     dtype=np.uint64, count=len(enc.dictionary))
    return hu[codes]


def _shingle_hashes_batch(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`_shingle_hashes`: shingle hashes for a whole text
    column in one vectorized pass. Returns ``(hashes, offsets)`` where
    ``hashes[offsets[i]:offsets[i+1]]`` is doc *i*'s shingle-hash
    MULTISET in position order — the same values ``_shingle_hashes``
    produces before its ``np.unique`` (dedup/sort is left to callers:
    the MinHash min doesn't need it, sketch callers dedupe per doc).

    Vectorization: one Arrow tokenize over the column, per-unique-token
    blake2b, then the order-sensitive Mersenne fold as k vectorized
    passes over GLOBAL gram-start positions (grouped by window width so
    short docs — width < k — fold with their own width, exactly like the
    per-row path)."""
    flat, off = _tokenize_texts_batch(texts)
    th = _hash_tokens_flat(flat)
    return _fold_shingles(th, off, k)


def _fold_shingles(th: np.ndarray, off: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """The fold half of :func:`_shingle_hashes_batch`, over pre-tokenized
    per-token hashes ``th`` with doc offsets ``off`` — split out so
    positional callers (which also need the raw token counts) share the
    exact same shingle values."""
    counts = np.diff(off)
    n_docs = len(counts)
    # per-doc shingle counts: c >= k → c-k+1 grams; 0 < c < k → 1 whole-
    # doc gram; c == 0 → none
    sh_counts = np.where(counts >= k, counts - k + 1,
                         np.where(counts > 0, 1, 0))
    sh_off = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(sh_counts, out=sh_off[1:])
    out = np.empty(sh_off[-1], dtype=np.uint64)
    # full-width grams of every doc with >= k tokens, all at once
    longm = counts >= k
    if longm.any():
        ns = counts[longm] - k + 1
        doc_of = np.repeat(np.flatnonzero(longm), ns)
        within = np.arange(int(ns.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(ns) - ns, ns)
        starts = off[:-1][doc_of] + within
        out[sh_off[:-1][doc_of] + within] = _fold_grams(th, starts, k)
    # short docs fold the whole doc at its own width, one pass per width
    for w in range(1, k):
        sel = counts == w
        if not sel.any():
            continue
        st = off[:-1][sel]
        out[sh_off[:-1][sel]] = _fold_grams(th, st, w)
    return out, sh_off


def distinct_shingles_batch(batch: pa.Table, shingle_k: int,
                            text_col: str = "text"
                            ) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, shingles) flat pairs — per-doc DISTINCT shingle hashes
    for a whole corpus batch in one vectorized pass (the batched kernel
    + a per-doc neighbor-dedup over one lexsort; ≡ the per-row
    ``_shingle_hashes``'s ``np.unique`` sets, parity-pinned). The
    explode kernel of the decontamination / dup-fraction operators."""
    hs, off = _shingle_hashes_batch(batch[text_col], shingle_k)
    dids = batch["doc_id"].to_numpy(zero_copy_only=False)
    counts = np.diff(off)
    doc_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    order = np.lexsort((hs, doc_of))
    d_s, h_s = doc_of[order], hs[order]
    keep = np.ones(h_s.size, dtype=bool)
    keep[1:] = (h_s[1:] != h_s[:-1]) | (d_s[1:] != d_s[:-1])
    return dids[d_s[keep]], h_s[keep]


def positional_shingles_batch(
        batch: pa.Table, shingle_k: int, text_col: str = "text"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(doc_ids, shingles, positions, n_tokens) flat POSITIONAL shingle
    rows for a corpus batch — every token-``shingle_k``-gram occurrence
    with its 0-based start position and the owning doc's token count
    riding along (docs shorter than ``shingle_k`` tokens contribute
    their whole text as one shingle at position 0; blank docs none —
    the dedup-family convention). The explode kernel of the
    exact-substring duplicate-span operators (``ngrams.dup_token_spans``
    / ``ngrams.strip_dup_spans``); same hash values as
    :func:`_shingle_hashes_batch`, multiset NOT deduped."""
    flat, off = _tokenize_texts_batch(batch[text_col])
    counts = np.diff(off)
    th = _hash_tokens_flat(flat)
    hs, sh_off = _fold_shingles(th, off, shingle_k)
    sh_counts = np.diff(sh_off)
    doc_of = np.repeat(np.arange(counts.size, dtype=np.int64), sh_counts)
    pos = (np.arange(sh_off[-1], dtype=np.int64)
           - np.repeat(sh_off[:-1], sh_counts))
    dids = batch["doc_id"].to_numpy(zero_copy_only=False)[doc_of]
    ntok = counts[doc_of]
    return dids, hs, pos.astype(np.int32), ntok.astype(np.int32)


def _fold_grams(th: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """Order-sensitive Mersenne fold of the *w* token hashes at each
    gram start — chunked to 64 KB temporaries so glibc serves every
    temporary from its free lists (a >128 KB numpy temp is mmap'd and
    returned to the OS per call until the threshold adapts: a page-fault
    storm on this slow-first-touch host)."""
    out = np.empty(len(starts), dtype=np.uint64)
    chunk = 1 << 13
    for c0 in range(0, len(starts), chunk):
        st = starts[c0:c0 + chunk]
        acc = np.zeros(len(st), dtype=np.uint64)
        for j in range(w):
            acc = _mulmod_mersenne61(acc ^ th[st + j], _SHINGLE_MULT)
        out[c0:c0 + chunk] = acc
    return out


def _mulmod_mersenne61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a * x) mod (2^61-1) for uint64 arrays with a, x < 2^61, fully
    vectorized: 32-bit-split 64×64→128 multiply, then Mersenne folding
    (2^64 ≡ 8 mod p). Broadcasts like ``a * x``."""
    mask32 = np.uint64(0xFFFFFFFF)
    p = np.uint64(_MERSENNE)
    ah, al = a >> np.uint64(32), a & mask32
    xh, xl = x >> np.uint64(32), x & mask32
    # 128-bit product = hi·2^64 + lo  (numpy uint64 * wraps mod 2^64)
    t = al * xl
    k = t >> np.uint64(32)
    t2 = ah * xl + k
    w1 = t2 & mask32
    w2 = t2 >> np.uint64(32)
    t3 = al * xh + w1
    hi = ah * xh + w2 + (t3 >> np.uint64(32))
    lo = a * x
    # v mod p: v ≡ (v >> 61) + (v & p); hi < 2^58 so hi<<3 fits
    r = (lo & p) + ((hi << np.uint64(3)) | (lo >> np.uint64(61)))
    r = (r & p) + (r >> np.uint64(61))
    return np.where(r >= p, r - p, r)


class _PermWorkspace:
    """Preallocated buffers for the per-chunk permutation kernel
    ``out = ((a*x + b) mod p)``: every temporary of the 64×64→128
    mulmod lives in a buffer reused across chunks, permutations and
    batches — ZERO steady-state allocation. This matters doubly on this
    host: glibc mmaps (and returns to the OS) every >128 KB temporary
    until its threshold adapts, so the naive allocating kernel paid a
    page-fault storm on each worker's first batches, and the buffers stay
    L2-resident at the 32k-element chunk size."""

    def __init__(self, n: int):
        self.n = n
        self._b1 = np.empty(n, dtype=np.uint64)
        self._b2 = np.empty(n, dtype=np.uint64)
        self._b3 = np.empty(n, dtype=np.uint64)
        self._b4 = np.empty(n, dtype=np.uint64)
        self._m = np.empty(n, dtype=bool)

    def perm_into(self, x: np.ndarray, a, b, out: np.ndarray) -> None:
        """``out[:len(x)] = (a*x + b) mod (2^61-1)`` — bit-identical to
        ``_mulmod_mersenne61(x, a) + b`` followed by the two-step
        Mersenne reduction, with scalar ``a``/``b`` and ``x < p``."""
        k = len(x)
        mask32 = np.uint64(0xFFFFFFFF)
        p = np.uint64(_MERSENNE)
        c32, c61, c3 = np.uint64(32), np.uint64(61), np.uint64(3)
        a = np.uint64(a)
        ah, al = a >> c32, a & mask32
        b1, b2, b3, b4 = (self._b1[:k], self._b2[:k], self._b3[:k],
                          self._b4[:k])
        o, m = out[:k], self._m[:k]
        np.right_shift(x, c32, out=b1)          # xh
        np.bitwise_and(x, mask32, out=b2)       # xl
        np.multiply(b2, al, out=b3)             # t = xl*al
        np.right_shift(b3, c32, out=b3)         # carry k
        np.multiply(b1, al, out=b4)
        np.add(b4, b3, out=b4)                  # t2 = xh*al + k
        np.bitwise_and(b4, mask32, out=b3)      # w1
        np.right_shift(b4, c32, out=b4)         # w2
        np.multiply(b2, ah, out=b2)
        np.add(b2, b3, out=b2)                  # t3 = xl*ah + w1
        np.right_shift(b2, c32, out=b2)         # t3 >> 32
        np.multiply(b1, ah, out=b1)
        np.add(b1, b4, out=b1)
        np.add(b1, b2, out=b1)                  # hi
        np.multiply(x, a, out=b2)               # lo (mod 2^64)
        np.bitwise_and(b2, p, out=b3)           # lo & p
        np.left_shift(b1, c3, out=b1)
        np.right_shift(b2, c61, out=b2)
        np.bitwise_or(b1, b2, out=b1)
        np.add(b3, b1, out=b1)                  # r
        np.bitwise_and(b1, p, out=b2)
        np.right_shift(b1, c61, out=b1)
        np.add(b2, b1, out=b1)                  # r folded (may be ≥ p)
        np.greater_equal(b1, p, out=m)
        np.subtract(b1, p, out=b2)
        np.copyto(b1, b2, where=m)              # == mulmod(x, a)
        # + b, then the same two-step reduction (b < p ⇒ sum < 2^62)
        np.add(b1, np.uint64(b), out=b1)
        np.bitwise_and(b1, p, out=b2)
        np.right_shift(b1, c61, out=b1)
        np.add(b2, b1, out=o)
        np.greater_equal(o, p, out=m)
        np.subtract(o, p, out=b1)
        np.copyto(o, b1, where=m)


class MinHashStage:
    """Batch stage: text → num_perm-wide MinHash signature.

    Permutations ``h_i(x) = (a_i * x + b_i) mod p`` with seeded a/b built
    once per instance; the per-batch work is chunked vectorized uint64
    kernels over a preallocated workspace (no per-row Python, no
    steady-state allocation).
    """

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 7):
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self._b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self._k = shingle_k
        self._num_perm = num_perm
        # lazily-sized scratch (reused across batches)
        self._ws: _PermWorkspace | None = None
        self._vals: np.ndarray | None = None
        self._hs_buf: np.ndarray | None = None

    def signature(self, text: str) -> np.ndarray:
        """Single-document signature (tests / driver-side probes); the
        batch path in ``__call__`` is bit-identical (pytest-pinned)."""
        hs = _shingle_hashes(text, self._k)
        if hs.size == 0:
            return np.zeros(self._num_perm, dtype=np.uint64)
        p = np.uint64(_MERSENNE)
        hs = (hs & p) + (hs >> np.uint64(61))  # hs mod p (≤ p+7 → one sub)
        hs = np.where(hs >= p, hs - p, hs)
        vals = _mulmod_mersenne61(self._a[:, None], hs[None, :])
        vals += self._b[:, None]
        vals = (vals & p) + (vals >> np.uint64(61))
        vals = np.where(vals >= p, vals - p, vals)
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Whole-batch signatures with NO per-row Python (VERDICT r3 #3):
        one batched shingle pass, then each permutation is one vectorized
        mulmod over ALL of the batch's shingles + a per-doc-segment
        ``minimum.reduceat`` — memory stays O(total shingles), and the
        min over a multiset equals the min over its set, so skipping the
        per-doc ``np.unique`` changes nothing (bit-identical to
        ``signature``)."""
        n_docs = batch.num_rows
        hs, off = _shingle_hashes_batch(batch["text"], self._k)
        sig = np.zeros((n_docs, self._num_perm), dtype=np.uint64)
        if hs.size:
            p = np.uint64(_MERSENNE)
            nz = np.diff(off) > 0
            starts = off[:-1][nz]
            total = len(hs)
            sig_nz = np.empty((len(starts), self._num_perm),
                              dtype=np.uint64)
            # doc-aligned chunks of ~32k shingles: every mulmod
            # temporary stays ~256 KB — L2-resident and recycled by the
            # numpy small-block allocator. Full-array passes here ran at
            # this VM's 0.7 GB/s copy bandwidth (and paid first-touch
            # page faults); chunked, the same ops run at cache speed.
            chunk = 1 << 15
            if self._ws is None:
                self._ws = _PermWorkspace(chunk + int(
                    np.diff(off).max()))  # one over-long doc fits too
            elif self._ws.n < chunk + int(np.diff(off).max()):
                self._ws = _PermWorkspace(chunk + int(np.diff(off).max()))
            vals = self._vals
            if vals is None or len(vals) < self._ws.n:
                vals = self._vals = np.empty(self._ws.n, dtype=np.uint64)
            hs_buf = self._hs_buf
            if hs_buf is None or len(hs_buf) < self._ws.n:
                hs_buf = self._hs_buf = np.empty(self._ws.n,
                                                 dtype=np.uint64)
            d0 = 0
            while d0 < len(starts):
                d1 = max(int(np.searchsorted(
                    starts, starts[d0] + chunk, side="left")), d0 + 1)
                s0 = int(starts[d0])
                s1 = int(starts[d1]) if d1 < len(starts) else total
                m = s1 - s0
                hs_c = hs_buf[:m]
                # hs mod p: (hs & p) + (hs >> 61), one conditional sub
                np.bitwise_and(hs[s0:s1], p, out=hs_c)
                np.right_shift(hs[s0:s1], np.uint64(61), out=vals[:m])
                np.add(hs_c, vals[:m], out=hs_c)
                np.subtract(hs_c, p, out=vals[:m])
                np.copyto(hs_c, vals[:m], where=hs_c >= p)
                st_rel = starts[d0:d1] - s0
                for i in range(self._num_perm):
                    self._ws.perm_into(hs_c, self._a[i], self._b[i], vals)
                    sig_nz[d0:d1, i] = np.minimum.reduceat(vals[:m],
                                                           st_rel)
                d0 = d1
            sig[nz] = sig_nz
        return pa.table({
            "doc_id": batch["doc_id"],
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sig.reshape(-1), type=pa.uint64()),
                self._num_perm).cast(pa.list_(pa.uint64())),
        })


@functools.lru_cache(maxsize=None)
def _minhash_stage(num_perm: int, shingle_k: int) -> MinHashStage:
    # one stage (and its scratch) per worker process, reused by every
    # task the process runs
    return MinHashStage(num_perm, shingle_k)


def _minhash_batch(batch: pa.Table, num_perm: int,
                   shingle_k: int) -> pa.Table:
    return _minhash_stage(num_perm, shingle_k)(batch)


def minhash_signatures(ds: Dataset, num_perm: int = 64,
                       shingle_k: int = 3) -> Dataset:
    """(doc_id, sig) per doc. A task stage, not an actor pool: the
    near-dup pipelines read the corpus twice and shuffle, and an actor
    pool's reserved CPUs starved those tasks (``curate`` hung on a
    3-CPU cluster and ``minhash_dedup_pairs`` on a 2-CPU one)."""
    return ds.map_batches(_minhash_batch, fn_args=(num_perm, shingle_k),
                          batch_format="pyarrow")


def _segment_index_pairs(band: np.ndarray, bhash: np.ndarray,
                         did: np.ndarray,
                         cap: int | None) -> tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """Candidate pairs for every equal-(band,bhash) segment, returned as
    (order, ia, ib): positions into the (band,bhash,doc_id)-lexsorted
    arrays, with did[order][ia] < did[order][ib] per pair. ``cap=None``
    emits ALL pairs of every segment (complete — required when the
    operator's contract is the full n² pair set). With a finite cap,
    segments of size ≤ cap emit all pairs; larger (degenerate, e.g. B
    identical docs → B²/2 pairs) segments elect the min doc_id as
    representative and emit only (rep, other) star pairs — O(B), every
    non-representative member still linked for dropping, but
    member–member pairs are NOT emitted."""
    order = np.lexsort((did, bhash, band))
    band, bhash, did = band[order], bhash[order], did[order]
    n = len(did)
    new_seg = np.ones(n, dtype=bool)
    new_seg[1:] = (band[1:] != band[:-1]) | (bhash[1:] != bhash[:-1])
    starts = np.flatnonzero(new_seg)
    lens = np.diff(np.append(starts, n))
    ia_out: list[np.ndarray] = []
    ib_out: list[np.ndarray] = []
    # loop only over multi-member segments (singletons dominate)
    for s, L in zip(starts[lens > 1].tolist(), lens[lens > 1].tolist()):
        if cap is None or L <= cap:
            ia, ib = np.triu_indices(L, k=1)
        else:
            ia = np.zeros(L - 1, dtype=np.int64)
            ib = np.arange(1, L, dtype=np.int64)
        ia_out.append(ia + s)  # doc_ids ascend within a segment
        ib_out.append(ib + s)
    if not ia_out:
        z = np.empty(0, dtype=np.int64)
        return order, z, z
    return order, np.concatenate(ia_out), np.concatenate(ib_out)


def optimal_bands(num_perm: int, threshold: float) -> int:
    """Pick the band count whose LSH S-curve best serves *threshold*,
    biased toward recall: exact verification makes false positives cost
    only compute, while a missed true pair is unrecoverable. Chooses the
    most selective banding whose detection probability at the threshold
    is still ≥ 95% (falling back to the highest-recall option)."""
    # fewer bands ⇒ longer rows ⇒ more selective buckets (fewer false
    # candidates) but lower detection probability: take the FIRST (most
    # selective) banding that still reaches 95% detection
    for bands in (1, 2, 4, 8, 16, 32, 64):
        if bands > num_perm or num_perm % bands:
            continue
        rows = num_perm // bands
        p_detect = 1.0 - (1.0 - threshold ** rows) ** bands
        if p_detect >= 0.95:
            return bands
    # nothing reaches 95%: maximize recall (most bands, shortest rows)
    return max(b for b in (1, 2, 4, 8, 16, 32, 64)
               if b <= num_perm and num_perm % b == 0)


def lsh_candidate_pairs(sigs: Dataset, bands: int = 16,
                        bucket_pair_cap: int | None = 64,
                        num_parts: int = 64) -> Dataset:
    """Signatures → distinct candidate (id_a, id_b) pairs via banded LSH.

    Scale shape: explode to (band, band_hash, doc_id) rows, group by a
    COARSE partition of the band-hash space (``num_parts`` groups, not one
    Python dispatch per bucket), and run one vectorized segment scan per
    partition. Degenerate buckets are capped via representative election
    (see :func:`_segment_index_pairs`) — the cap's completeness effect is
    documented on :func:`minhash_dedup_pairs`. a<b ordering makes pairs
    canonical.
    """

    def explode(batch: pa.Table) -> pa.Table:
        sig_col = batch["sig"].combine_chunks()
        n_docs = batch.num_rows
        if n_docs == 0 or len(sig_col) == 0:
            return pa.table({"part": pa.array([], type=pa.int32()),
                             "band": pa.array([], type=pa.int32()),
                             "bhash": pa.array([], type=pa.uint64()),
                             "doc_id": pa.array([], type=pa.int64())})
        num_perm = len(sig_col[0])
        sig = sig_col.flatten().to_numpy(zero_copy_only=False).reshape(
            n_docs, num_perm).astype(np.uint64)
        dids = batch["doc_id"].to_numpy(zero_copy_only=False)
        # hash each band's rows: fold the band's permutation minima with
        # the vectorized Mersenne mod-mul chain (process-stable, no Python)
        bounds = np.linspace(0, num_perm, bands + 1).astype(int)
        b_ids = np.empty((bands, n_docs), dtype=np.int32)
        b_hash = np.empty((bands, n_docs), dtype=np.uint64)
        mult = np.uint64(0x9E3779B97F4A7C15 % _MERSENNE)
        p = np.uint64(_MERSENNE)
        for bi in range(bands):
            acc = np.full(n_docs, np.uint64(bi + 1))
            for c in range(bounds[bi], bounds[bi + 1]):
                x = sig[:, c]
                x = (x & p) + (x >> np.uint64(61))
                x = np.where(x >= p, x - p, x)
                acc = _mulmod_mersenne61(acc ^ x, mult)
            b_ids[bi] = bi
            b_hash[bi] = acc
        return pa.table({
            "part": pa.array((b_hash.ravel() % num_parts).astype(np.int32)),
            "band": pa.array(b_ids.ravel()),
            "bhash": pa.array(b_hash.ravel()),
            "doc_id": pa.array(np.tile(dids, bands), type=pa.int64()),
        })

    def pairs(group: pa.Table) -> pa.Table:
        did = group["doc_id"].to_numpy(zero_copy_only=False)
        order, ia, ib = _segment_index_pairs(
            group["band"].to_numpy(zero_copy_only=False),
            group["bhash"].to_numpy(zero_copy_only=False),
            did, bucket_pair_cap)
        did = did[order]
        return pa.table({"id_a": pa.array(did[ia], type=pa.int64()),
                         "id_b": pa.array(did[ib], type=pa.int64())})

    cand = (sigs.map_batches(explode, batch_format="pyarrow")
            .groupby("part")
            .map_groups(pairs, batch_format="pyarrow"))
    return cand.groupby(["id_a", "id_b"]).aggregate(Count(alias_name="n_bands"))


def jaccard(text_a: str, text_b: str, shingle_k: int = 3) -> float:
    sa = set(_shingle_hashes(text_a, shingle_k).tolist())
    sb = set(_shingle_hashes(text_b, shingle_k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def shingle_sketches(ds: Dataset, shingle_k: int = 3) -> Dataset:
    """(doc_id, shingles:binary) — each doc's sorted unique shingle hash
    set packed as little-endian uint64 bytes, the exact-Jaccard
    verification payload (≈ one uint64 per token; the text itself never
    enters the verify shuffle). Binary, not list<uint64>, because Arrow's
    hash join rejects nested non-key fields."""

    def fn(batch: pa.Table) -> pa.Table:
        # batched shingles → one global (doc, hash) sort-dedupe → the
        # binary column is built straight from the deduped uint64 buffer
        # + 8×offsets (no per-row Python, no per-row digests; same bytes
        # as the per-row ``np.unique(...).tobytes()`` it replaced)
        n = batch.num_rows
        hs, off = _shingle_hashes_batch(batch["text"], shingle_k)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        order = np.lexsort((hs, doc_idx))
        hs_s, di_s = hs[order], doc_idx[order]
        keep = np.ones(len(hs_s), dtype=bool)
        keep[1:] = (hs_s[1:] != hs_s[:-1]) | (di_s[1:] != di_s[:-1])
        hs_u, di_u = hs_s[keep], di_s[keep]
        byte_off = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(di_u, minlength=n) * 8, out=byte_off[1:])
        arr = pa.BinaryArray.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(byte_off.tobytes()),
             pa.py_buffer(hs_u.astype("<u8").tobytes())])
        return pa.table({
            "doc_id": batch["doc_id"],
            "shingles": arr,
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def _attach_blobs(cand: Dataset, blobs: Dataset,
                  num_parts: int = 32) -> Dataset:
    """Distributed equi-join of candidate pairs against a per-doc binary
    payload (doc_id, blob): each pair picks up ``blob_a``/``blob_b``.

    Implemented as two groupby-union shuffles (the repo's reliable
    sort-shuffle machinery — ``Dataset.join``'s hash-shuffle aggregators
    deadlock under small CPU budgets and drop schemas on empty
    partitions): (1) key by doc_id per pair side, union with the payload
    rows, vectorized searchsorted attach per coarse partition; (2) key by
    the pair, zip the two halves back together."""

    def halves(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        n = len(a)
        return pa.table({
            "key": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "id_a": pa.array(np.tile(a, 2), type=pa.int64()),
            "id_b": pa.array(np.tile(b, 2), type=pa.int64()),
            "side": pa.array(np.repeat(np.array([0, 1], dtype=np.int8), n)),
            "blob": pa.array([None] * (2 * n), type=pa.binary()),
        })

    def payload_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch["doc_id"].cast(pa.int64()),
            "id_a": pa.array([None] * n, type=pa.int64()),
            "id_b": pa.array([None] * n, type=pa.int64()),
            "side": pa.array(np.full(n, -1, dtype=np.int8)),
            "blob": batch["blob"],
        })

    def add_part(batch: pa.Table) -> pa.Table:
        part = pc.cast(pc.bit_wise_and(batch["key"], num_parts - 1),
                       pa.int32())
        return batch.append_column("part", part)

    def attach(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        key = group["key"].to_numpy(zero_copy_only=False)
        is_payload = side == -1
        pk = key[is_payload]
        order = np.argsort(pk, kind="stable")
        pk = pk[order]
        blob_arr = group["blob"].combine_chunks().filter(
            pa.array(is_payload)).take(pa.array(order))
        half_idx = np.flatnonzero(~is_payload)
        pos = np.searchsorted(pk, key[half_idx])
        # every candidate id comes from the payload's domain
        got = blob_arr.take(pa.array(pos))
        sub = group.take(pa.array(half_idx))
        return pa.table({
            "id_a": sub["id_a"], "id_b": sub["id_b"], "side": sub["side"],
            "blob": got,
        })

    def add_pair_part(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        part = ((a * 1000003 + b) % num_parts).astype(np.int32)
        return batch.append_column("part", pa.array(part))

    def zip_pair(group: pa.Table) -> pa.Table:
        a = group["id_a"].to_numpy(zero_copy_only=False)
        b = group["id_b"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, b, a))
        assert len(a) % 2 == 0, "unpaired half in pair-zip"
        a, b = a[order], b[order]
        blob = group["blob"].combine_chunks().take(pa.array(order))
        # rows alternate side 0 / side 1 per pair after the sort
        return pa.table({
            "id_a": pa.array(a[0::2], type=pa.int64()),
            "id_b": pa.array(b[0::2], type=pa.int64()),
            "blob_a": blob.take(pa.array(np.arange(0, len(a), 2))),
            "blob_b": blob.take(pa.array(np.arange(1, len(a), 2))),
        })

    pay = blobs.map_batches(payload_rows, batch_format="pyarrow")
    half = cand.map_batches(halves, batch_format="pyarrow")
    attached = (half.union(pay)
                .map_batches(add_part, batch_format="pyarrow")
                .groupby("part")
                .map_groups(attach, batch_format="pyarrow"))
    return (attached
            .map_batches(add_pair_part, batch_format="pyarrow")
            .groupby("part")
            .map_groups(zip_pair, batch_format="pyarrow"))


def minhash_dedup_pairs(ds: Dataset, num_perm: int = 64, shingle_k: int = 3,
                        bands: int | None = None, threshold: float = 0.5,
                        bucket_pair_cap: int | None = 64,
                        expand_exact_clusters: bool = True,
                        num_parts: int | None = None) -> Dataset:
    """Full near-dup pipeline: signatures → LSH candidates → exact-Jaccard
    verification. Returns a Dataset (id_a, id_b, jaccard:double), sorted
    by (id_a, id_b).

    Fully distributed: candidates are joined against per-doc shingle
    sketches with the groupby-union shuffle join (:func:`_attach_blobs`)
    and verified with a vectorized set intersection inside
    ``map_batches``. Nothing is materialized on the driver; a
    high-duplication crawl where candidates ≈ corpus streams through the
    same two shuffles.

    ``bands=None`` picks the banding from the threshold
    (:func:`optimal_bands`): r1's fixed 16×4 banding detected only ~63 %
    of J=0.5 borderline pairs; at t=0.5 the auto choice (32×2) detects
    >99.97 % and the exact verify discards the extra false candidates.

    **Completeness contract of ``bucket_pair_cap`` (default 64):** any
    (band, band-hash) bucket larger than the cap — in practice a cluster
    of exact/near-exact duplicates sharing a band signature — emits only
    (min-id, other) STAR candidates, not all member–member pairs, so the
    verified pair output is a spanning star per such cluster rather than
    its full clique. Every member is still linked for drop decisions
    (dedup keep/drop is unaffected); only the PAIR LISTING is reduced,
    bounding candidate work at O(B) instead of O(B²) per degenerate
    bucket. ``expand_exact_clusters=True`` restores the full clique for
    EXACT-duplicate clusters after verification: verified star pairs with
    Jaccard == 1.0 mean identical shingle sets, and set equality is
    transitive, so the member–member pairs (all Jaccard 1.0) are emitted
    without re-verification. Near-exact (J < 1) member–member pairs
    inside an over-cap bucket remain unreported — pass
    ``bucket_pair_cap=None`` to force complete candidate enumeration
    (quadratic in the duplicate-cluster size) when that listing is the
    requirement."""
    if num_parts is None:
        num_parts = auto_num_parts(ds)
    if bands is None:
        bands = optimal_bands(num_perm, threshold)
    sigs = minhash_signatures(ds, num_perm, shingle_k)
    cand = (lsh_candidate_pairs(sigs, bands, bucket_pair_cap, num_parts)
            .select_columns(["id_a", "id_b"]))
    sk = shingle_sketches(ds, shingle_k).rename_columns(
        {"shingles": "blob"})
    joined = _attach_blobs(cand, sk, num_parts=min(num_parts, 4096))

    def verify(batch: pa.Table) -> pa.Table:
        a_ids = batch["id_a"].to_numpy(zero_copy_only=False)
        b_ids = batch["id_b"].to_numpy(zero_copy_only=False)
        sh_a = batch["blob_a"].to_pylist()
        sh_b = batch["blob_b"].to_pylist()
        keep_a, keep_b, jac = [], [], []
        for i in range(len(a_ids)):
            sa = np.frombuffer(sh_a[i], dtype=np.uint64)
            sb = np.frombuffer(sh_b[i], dtype=np.uint64)
            if sa.size == 0 and sb.size == 0:
                j = 1.0
            else:
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                j = inter / (sa.size + sb.size - inter)
            if j >= threshold:
                keep_a.append(int(a_ids[i]))
                keep_b.append(int(b_ids[i]))
                jac.append(j)
        return pa.table({"id_a": pa.array(keep_a, type=pa.int64()),
                         "id_b": pa.array(keep_b, type=pa.int64()),
                         "jaccard": pa.array(jac, type=pa.float64())})

    verified = joined.map_batches(verify, batch_format="pyarrow")
    if expand_exact_clusters and bucket_pair_cap is not None:
        # Restore the full clique for exact-duplicate clusters reduced to
        # stars by the cap: J(rep,x)=1 and J(rep,y)=1 ⇒ identical shingle
        # sets ⇒ J(x,y)=1 — valid to emit without re-verifying. A pair may
        # also have been found directly through an under-cap bucket, so a
        # final pair-keyed groupby dedups (jaccard values agree at 1.0).
        def expand(group: pa.Table) -> pa.Table:
            jac = group["jaccard"].to_numpy(zero_copy_only=False)
            exact = np.sort(
                group["id_b"].to_numpy(zero_copy_only=False)[jac == 1.0])
            m = len(exact)
            if m < 2:
                return pa.table({"id_a": pa.array([], type=pa.int64()),
                                 "id_b": pa.array([], type=pa.int64()),
                                 "jaccard": pa.array([], type=pa.float64())})
            ia, ib = np.triu_indices(m, k=1)
            return pa.table({
                "id_a": pa.array(exact[ia], type=pa.int64()),
                "id_b": pa.array(exact[ib], type=pa.int64()),
                "jaccard": pa.array(np.ones(len(ia)), type=pa.float64()),
            })

        clique = verified.groupby("id_a").map_groups(
            expand, batch_format="pyarrow")
        verified = (verified.union(clique)
                    .groupby(["id_a", "id_b"])
                    .aggregate(Max("jaccard", alias_name="jaccard")))
    return verified.sort(["id_a", "id_b"])


def ngram_jaccard_pairs(ds: Dataset, shingle_k: int = 3,
                        threshold: float = 0.5,
                        num_parts: int | None = None,
                        max_shingle_df: int | None = 8192,
                        measure: str = "jaccard") -> Dataset:
    """EXACT n-gram Jaccard near-dup pairs: (id_a, id_b, jaccard) for
    every pair of non-blank docs with token-``shingle_k``-gram Jaccard
    ≥ threshold.

    Distributed inverted-shingle shape (no LSH approximation): explode
    each doc to its distinct shingle hashes (its shingle-set size rides
    along), group by a coarse partition of the shingle space, emit
    per-pair co-occurrence counts within each partition (vectorized
    segment scan), then ONE pair-keyed groupby sums exact intersection
    sizes; |A∪B| = |A|+|B|-|A∩B| needs no further join because the set
    sizes ride with every exploded row. Exact ⇒ SQL-oracle checkable.

    Scale note: the candidate pass pays O(Σ_s df(s)²). ``max_shingle_df``
    bounds it: a shingle shared by more than that many docs (a
    stopword-like k-gram — 8192² = 67M pair emissions from ONE shingle)
    is skipped in the co-occurrence scan and its skip is logged. The
    shingle still counts toward both docs' set SIZES, so any reported
    jaccard is exact-or-underestimated, never inflated — pairs whose
    intersection ≥ threshold·union without the capped shingles are still
    found exactly; pairs that need a capped (near-ubiquitous) shingle to
    clear the threshold are dropped. ``max_shingle_df=None`` restores the
    unconditional exactness contract. Because every occurrence of a
    shingle lands in the same partition (``part = hash % num_parts``),
    the per-segment length in the scan IS the shingle's global df.
    """
    if num_parts is None:
        num_parts = auto_num_parts(ds)

    def explode(batch: pa.Table) -> pa.Table:
        # batched shingles → one global (doc, hash) sort-dedupe (the
        # DISTINCT shingle set per doc, sizes riding along) — no per-row
        # Python (VERDICT r3 #3 family)
        n = batch.num_rows
        hs, off = _shingle_hashes_batch(batch["text"], shingle_k)
        if hs.size == 0:
            return pa.table({"part": pa.array([], type=pa.int32()),
                             "shingle": pa.array([], type=pa.uint64()),
                             "doc_id": pa.array([], type=pa.int64()),
                             "nsh": pa.array([], type=pa.int64())})
        dids_all = batch["doc_id"].to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        order = np.lexsort((hs, doc_idx))
        hs_s, di_s = hs[order], doc_idx[order]
        keep = np.ones(len(hs_s), dtype=bool)
        keep[1:] = (hs_s[1:] != hs_s[:-1]) | (di_s[1:] != di_s[:-1])
        hs_u, di_u = hs_s[keep], di_s[keep]
        nsh_per_doc = np.bincount(di_u, minlength=n)
        return pa.table({
            "part": pa.array((hs_u % num_parts).astype(np.int32)),
            "shingle": pa.array(hs_u),
            "doc_id": pa.array(dids_all[di_u], type=pa.int64()),
            "nsh": pa.array(nsh_per_doc[di_u], type=pa.int64()),
        })

    def co_pairs(group: pa.Table) -> pa.Table:
        sh = group["shingle"].to_numpy(zero_copy_only=False)
        did = group["doc_id"].to_numpy(zero_copy_only=False)
        nsh = group["nsh"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, sh))
        sh, did, nsh = sh[order], did[order], nsh[order]
        n = len(sh)
        new_seg = np.ones(n, dtype=bool)
        new_seg[1:] = sh[1:] != sh[:-1]
        starts = np.flatnonzero(new_seg)
        lens = np.diff(np.append(starts, n))
        if max_shingle_df is not None:
            over = int(np.count_nonzero(lens > max_shingle_df))
            if over:
                import logging
                logging.getLogger(__name__).warning(
                    "ngram_jaccard_pairs: skipping %d shingle(s) with df > "
                    "%d (max df seen: %d) — pairs needing them to clear the "
                    "threshold are dropped", over, max_shingle_df,
                    int(lens.max()))
            sel = (lens > 1) & (lens <= max_shingle_df)
        else:
            sel = lens > 1
        ia, ib = segment_upper_pairs(starts[sel], lens[sel])
        if not len(ia):
            z = pa.array([], type=pa.int64())
            return pa.table({"id_a": z, "id_b": z, "n": z,
                             "na": z, "nb": z})
        # combine within the partition before the pair shuffle; uint64
        # packing is exact for the full dense-id < 2^32 contract (an
        # int64 a*2^32+b pack wraps once a >= 2^31)
        key = ((did[ia].astype(np.uint64) << np.uint64(32))
               | did[ib].astype(np.uint64))
        uk, first, counts = np.unique(key, return_index=True,
                                      return_counts=True)
        return pa.table({
            "id_a": pa.array((uk >> np.uint64(32)).astype(np.int64)),
            "id_b": pa.array((uk & np.uint64(0xFFFFFFFF))
                             .astype(np.int64)),
            "n": pa.array(counts, type=pa.int64()),
            "na": pa.array(nsh[ia[first]], type=pa.int64()),
            "nb": pa.array(nsh[ib[first]], type=pa.int64()),
        })

    inter = (ds.map_batches(explode, batch_format="pyarrow")
             .groupby("part").map_groups(co_pairs, batch_format="pyarrow")
             .groupby(["id_a", "id_b"])
             .aggregate(Sum("n", alias_name="inter"),
                        Min("na", alias_name="na"),
                        Min("nb", alias_name="nb")))

    if measure not in ("jaccard", "containment"):
        raise ValueError(f"unknown measure {measure!r}")

    def finish(batch: pa.Table) -> pa.Table:
        inter_n = batch["inter"].to_numpy(zero_copy_only=False)
        na = batch["na"].to_numpy(zero_copy_only=False)
        nb_ = batch["nb"].to_numpy(zero_copy_only=False)
        if measure == "containment":
            score = inter_n / np.minimum(na, nb_)
        else:
            score = inter_n / (na + nb_ - inter_n)
        keep = score >= threshold
        return pa.table({
            "id_a": batch["id_a"].filter(pa.array(keep)),
            "id_b": batch["id_b"].filter(pa.array(keep)),
            measure: pa.array(score[keep], type=pa.float64()),
        })

    return inter.map_batches(finish, batch_format="pyarrow").sort(
        ["id_a", "id_b"])


def ngram_containment_pairs(ds: Dataset, shingle_k: int = 3,
                            threshold: float = 0.8,
                            num_parts: int | None = None,
                            max_shingle_df: int | None = 8192) -> Dataset:
    """ASYMMETRIC near-dup pairs: (id_a, id_b, containment) where
    containment = |A∩B| / min(|A|, |B|) over the distinct
    token-``shingle_k``-gram sets — the quote/subset detector Jaccard
    misses (a tweet embedded in an article has tiny Jaccard but
    containment ≈ 1; Broder's resemblance-vs-containment distinction).
    Same machinery, exactness, and ``max_shingle_df`` under-report
    contract as :func:`ngram_jaccard_pairs` (the intersection pass is
    shared; only the final vectorized ratio differs)."""
    return ngram_jaccard_pairs(ds, shingle_k=shingle_k,
                               threshold=threshold, num_parts=num_parts,
                               max_shingle_df=max_shingle_df,
                               measure="containment")


def tf_cosine_pairs(ds: Dataset, threshold: float = 0.5,
                    num_parts: int | None = None,
                    max_term_df: int | None = 8192) -> Dataset:
    """EXACT all-pairs sparse cosine similarity over term-frequency
    vectors: (id_a, id_b, cosine) for every pair of non-blank docs with
    cos(tf_a, tf_b) ≥ threshold — the bag-of-words near-dup signal
    (order-insensitive, repetition-sensitive: the complement of the
    shingle family) and the exact baseline of the all-pairs similarity
    search problem (Bayardo et al., WWW'07).

    Distributed inverted-index shape, mirroring
    :func:`ngram_jaccard_pairs`: explode each doc's distinct
    (term-hash, tf) pairs with its squared norm Σtf² riding along,
    group by a coarse partition of the term space, emit per-pair
    partial dot products tf_a·tf_b within each term segment (vectorized
    scan + within-partition combine), then ONE pair-keyed groupby sums
    exact dot products; the cosine needs no further join because both
    squared norms ride with every exploded row. All-integer until one
    final ``dot / (sqrt(sqa)·sqrt(sqb))`` float64 expression (NOT
    ``sqrt(sqa·sqb)``: the int64 product overflows on degenerate
    repeated-token docs) ⇒ SQL-oracle
    checkable bit-for-bit.

    Tokenization is the term-statistics contract (lowercased whitespace
    split — ``cooccurrence_counts``' convention), NOT the dedup
    family's raw-case shingles. ``max_term_df`` bounds the O(Σ df²)
    candidate pass exactly like ``max_shingle_df`` there: terms shared
    by more docs are skipped (logged), their tf² still counts toward
    both norms, so any reported cosine is exact-or-underestimated,
    never inflated; ``None`` restores unconditional exactness."""
    if num_parts is None:
        num_parts = auto_num_parts(ds)

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, off = _tokenize_texts_batch(pc.utf8_lower(batch["text"]))
        th = _hash_tokens_flat(flat)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        if th.size == 0:
            z64 = pa.array([], type=pa.int64())
            return pa.table({"part": pa.array([], type=pa.int32()),
                             "term": pa.array([], type=pa.uint64()),
                             "doc_id": z64, "tf": z64, "sq": z64})
        order = np.lexsort((th, doc_idx))
        th_s, di_s = th[order], doc_idx[order]
        new = np.ones(len(th_s), dtype=bool)
        new[1:] = (th_s[1:] != th_s[:-1]) | (di_s[1:] != di_s[:-1])
        seg = np.cumsum(new) - 1
        tf = np.bincount(seg).astype(np.int64)
        th_u, di_u = th_s[new], di_s[new]
        sq_per_doc = np.zeros(n, dtype=np.int64)
        np.add.at(sq_per_doc, di_u, tf * tf)
        dids_all = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "part": pa.array((th_u % num_parts).astype(np.int32)),
            "term": pa.array(th_u),
            "doc_id": pa.array(dids_all[di_u], type=pa.int64()),
            "tf": pa.array(tf),
            "sq": pa.array(sq_per_doc[di_u]),
        })

    def co_pairs(group: pa.Table) -> pa.Table:
        th = group["term"].to_numpy(zero_copy_only=False)
        did = group["doc_id"].to_numpy(zero_copy_only=False)
        tf = group["tf"].to_numpy(zero_copy_only=False)
        sq = group["sq"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, th))
        th, did, tf, sq = th[order], did[order], tf[order], sq[order]
        n = len(th)
        new_seg = np.ones(n, dtype=bool)
        new_seg[1:] = th[1:] != th[:-1]
        starts = np.flatnonzero(new_seg)
        lens = np.diff(np.append(starts, n))
        if max_term_df is not None:
            over = int(np.count_nonzero(lens > max_term_df))
            if over:
                import logging
                logging.getLogger(__name__).warning(
                    "tf_cosine_pairs: skipping %d term(s) with df > %d "
                    "(max df seen: %d) — pairs needing them to clear the "
                    "threshold are dropped", over, max_term_df,
                    int(lens.max()))
            sel = (lens > 1) & (lens <= max_term_df)
        else:
            sel = lens > 1
        ia, ib = segment_upper_pairs(starts[sel], lens[sel])
        if not len(ia):
            z = pa.array([], type=pa.int64())
            return pa.table({"id_a": z, "id_b": z, "dot": z,
                             "sqa": z, "sqb": z})
        # combine partial dots within the partition before the shuffle;
        # uint64 bit-packing is exact for the full dense-id < 2^32
        # contract (an int64 a*2^32+b pack wraps once a >= 2^31)
        key = ((did[ia].astype(np.uint64) << np.uint64(32))
               | did[ib].astype(np.uint64))
        uk, first, inv = np.unique(key, return_index=True,
                                   return_inverse=True)
        dot = np.zeros(len(uk), dtype=np.int64)
        np.add.at(dot, inv, tf[ia] * tf[ib])
        # route each pair's partials to ONE coarse pair partition: the
        # final reduce is a single int-key groupby + vectorized segment
        # sum (Ray's named two-key Aggregate was ~100x slower here on
        # the all-pairs row volume)
        return pa.table({
            "ppart": pa.array(((uk * np.uint64(0x9E3779B97F4A7C15))
                               % np.uint64(num_parts)).astype(np.int32)),
            "key": pa.array(uk.view(np.int64)),  # bit-pattern carrier
            "dot": pa.array(dot),
            "sqa": pa.array(sq[ia[first]], type=pa.int64()),
            "sqb": pa.array(sq[ib[first]], type=pa.int64()),
        })

    def reduce_pairs(group: pa.Table) -> pa.Table:
        key = group["key"].to_numpy(
            zero_copy_only=False).view(np.uint64)
        dot = group["dot"].to_numpy(zero_copy_only=False)
        sqa = group["sqa"].to_numpy(zero_copy_only=False)
        sqb = group["sqb"].to_numpy(zero_copy_only=False)
        order = np.argsort(key, kind="stable")
        key, dot = key[order], dot[order]
        sqa, sqb = sqa[order], sqb[order]
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        tot = np.add.reduceat(dot, starts) if len(dot) else dot
        uk = key[starts]
        # sqrt(a)*sqrt(b), NOT sqrt(a*b): the int64 product overflows
        # once both squared norms exceed ~3e9 (one token repeated ~55k
        # times); the SQL oracle uses the identical expression shape
        cos = tot / (np.sqrt(sqa[starts].astype(np.float64))
                     * np.sqrt(sqb[starts].astype(np.float64)))
        keep = cos >= threshold
        uk, cos = uk[keep], cos[keep]
        return pa.table({
            "id_a": pa.array((uk >> np.uint64(32)).astype(np.int64)),
            "id_b": pa.array((uk & np.uint64(0xFFFFFFFF))
                             .astype(np.int64)),
            "cosine": pa.array(cos, type=pa.float64()),
        })

    return (ds.map_batches(explode, batch_format="pyarrow")
            .groupby("part").map_groups(co_pairs, batch_format="pyarrow")
            .groupby("ppart").map_groups(reduce_pairs,
                                         batch_format="pyarrow")
            .sort(["id_a", "id_b"]))


# -------------------------------------------------------------- simhash


def _md5_hash64(token: str) -> int:
    """64-bit token hash ≡ DuckDB ``md5_number_lower`` (little-endian of
    md5 digest bytes 8..16) — chosen so the SQL oracle can reproduce the
    simhash exactly."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[8:],
                          "little")


class SimHashStage:
    """Actor-pool stage: 64-bit SimHash over lowercased whitespace tokens
    (tf-weighted bit votes; md5-based token hashing shared with the
    DuckDB oracle).

    Fully vectorized per batch: Arrow split → dictionary-encode → md5
    ONLY the batch's unique tokens (cached across batches in actor
    state — the tokenizer's unique-token trick), per-(doc, token) tf via
    one fused-key ``np.unique``, bit votes via ``np.add.reduceat`` over
    the (occurrences × 64) signed matrix. Integer vote sums ⇒
    order-free ⇒ identical to the per-doc loop it replaced."""

    _BITS = np.arange(64, dtype=np.uint64)

    def __init__(self):
        pass

    def _hash_unique(self, vocab) -> np.ndarray:
        """md5 lower-64 of the batch's unique tokens — one vectorized
        single-block md5 pass (``text/hashvec.py``), no per-token
        Python and no cache needed."""
        from ..text.hashvec import md5_lower64_strings
        return md5_lower64_strings(vocab)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_docs = batch.num_rows
        trimmed = pc.utf8_trim_whitespace(pc.utf8_lower(batch["text"]))
        toks = pc.utf8_split_whitespace(trimmed)
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks)
        # Arrow yields [''] for blank docs where str.split() yields []
        if pc.any(pc.equal(trimmed, "")).as_py():
            keep = pc.not_equal(flat, "")
            flat = flat.filter(keep)
            parents = parents.filter(keep)
        out = np.zeros(n_docs, dtype=np.uint64)
        if len(flat):
            enc = pc.dictionary_encode(flat)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(
                np.int64)
            vocab_n = len(enc.dictionary)
            hs_u = self._hash_unique(enc.dictionary)
            par = parents.to_numpy(zero_copy_only=False).astype(np.int64)
            # tf per (doc, token): one vectorized unique over a fused key
            key = par * vocab_n + codes
            uniq, cnt = np.unique(key, return_counts=True)
            d_e = uniq // vocab_n
            c_e = uniq % vocab_n
            bits_u = ((hs_u[:, None] >> self._BITS) & np.uint64(1)
                      ).astype(bool)                       # (vocab, 64)
            signed = np.where(bits_u[c_e], cnt[:, None], -cnt[:, None])
            doc_starts = np.flatnonzero(np.diff(d_e, prepend=-1))
            votes = np.add.reduceat(signed, doc_starts, axis=0)
            sim = ((votes > 0).astype(np.uint64)
                   << self._BITS[None, :]).sum(axis=1, dtype=np.uint64)
            out[d_e[doc_starts]] = sim
        return pa.table({"doc_id": batch["doc_id"],
                         "simhash": pa.array(out, type=pa.uint64())})


def simhash_values(ds: Dataset, concurrency=(1, 8)) -> Dataset:
    return ds.map_batches(SimHashStage, batch_format="pyarrow",
                          concurrency=concurrency)


def _hamming64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array."""
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 8 * 8).sum(
        axis=1).astype(np.int32)


def simhash_near_dup_pairs(ds: Dataset, max_hamming: int = 3,
                           bucket_pair_cap: int | None = None,
                           num_parts: int | None = None) -> Dataset:
    """ALL near-dup (id_a, id_b, hamming) pairs via 4-band blocking: with
    4 16-bit bands, Hamming ≤ 3 guarantees one identical band
    (pigeonhole), so the bucket pass finds every qualifying pair without
    an n² comparison — the output is complete (equals the n² SQL oracle).

    ``bucket_pair_cap`` defaults to **None** (no cap): popcount
    verification is cheap, and a finite cap silently drops member–member
    pairs of any (band, key) bucket larger than the cap, violating the
    completeness contract. Pass a finite cap only as an explicit opt-in
    when a duplicate-saturated corpus makes the quadratic PAIR OUTPUT
    itself (the contract's own lower bound) unaffordable — with a cap,
    output degrades to (min-id, other) star pairs per oversized bucket.

    Same scale shape as the LSH path: vectorized explode, one vectorized
    segment scan per coarse partition, vectorized popcount verification.
    """
    if num_parts is None:
        num_parts = auto_num_parts(ds)

    def explode(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = len(h)
        band = np.repeat(np.arange(4, dtype=np.int32), n)
        key = np.concatenate(
            [((h >> np.uint64(16 * bi)) & np.uint64(0xFFFF)).astype(np.int32)
             for bi in range(4)])
        return pa.table({
            "part": pa.array(((band.astype(np.int64) << 16) | key)
                             % num_parts, type=pa.int32()),
            "band": pa.array(band),
            "key": pa.array(key),
            "doc_id": pa.array(np.tile(dids, 4), type=pa.int64()),
            "simhash": pa.array(np.tile(h, 4)),
        })

    def pairs(group: pa.Table) -> pa.Table:
        did = group["doc_id"].to_numpy(zero_copy_only=False)
        order, ia, ib = _segment_index_pairs(
            group["band"].to_numpy(zero_copy_only=False),
            group["key"].to_numpy(zero_copy_only=False).astype(np.uint64),
            did, bucket_pair_cap)
        did = did[order]
        h = group["simhash"].to_numpy(
            zero_copy_only=False).astype(np.uint64)[order]
        if len(ia) == 0:
            return pa.table({"id_a": pa.array([], type=pa.int64()),
                             "id_b": pa.array([], type=pa.int64()),
                             "hamming": pa.array([], type=pa.int32())})
        ham = _hamming64(h[ia] ^ h[ib])
        keep = ham <= max_hamming
        return pa.table({"id_a": pa.array(did[ia][keep], type=pa.int64()),
                         "id_b": pa.array(did[ib][keep], type=pa.int64()),
                         "hamming": pa.array(ham[keep], type=pa.int32())})

    sim = simhash_values(ds)
    cand = (sim.map_batches(explode, batch_format="pyarrow")
            .groupby("part").map_groups(pairs, batch_format="pyarrow"))
    return cand.groupby(["id_a", "id_b"]).aggregate(
        Min("hamming", alias_name="hamming"))
