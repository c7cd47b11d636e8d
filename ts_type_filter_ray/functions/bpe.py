"""Distributed BPE tokenizer training + encoding.

Classic byte-pair-encoding training (Sennrich et al. 2016, "Neural
Machine Translation of Rare Words with Subword Units") is a
word-frequency-table algorithm: the corpus-scale work is the distributed
WORD COUNT (one term-partition exchange over the token stream); the
merge loop itself runs over the DISTINCT-word table, which is
vocab-bounded ≪ corpus — at 100 TB the distinct-word table is millions
of rows while the corpus is trillions of token occurrences.

One trainer, :func:`train_bpe`, built from one copy of each part: the
word-count stage (shared with :func:`word_count_table` and
:func:`pair_counts`), one shard class holding some words' symbol
sequences and their pair index, and one merge loop that selects the
top pair and folds the shards' integer count deltas. Where the shards
run follows the distinct-word count: up to
:data:`LOCAL_TRAIN_MAX_WORDS` one in-process shard holds every word;
beyond it there is one shard actor per word-count block and the driver
holds only the global pair counts.

Reference capability anchor: the reference counts tokens with a trained
BPE tokenizer (tiktoken, ``/root/reference/samples/menu/menu.py:147,
363-373`` — env-blocked offline); ``textstats.bpe_token_counts`` is the
pretokenizer analog, and this module supplies the TRAINING side plus a
trained-merges encoder with the same distributed shape (actor-pool
``map_batches``, per-unique-token work only).

Word model: lowercased whitespace tokens (the engine's standard token
stream); a word's symbol sequence is its characters followed by the
end-of-word marker ``</w>``. Merge selection is deterministic:
highest weighted pair count, ties broken by ``(left asc, right asc)``.

Gate strategy (exactness-configuration trick, tokenizer edition):
- ``pair_counts`` — the pre-merge symbol-pair count table is pure
  integer aggregation ⇒ value-exact vs a DuckDB substr-explode oracle.
- ``train_bpe(n_merges=1)`` — one iteration ≡ argmax of that pair
  table ⇒ the trainer's selection/tie-break logic is value-exact too.
- ``encode_token_counts`` with ZERO merges ⇒ per-doc count is
  Σ(len(token)+1) ⇒ the whole encode path (actor pool, per-unique-token
  cache, per-doc reduction) is value-exact.
- Full multi-merge training/encoding is pinned by pytest against a
  naive pure-Python reference implementation (rows-only on the gate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from .textstats import _explode_term_tf, _term_part_appender, _tokens

END = "</w>"


# ------------------------------------------------------- word counts

#: Distinct-word count at or below which :func:`train_bpe` keeps the
#: merge loop's word state in the driver: one in-process shard holds
#: every distinct word's symbol list and its pair index. That costs
#: about 0.5 KB of driver memory per word (434-468 B measured over 97k
#: random 3-12-letter words, before and after 20 merges), so this is a
#: driver-memory bound of ~0.5 GB. Above it the words stay in one actor
#: per word-count block and the driver holds only the global pair counts.
LOCAL_TRAIN_MAX_WORDS = 1_000_000


def _word_count_blocks(ds: Dataset, num_parts: int | None) -> list:
    """The distributed word count, as ``(block ref, num_rows)`` per
    non-empty ``(term, n)`` block (a groupby can emit blocks with no
    rows and no columns; they are dropped here).

    (term, doc_id, tf) explode → coarse term-hash partition (every
    occurrence of a term lands in ONE partition, so per-partition sums
    are globally final) → per-partition segment sum."""
    from .partitioning import auto_num_parts

    if num_parts is None:
        num_parts = auto_num_parts(ds)

    def part_counts(group: pa.Table) -> pa.Table:
        terms = group["term"].combine_chunks()
        enc = pc.dictionary_encode(terms)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        tf = group["tf"].to_numpy(zero_copy_only=False)
        n = np.bincount(codes, weights=tf,
                        minlength=len(enc.dictionary)).astype(np.int64)
        return pa.table({"term": enc.dictionary, "n": pa.array(n)})

    words = (ds.map_batches(_explode_term_tf, batch_format="pyarrow")
             .map_batches(_term_part_appender(num_parts),
                          batch_format="pyarrow")
             .groupby("part")
             .map_groups(part_counts, batch_format="pyarrow"))
    return [(ref, meta.num_rows)
            for bundle in words.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows]


def _word_table(blocks: list) -> pa.Table:
    """The word-count blocks gathered into one driver table (unsorted)."""
    import ray

    if not blocks:
        return pa.table({"term": pa.array([], type=pa.string()),
                         "n": pa.array([], type=pa.int64())})
    return pa.concat_tables(ray.get([ref for ref, _ in blocks]))


def word_count_table(ds: Dataset, num_parts: int | None = None) -> pa.Table:
    """Distinct-word global counts ``(term, n)`` sorted by term asc.

    The result is materialized: it is the distinct-VOCABULARY table
    (bounded by vocabulary size, not corpus size — the same boundedness
    contract as ``top_terms``' driver-side sort)."""
    return _word_table(_word_count_blocks(ds, num_parts)).sort_by("term")


# ------------------------------------------------------- pair counts


def pair_counts(ds: Dataset, num_parts: int | None = None) -> pa.Table:
    """Pre-merge symbol-pair counts ``(left, right, pair_count)``,
    sorted (pair_count desc, left asc, right asc) — iteration 0 of BPE
    training as a standalone aggregate: the trainer's own word count
    and shard seed (:meth:`_MergeShardLocal.initial_pairs`), so the
    two surfaces cannot diverge."""
    blocks = _word_count_blocks(ds, num_parts)
    acc = _MergeShardLocal(_word_table(blocks)).initial_pairs()
    items = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
    return pa.table({
        "left": pa.array([k[0] for k, _ in items], type=pa.string()),
        "right": pa.array([k[1] for k, _ in items], type=pa.string()),
        "pair_count": pa.array([c for _, c in items], type=pa.int64())})


# ------------------------------------------------------------ training


class _MergeShardLocal:
    """One shard's mutable trainer state: the symbol sequences of ITS
    words (term-hash partitioning puts every distinct word in exactly
    one shard) plus the local pair → affected-word index. ``apply``
    replays one selected merge and returns the local pair-count DELTAS
    — integer, so the global fold is order-independent and the result
    is the same whichever shards hold the words."""

    def __init__(self, words: pa.Table):
        self.syms = [list(w) + [END] for w in words["term"].to_pylist()]
        self.counts = words["n"].to_pylist()
        self.pair_words: dict[tuple[str, str], set[int]] = {}

    def initial_pairs(self) -> dict[tuple[str, str], int]:
        """The shard's pair counts; builds the pair → word index."""
        acc: dict[tuple[str, str], int] = {}
        for i, (s, c) in enumerate(zip(self.syms, self.counts)):
            for p in zip(s, s[1:]):
                acc[p] = acc.get(p, 0) + c
                self.pair_words.setdefault(p, set()).add(i)
        return acc

    def apply(self, l: str, r: str) -> dict[tuple[str, str], int]:
        delta: dict[tuple[str, str], int] = {}
        new_sym = l + r
        for i in sorted(self.pair_words.get((l, r), ())):
            s, c_i = self.syms[i], self.counts[i]
            # retract the word's old pairs, apply the merge, add back
            for p in zip(s, s[1:]):
                delta[p] = delta.get(p, 0) - c_i
                ws = self.pair_words.get(p)
                if ws is not None:
                    ws.discard(i)
                    if not ws:
                        self.pair_words.pop(p, None)
            s2 = _apply_merge(s, l, r, new_sym)
            self.syms[i] = s2
            for p in zip(s2, s2[1:]):
                delta[p] = delta.get(p, 0) + c_i
                self.pair_words.setdefault(p, set()).add(i)
        return delta


def _merge_loop(initial: list[dict], apply, n_merges: int) -> list[dict]:
    """The BPE merge loop over the global pair counts: select the pair
    with the highest count (ties: left asc, right asc), record it, and
    fold the shards' integer deltas that ``apply(left, right)`` returns.
    *initial* is every shard's :meth:`_MergeShardLocal.initial_pairs`."""
    pair_n: dict[tuple[str, str], int] = {}

    def fold(deltas):
        for delta in deltas:
            for p, d in delta.items():
                n = pair_n.get(p, 0) + d
                if n:
                    pair_n[p] = n
                else:
                    del pair_n[p]

    fold(initial)
    merges: list[dict] = []
    for rank in range(n_merges):
        if not pair_n:
            break
        c = max(pair_n.values())
        l, r = min(p for p, n in pair_n.items() if n == c)
        merges.append({"rank": rank, "left": l, "right": r,
                       "pair_count": c})
        fold(apply(l, r))
    return merges


def _train_local(words: pa.Table, n_merges: int) -> list[dict]:
    """The merge loop over one in-process shard holding every word."""
    shard = _MergeShardLocal(words)
    return _merge_loop([shard.initial_pairs()],
                       lambda l, r: [shard.apply(l, r)], n_merges)


def _train_on_actors(blocks: list, n_merges: int) -> list[dict]:
    """The merge loop over one shard actor per word-count block: the
    word table never lands on the driver, which holds only the global
    pair counts; per merge one small round-trip per shard."""
    import ray

    shard_cls = ray.remote(_MergeShardLocal)
    shards = [shard_cls.remote(ref) for ref, _ in blocks]
    try:
        return _merge_loop(
            ray.get([s.initial_pairs.remote() for s in shards]),
            lambda l, r: ray.get([s.apply.remote(l, r) for s in shards]),
            n_merges)
    finally:
        for s in shards:
            ray.kill(s)


def train_bpe(ds: Dataset, n_merges: int,
              num_parts: int | None = None) -> pa.Table:
    """Train *n_merges* BPE merges over the corpus; returns
    ``(rank:int64, left:string, right:string, pair_count:int64)`` in
    merge order — ``pair_count`` is the weighted count at selection
    time.

    The distributed stage is the word count; the merge loop runs over
    the distinct-word table with an INCREMENTAL pair index (pair →
    affected word set): each merge touches only the words containing
    the merged pair (a full recount per iteration would be
    O(vocab · merges); pytest pins this bit-identical to the naive
    reference). Up to :data:`LOCAL_TRAIN_MAX_WORDS` distinct words the
    word state lives in the driver; beyond it, in one actor per
    word-count block. Integer deltas commute, so both placements give
    the same merges."""
    blocks = _word_count_blocks(ds, num_parts)
    if sum(n for _, n in blocks) <= LOCAL_TRAIN_MAX_WORDS:
        merges = _train_local(_word_table(blocks), n_merges)
    else:
        merges = _train_on_actors(blocks, n_merges)
    return pa.Table.from_pylist(
        merges,
        schema=pa.schema([("rank", pa.int64()), ("left", pa.string()),
                          ("right", pa.string()),
                          ("pair_count", pa.int64())]))


def _apply_merge(s: list[str], l: str, r: str, new_sym: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(s):
        if i + 1 < len(s) and s[i] == l and s[i + 1] == r:
            out.append(new_sym)
            i += 2
        else:
            out.append(s[i])
            i += 1
    return out


# ------------------------------------------------------------ encoding


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Greedy lowest-rank-first BPE encode of one word (the classic
    algorithm: repeatedly merge the present pair with the smallest
    merge rank until none applies)."""
    s = list(word) + [END]
    while len(s) > 1:
        best_rank = None
        best_pair = None
        for p in zip(s, s[1:]):
            rk = ranks.get(p)
            if rk is not None and (best_rank is None or rk < best_rank):
                best_rank, best_pair = rk, p
        if best_pair is None:
            break
        s = _apply_merge(s, best_pair[0], best_pair[1],
                         best_pair[0] + best_pair[1])
    return s


class _BpeEncodeStage:
    """Actor-pool encoder: merge ranks loaded once per actor in
    ``__init__``; per batch only UNIQUE lowercased tokens are encoded
    (dictionary-encode + a persistent per-actor token→length cache —
    the stem-unique-tokens-once trick), then per-doc totals come from
    one weighted bincount."""

    def __init__(self, merges: list[tuple[str, str]]):
        self.ranks = {(l, r): i for i, (l, r) in enumerate(merges)}
        self._cache: dict[str, int] = {}

    def _n_syms(self, tok: str) -> int:
        n = self._cache.get(tok)
        if n is None:
            n = self._cache[tok] = len(encode_word(tok, self.ranks))
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_tok_arr, flat, parents = _tokens(batch)
        n = batch.num_rows
        if len(flat) == 0:
            total = np.zeros(n, dtype=np.int64)
        else:
            low = pc.utf8_lower(flat)
            enc = pc.dictionary_encode(low)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            codes = enc.indices.to_numpy(zero_copy_only=False)
            lens = np.array([self._n_syms(t)
                             for t in enc.dictionary.to_pylist()],
                            dtype=np.int64)
            par = parents.to_numpy(zero_copy_only=False)
            total = np.bincount(par, weights=lens[codes],
                                minlength=n).astype(np.int64)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_bpe": pa.array(total)})


def encode_token_counts(ds: Dataset, merges: pa.Table | list,
                        concurrency=(1, 4)) -> Dataset:
    """(doc_id, n_bpe) — per-document token counts under the trained
    merge table (``train_bpe`` output or a ``[(left, right), ...]``
    list). Zero merges ⇒ every word costs ``len(word) + 1`` symbols
    (chars + ``</w>``), the value-exact gate configuration."""
    if isinstance(merges, pa.Table):
        merges = list(zip(merges["left"].to_pylist(),
                          merges["right"].to_pylist()))
    return ds.map_batches(
        _BpeEncodeStage, batch_format="pyarrow", concurrency=concurrency,
        fn_constructor_kwargs={"merges": merges})
