"""Tokenization stages: corpus batches → per-batch partial posting rows.

This is the engine's re-expression of the reference's ingestion loop
(extract → break → stem, ``ts_type_filter/inverted_index.py:57-65``) as a
stateful ``map_batches`` stage over Arrow batches:

- ``TokenizePartials``: callable tokenizer run in the task pool; it cuts
  each block into ``batch_size``-doc slices and per slice it stems every
  distinct token and emits **partial postings** —
  one row per (term, doc_partition) present in the slice, with parallel
  ``doc_ids``/``tfs``/``dls`` list columns. This per-slice partial
  aggregation is the combiner that keeps the spill small: a hot term
  like ``import`` ships one row per slice, not one per document
  (SURVEY.md §4 "Skew"). With ``emit_meta`` it also emits one per-doc
  metadata row (sha256, doc_len) per input doc.

Doc partitioning: ``part = doc_id >> doc_part_bits`` splits every term's
posting list into bounded doc-id ranges, so no single merge group ever
holds more than 2**doc_part_bits postings — the safeguard that makes the
hot-term merge feasible at 10^12 documents.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..text.porter2 import stem

DEFAULT_DOC_PART_BITS = 20  # 1M docs per doc-partition
#: docs per tokenize slice (what it bounds: ``build_index``'s docstring)
DEFAULT_TOKENIZE_BATCH_SIZE = 2048


def split_whitespace(content, lower: bool = False
                     ) -> tuple[pa.Array, np.ndarray]:
    """``str.split()`` of every row of a string column, in Arrow →
    (flat tokens, int64 row index of each token); ``lower`` lowercases
    the tokens."""
    trimmed = pc.utf8_trim_whitespace(content)
    toks = pc.utf8_split_whitespace(trimmed)
    flat = pc.list_flatten(toks)
    if lower:
        flat = pc.utf8_lower(flat)
    parents = pc.list_parent_indices(toks)
    # Arrow yields [''] for blank docs where str.split() yields []
    if pc.any(pc.equal(trimmed, "")).as_py():
        keep = pc.not_equal(flat, "")
        flat, parents = flat.filter(keep), parents.filter(keep)
    return flat, parents.to_numpy(zero_copy_only=False).astype(np.int64)


def encode_strings(values, *, sort: bool = False
                   ) -> tuple[np.ndarray, pa.Array]:
    """Arrow ``dictionary_encode`` → (int64 code per value, distinct
    values in first-appearance order). With ``sort`` only the distinct
    values are sorted (bytewise, i.e. code-point order) and the codes
    are ranks in them."""
    enc = pc.dictionary_encode(values)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    if not sort:
        return codes, enc.dictionary
    by_value = pc.array_sort_indices(enc.dictionary).to_numpy()
    rank = np.empty(len(by_value), dtype=np.int64)
    rank[by_value] = np.arange(len(by_value), dtype=np.int64)
    return rank[codes], enc.dictionary.take(pa.array(by_value))


def stem_dictionary(codes: np.ndarray, tokens, stemmer
                    ) -> tuple[np.ndarray, pa.Array]:
    """Token codes into a batch's distinct tokens (Python strs) → (stem
    code of each token, sorted distinct stems as Arrow strings),
    stemming each distinct token once. The stems never pass through a
    NumPy unicode array, which would drop trailing NULs (``"ab\\x00"``
    → ``"ab"``)."""
    sid_of, stems = encode_strings(pa.array(list(map(stemmer, tokens)),
                                            type=pa.string()), sort=True)
    return sid_of[codes], stems


class TokenizePartials:
    """Tokenize stage: (doc_id, content) blocks → partial posting rows.

    Runs in the fused task pool: the default form as the per-worker
    ``tokenize_task`` singleton, a custom breaker/stemmer/stopword form
    as an instance passed straight to ``map_batches``. It takes whole
    blocks (``map_batches(batch_size=None)``) and cuts them into
    ``batch_size``-doc slices itself: a ``map_batches`` batch size would
    stop Ray Data from fusing the stage with the read.

    Output schema:
      term:string, part:int32, bucket:int32, doc_ids:list<int64>,
      tfs:list<int32>, dls:list<int32>
    doc_ids ascending within each row (docs arrive in doc_id order within
    a slice; the merge re-sorts defensively anyway). ``bucket`` is the
    term's hash bucket — the spill (``state/spill.py``) partitions by
    bucket alone (few large groups, vectorized merge) instead of
    per-(term, part) (millions of tiny groups → per-group dispatch
    overhead dominates).
    """

    #: columns never passed through into doc-meta rows
    CORE_COLUMNS = ("doc_id", "content")

    def __init__(self, doc_part_bits: int = DEFAULT_DOC_PART_BITS,
                 num_term_buckets: int = 32,
                 breaker=None, stemmer=None, emit_meta: bool = False,
                 stopwords=None, batch_size: int | None = None):
        """``breaker``/``stemmer`` preserve the reference's extension
        surface (``Index(extractor=None, breaker=None, stemmer=None)``,
        ``inverted_index.py:36-39``); defaults are the reference-
        equivalent whitespace breaker + Porter2. The extractor hook is
        the corpus projection itself (``content`` is the text stream).

        ``emit_meta=True`` makes this a SINGLE-PASS stage: alongside the
        partial posting rows it emits one doc-metadata row per input doc
        (``part = bucket = -1``; sha256 rides in ``term``, doc_len in
        ``dls``; non-core input columns pass through) — the corpus is
        read and tokenized exactly once, and doc_len comes from the same
        breaker as the postings.

        ``stopwords`` (an optional set of LOWERCASE surface forms,
        Lucene's StopFilter position in the chain: dropped after word
        breaking, before stemming) removes those tokens from postings
        AND from doc_len — a stopworded index behaves as if the words
        were never written. The set is per-instance state (built once in
        __init__), and on the vectorized path membership is tested once
        per UNIQUE batch token, never per posting.

        ``batch_size`` is the slice length (``None``: the whole block is
        one slice)."""
        self._part_bits = doc_part_bits
        self._num_buckets = num_term_buckets
        # module-level lru_cache: hot vocab amortized per worker process
        self._stem = stemmer if stemmer is not None else stem
        self._break = breaker  # None → str.split fast path
        self._emit_meta = emit_meta
        self._stop = frozenset(w.lower() for w in stopwords) \
            if stopwords else None
        self._batch_size = batch_size

    def __call__(self, block: pa.Table) -> pa.Table:
        n = block.num_rows
        step = self._batch_size or max(n, 1)
        outs = [self._tokenize_slice(block.slice(lo, step))
                for lo in range(0, max(n, 1), step)]
        return outs[0] if len(outs) == 1 else pa.concat_tables(outs)

    def _tokenize_slice(self, batch: pa.Table) -> pa.Table:
        if self._break is None:
            postings, doc_lens = self._tokenize_vectorized(batch)
        else:
            postings, doc_lens = self._tokenize_python(batch)
        if not self._emit_meta:
            return postings
        n_docs = batch.num_rows
        n_post = postings.num_rows
        # sha256 straight from the UTF-8 bytes: no str per doc
        contents = pc.cast(batch["content"], pa.large_binary()).to_numpy(
            zero_copy_only=False)
        shas = [hashlib.sha256(c).hexdigest() for c in contents]
        passthrough = [name for name in batch.column_names
                       if name not in self.CORE_COLUMNS]
        one_each = pa.array(np.arange(n_docs + 1, dtype=np.int32))
        meta_cols = {
            "term": pa.array(shas, type=pa.string()),   # sha rides in term
            "part": pa.array(np.full(n_docs, -1, dtype=np.int32)),
            "bucket": pa.array(np.full(n_docs, -1, dtype=np.int32)),
            "doc_ids": pa.ListArray.from_arrays(
                one_each, pc.cast(batch["doc_id"], pa.int64()
                                  ).combine_chunks()),
            "tfs": pa.ListArray.from_arrays(
                pa.array(np.zeros(n_docs + 1, dtype=np.int32)),
                pa.array([], type=pa.int32())),
            "dls": pa.ListArray.from_arrays(
                one_each, pa.array(doc_lens, type=pa.int32())),
        }
        post_cols = {c: postings[c] for c in postings.column_names}
        for name in passthrough:
            col = batch[name]
            meta_cols[name] = col
            post_cols[name] = pa.nulls(n_post, type=col.type)
        return pa.concat_tables([pa.table(post_cols), pa.table(meta_cols)])

    def _tokenize_vectorized(self, batch: pa.Table):
        """Default-breaker fast path, Arrow end to end except the stems:
        Arrow split → ``dictionary_encode`` of the tokens → stem each
        distinct token once (the dictionary comes out as Python strs
        through ``to_numpy``) → :func:`stem_dictionary` encodes the stems
        with Arrow and sorts only that dictionary → numpy run
        aggregation → ListArray outputs, the ``term`` column a ``take``
        from the stem dictionary. No per-token Python and no per-posting
        dict churn (the r1 Counter loop was memory-bound: Python
        string/dict traffic saturated this VM's bus at 28 actors)."""
        from ..state.postings import term_buckets

        n_docs = batch.num_rows
        doc_np = batch["doc_id"].to_numpy(zero_copy_only=False)
        flat, par = split_whitespace(batch["content"])
        n_tok = np.bincount(par, minlength=n_docs).astype(np.int32)
        doc_lens = n_tok.tolist()

        empty_cols = {
            "term": pa.array([], type=pa.string()),
            "part": pa.array([], type=pa.int32()),
            "bucket": pa.array([], type=pa.int32()),
            "doc_ids": pa.array([], type=pa.list_(pa.int64())),
            "tfs": pa.array([], type=pa.list_(pa.int32())),
            "dls": pa.array([], type=pa.list_(pa.int32())),
        }
        if len(flat) == 0:
            return pa.table(empty_cols), doc_lens

        codes, vocab = encode_strings(flat)
        vocab = vocab.to_numpy(zero_copy_only=False)
        if self._stop is not None:
            # membership on the unique tokens only, then one mask gather
            stop_u = np.fromiter((t.lower() in self._stop for t in vocab),
                                 dtype=bool, count=len(vocab))
            if stop_u.any():
                keep = ~stop_u[codes]
                codes = codes[keep]
                par = par[keep]
                n_tok = np.bincount(par, minlength=n_docs).astype(np.int32)
                doc_lens = n_tok.tolist()
                if codes.size == 0:
                    return pa.table(empty_cols), doc_lens
        token_sid, stem_vocab = stem_dictionary(codes, vocab, self._stem)

        # tf per (stemmed term, doc): one vectorized unique over a fused key
        key = token_sid * n_docs + par
        uniq, tf = np.unique(key, return_counts=True)
        sid_e = uniq // n_docs
        docidx_e = uniq % n_docs
        part_e = (doc_np[docidx_e] >> self._part_bits).astype(np.int64)
        # part rides in 32 bits (int32 column here, low half of the
        # merge's (term_code << 32 | part) key): doc_id >= 2^(bits+31)
        # — e.g. >= 2048 sparse-id delimited files at the 1<<40 stride —
        # would wrap silently into wrong posting groups
        if len(part_e) and int(part_e.max()) >= (1 << 31):
            raise ValueError(
                f"doc partition {int(part_e.max())} >= 2^31 overflows "
                "the 32-bit part field — raise doc_part_bits or "
                "densify doc_ids")

        # run boundaries over (sid, part): docidx ascends within sid, so
        # part is non-decreasing within each sid run
        n_e = len(uniq)
        new_run = np.ones(n_e, dtype=bool)
        new_run[1:] = (sid_e[1:] != sid_e[:-1]) | (part_e[1:] != part_e[:-1])
        starts = np.flatnonzero(new_run)
        offsets = pa.array(np.append(starts, n_e).astype(np.int32))

        run_sids = sid_e[starts]
        bucket_vocab = term_buckets(
            stem_vocab.to_numpy(zero_copy_only=False), self._num_buckets)

        postings = pa.table({
            "term": stem_vocab.take(pa.array(run_sids)),
            "part": pa.array(part_e[starts].astype(np.int32)),
            "bucket": pa.array(bucket_vocab[run_sids]),
            "doc_ids": pa.ListArray.from_arrays(
                offsets, pa.array(doc_np[docidx_e], type=pa.int64())),
            "tfs": pa.ListArray.from_arrays(
                offsets, pa.array(tf.astype(np.int32))),
            "dls": pa.ListArray.from_arrays(
                offsets, pa.array(n_tok[docidx_e], type=pa.int32())),
        })
        return postings, doc_lens

    def _tokenize_python(self, batch: pa.Table):
        """Custom-breaker path: the reference-shaped per-doc loop (a
        user-supplied breaker is an opaque Python callable)."""
        _stem = self._stem
        _break = self._break
        part_bits = self._part_bits
        doc_ids = batch["doc_id"].to_pylist()
        contents = batch["content"].to_pylist()

        # per (term, part) → [doc_ids], [tfs], [dls]
        acc: dict[tuple[str, int], tuple[list[int], list[int], list[int]]] = {}
        doc_lens: list[int] = []
        stop = self._stop
        for doc_id, content in zip(doc_ids, contents):
            words = _break(content)
            if stop is not None:
                words = [w for w in words if w.lower() not in stop]
            dl = len(words)
            doc_lens.append(dl)
            counts = Counter(map(_stem, words))
            part = doc_id >> part_bits
            for term, tf in counts.items():
                entry = acc.get((term, part))
                if entry is None:
                    entry = acc[(term, part)] = ([], [], [])
                entry[0].append(doc_id)
                entry[1].append(tf)
                entry[2].append(dl)

        from ..state.postings import term_buckets

        terms = []
        parts = []
        l_doc = []
        l_tf = []
        l_dl = []
        for (term, part), (ds_, ts_, ls_) in acc.items():
            terms.append(term)
            parts.append(part)
            l_doc.append(ds_)
            l_tf.append(ts_)
            l_dl.append(ls_)
        postings = pa.table({
            "term": pa.array(terms, type=pa.string()),
            "part": pa.array(parts, type=pa.int32()),
            "bucket": pa.array(term_buckets(terms, self._num_buckets)),
            "doc_ids": pa.array(l_doc, type=pa.list_(pa.int64())),
            "tfs": pa.array(l_tf, type=pa.list_(pa.int32())),
            "dls": pa.array(l_dl, type=pa.list_(pa.int32())),
        })
        return postings, doc_lens


_TOKENIZER_SINGLETONS: dict[tuple, TokenizePartials] = {}


def tokenize_task(batch: pa.Table, *, doc_part_bits: int,
                  num_term_buckets: int, emit_meta: bool,
                  batch_size: int | None = None) -> pa.Table:
    """Task-pool form of :class:`TokenizePartials` for the default
    breaker/stemmer: a per-worker-process singleton keyed by params (the
    stem lru-cache is module-level, so worker reuse keeps it warm). As a
    plain function the executor fuses read → tokenize → write into ONE
    task — the partial rows never transit the object store, and no CPU
    is pinned to an actor pool while the write stage starves."""
    key = (doc_part_bits, num_term_buckets, emit_meta, batch_size)
    tok = _TOKENIZER_SINGLETONS.get(key)
    if tok is None:
        tok = _TOKENIZER_SINGLETONS[key] = TokenizePartials(
            doc_part_bits, num_term_buckets, emit_meta=emit_meta,
            batch_size=batch_size)
    return tok(batch)


_META_CORE = {"term", "part", "bucket", "doc_ids", "tfs", "dls"}


def meta_rows_to_docs(batch: pa.Table) -> pa.Table:
    """``bucket=-1`` doc-metadata rows (emitted by
    ``TokenizePartials(emit_meta=True)``) → docs-table rows
    (doc_id, sha256, doc_len, + passthrough metadata columns)."""
    cols = {
        "doc_id": pc.list_flatten(batch["doc_ids"]).cast(pa.int64()),
        "sha256": batch["term"],
        "doc_len": pc.list_flatten(batch["dls"]).cast(pa.int32()),
    }
    for name in batch.column_names:
        if name not in _META_CORE:
            cols[name] = batch[name]
    return pa.table(cols)


def merge_bucket_table(group: pa.Table, avgdl: float, k1: float,
                       b: float) -> pa.Table:
    """Merge + delta/varint-compress ALL partial posting rows of one term
    bucket, given as a single Arrow table (columns ``term, part, doc_ids,
    tfs, dls``; others are ignored). Output rows are in (term, part)
    order whatever the input row order, so the merged bytes do not depend
    on how the tokenize stage cut the corpus into slices.

    Fast path: partial rows are emitted sorted by (term, part) within
    each tokenize batch, and each batch covers a doc range disjoint from
    its neighbors' — so sorting the ROWS by (term, part, first_doc_id)
    and gathering yields fully sorted postings without ever sorting the
    posting instances themselves (#rows ≪ #postings; this replaced a
    whole-bucket lexsort that dominated the merge at 2.4M docs). A
    vectorized monotonicity check guards the assumption; any violation
    (e.g. a custom corpus with interleaved doc ids) falls back to the
    full (term, part, doc_id) lexsort. Each run is then varint-encoded
    with its block-max metadata in one whole-bucket pass.

    Scale note: one bucket's postings must fit one worker's heap —
    ``num_term_buckets`` is the knob (32 locally; thousands at 10^12-doc
    scale, keeping per-bucket state ~ total_postings/buckets).
    """
    from ..state import postings as plib

    group = group.combine_chunks()
    # codes ranked by term, not by first appearance: (term, part) order
    codes, vocab = encode_strings(group["term"].combine_chunks(), sort=True)
    parts = group["part"].to_numpy(zero_copy_only=False).astype(np.int64)

    dcol = group["doc_ids"].combine_chunks()
    tcol = group["tfs"].combine_chunks()
    lcol = group["dls"].combine_chunks()
    row_len = pc.list_value_length(dcol).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat_doc_raw = dcol.flatten().to_numpy(zero_copy_only=False)
    # first doc_id per row via exclusive cumsum (robust to array slicing,
    # unlike raw ListArray.offsets)
    row_first_idx = np.concatenate(([0], np.cumsum(row_len)))[:-1]
    nonempty = row_len > 0
    first_doc = np.zeros(len(row_len), dtype=np.int64)
    first_doc[nonempty] = flat_doc_raw[row_first_idx[nonempty]]

    # row-level sort + gather
    row_order = np.lexsort((first_doc, parts, codes))
    key_rows = (codes[row_order] << np.int64(32)) | parts[row_order]
    len_s = row_len[row_order]
    post_cum = np.concatenate(([0], np.cumsum(len_s)))
    total = int(post_cum[-1])
    new_run_row = np.ones(len(key_rows), dtype=bool)
    new_run_row[1:] = key_rows[1:] != key_rows[:-1]
    starts = post_cum[:-1][new_run_row]
    run_row_starts = np.flatnonzero(new_run_row)
    ends = np.append(starts[1:], total)

    take = pa.array(row_order)
    doc_s = pc.list_flatten(dcol.take(take)).to_numpy(zero_copy_only=False)
    tf_s = pc.list_flatten(tcol.take(take)).to_numpy(
        zero_copy_only=False).astype(np.int64)
    dl_s = pc.list_flatten(lcol.take(take)).to_numpy(
        zero_copy_only=False).astype(np.int64)

    # monotonicity guard: doc_ids must strictly ascend within each run
    if total:
        run_boundary = np.zeros(total, dtype=bool)
        run_boundary[starts] = True
        sorted_ok = bool(np.all((np.diff(doc_s) > 0) | run_boundary[1:]))
    else:
        sorted_ok = True
    if not sorted_ok:
        # fallback: full posting-level lexsort (order-independent result)
        parent = pc.list_parent_indices(dcol).to_numpy(zero_copy_only=False)
        flat_tf = tcol.flatten().to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat_dl = lcol.flatten().to_numpy(
            zero_copy_only=False).astype(np.int64)
        key = (codes[parent] << np.int64(32)) | parts[parent]
        order = np.lexsort((flat_doc_raw, key))
        key_s = key[order]
        doc_s = flat_doc_raw[order]
        tf_s = flat_tf[order]
        dl_s = flat_dl[order]
        bounds = np.flatnonzero(np.diff(key_s)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [total]))
        run_keys = key_s[starts]
    else:
        run_keys = key_rows[run_row_starts]

    # whole-bucket vectorized encode: one LEB128 pass per column, cut at
    # the run starts into a zero-copy binary array; block-max via
    # maximum.reduceat (bit-identical to the per-run max — IEEE max is
    # order-free)
    deltas = doc_s.astype(np.int64).copy()
    deltas[1:] -= doc_s[:-1]
    deltas[starts] = doc_s[starts]
    d_enc = plib.encode_varints_sliced(deltas, starts)
    t_enc = plib.encode_varints_sliced(tf_s, starts)
    l_enc = plib.encode_varints_sliced(dl_s, starts)
    tf_f = tf_s.astype(np.float64)
    dl_f = dl_s.astype(np.float64)
    contrib = tf_f * (k1 + 1.0) / (tf_f + k1 * (1.0 - b + b * dl_f / avgdl))
    imps = np.maximum.reduceat(contrib, starts)
    terms_o = vocab.take(pa.array(run_keys >> np.int64(32)))
    parts_o = (run_keys & np.int64(0xFFFFFFFF)).astype(np.int32)
    dfs_o = ends - starts
    return pa.table({
        "term": terms_o.cast(pa.string()),
        "part": pa.array(parts_o, type=pa.int32()),
        "df": pa.array(dfs_o, type=pa.int64()),
        "doc_ids_enc": d_enc,
        "tfs_enc": t_enc,
        "dls_enc": l_enc,
        "max_impact": pa.array(imps, type=pa.float64()),
    })
