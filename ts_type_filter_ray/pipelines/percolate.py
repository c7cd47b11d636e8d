"""Percolation: reverse search — stored queries matched against a
streaming corpus, with NO index on either side.

A forward search builds an index over documents and evaluates ad-hoc
queries; a percolator stores the QUERIES and classifies each incoming
document by which stored queries match it (Lucene/Elasticsearch's
percolate query; the reference engine has the forward direction only —
``/root/reference/ts_type_filter/inverted_index.py`` — this is its
streaming inverse). It is the rule-based tagging/routing primitive a
training-data pipeline runs over 100 TB: "label every doc matching
``lang:en AND (toxic* OR "graphic violence")``" is one corpus pass, not
an index build plus one search per rule.

Ray-Data-first shape: queries are compiled ONCE on the driver (parse →
AST → per-query guard terms), shipped to each actor via the map_batches
constructor (the compiled set is tiny — bytes per rule), and the corpus
streams through a ``map_batches`` actor pool. Per batch the evaluation
is fully vectorized: one Arrow lower+split, one dictionary-encode,
leaves become boolean vectors over the batch's docs (term presence via
``np.isin`` on token codes; phrase/proximity via positional arithmetic
on the flat token stream; vocab-shaped leaves — prefix/suffix/contains/
fuzzy — run against the batch's UNIQUE tokens only), and AND/OR/NOT
fold with numpy boolean ops. Identical AST subtrees share results
through a per-batch memo (the dataclass nodes are frozen → hashable),
so overlapping rules pay once.

Scale properties:
- one streaming pass over the corpus, no shuffle, no materialization;
  output is (query_id, doc_id) pairs, linear in matches;
- per-query GUARD terms (a set of terms of which every matching doc
  must contain ≥1 — derivable for any subtree whose matches all share
  a required term) skip whole queries on batches whose vocabulary
  lacks every guard term, the batch-level analog of Lucene's
  term-extraction query index; with thousands of stored rules, hot
  batches evaluate only the rules their vocabulary can satisfy;
- vocab-shaped leaves cost O(unique tokens per batch), not O(tokens).

Semantics match :func:`ts_type_filter_ray.pipelines.querylang.evaluate`
over an index of the same corpus (same grammar, same lowercase-
whitespace[-stemmed] token model), with two deliberate differences:
- pure negation (``NOT x``) is ALLOWED here: each document under test
  is its own universe, so "doesn't contain x" is well-defined per doc
  — exactly why Lucene's percolator accepts queries its searcher
  rejects;
- ``name:value`` / ``name:[lo TO hi]`` leaves read the document's OWN
  columns (the metadata travels with the row) instead of a metadata/
  numeric index: ``lang:en`` tests ``batch["lang"]``, case-insensitive;
  ranges test the numeric column with Lucene's inclusive/exclusive
  bracket semantics. Referenced columns are part of the percolator's
  input contract; a missing column is a loud ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.tokenizer import (encode_strings, split_whitespace,
                                stem_dictionary)
from .query import _lev_within
from .querylang import (And, Contains, Field, FieldPrefix, Fuzzy, Not, Or,
                        Phrase, Prefix, Proximity, Range, Suffix, Term,
                        parse_query)

__all__ = ["compile_rules", "percolate", "PercolateStage", "CompiledRule"]


@dataclass(frozen=True)
class CompiledRule:
    """One stored query: id, parsed AST, and its guard-term set.

    ``guards`` is a frozenset of (stemmed) terms such that every
    matching document contains at least one of them, or ``None`` when
    no such set is derivable (the rule then runs on every batch)."""
    rule_id: str
    ast: object
    guards: frozenset | None


def _guard_terms(node, stem) -> frozenset | None:
    """A set G of terms with "every match contains ≥1 of G", or None.

    Term → its stem. Phrase/Proximity → their first word (all words are
    required; one suffices for the ≥1 contract). AND → any child's
    guard (each child must match — take the first derivable one).
    OR → the union over children (every branch must be coverable, else
    None). NOT / vocab- and metadata-shaped leaves → None: their
    matches need not contain any fixed term."""
    if isinstance(node, Term):
        return frozenset((stem(node.text.lower()),))
    if isinstance(node, Phrase):
        return frozenset((stem(node.text.lower().split()[0]),))
    if isinstance(node, Proximity):
        return frozenset((stem(node.text.lower().split()[0]),))
    if isinstance(node, And):
        for c in node.children:
            g = _guard_terms(c, stem)
            if g is not None:
                return g
        return None
    if isinstance(node, Or):
        out = set()
        for c in node.children:
            g = _guard_terms(c, stem)
            if g is None:
                return None
            out |= g
        return frozenset(out)
    return None


def _referenced_columns(node) -> set:
    """Metadata/numeric column names the AST reads from the batch."""
    if isinstance(node, (Field, FieldPrefix, Range)):
        return {node.name}
    if isinstance(node, (And, Or)):
        out = set()
        for c in node.children:
            out |= _referenced_columns(c)
        return out
    if isinstance(node, Not):
        return _referenced_columns(node.child)
    return set()


def compile_rules(rules, stemmer=None) -> list[CompiledRule]:
    """Parse ``rules`` — an iterable of (rule_id, expression) or a dict —
    into :class:`CompiledRule`\\ s (raises ``QuerySyntaxError`` on the
    driver, before any Ray work is scheduled)."""
    items = rules.items() if isinstance(rules, dict) else rules
    stem = stemmer or (lambda t: t)
    out = []
    seen: set[str] = set()
    for rid, expr in items:
        rid = str(rid)
        if rid in seen:
            raise ValueError(
                f"duplicate rule_id {rid!r} — match counts and pairs "
                "would silently conflate the rules")
        seen.add(rid)
        ast = parse_query(expr)
        out.append(CompiledRule(rid, ast, _guard_terms(ast, stem)))
    return out


class PercolateStage:
    """Actor-pool ``map_batches`` stage: corpus batch → (query_id,
    doc_id) match pairs. Compiled rules arrive via the constructor
    (once per actor); each ``__call__`` is one vectorized pass."""

    def __init__(self, rules: list[CompiledRule], *, stemmer=None,
                 content_col: str = "content", id_col: str = "doc_id"):
        self.rules = rules
        self.stemmer = stemmer
        self.content_col = content_col
        self.id_col = id_col

    # -- per-batch token model -------------------------------------------

    def _tokenize(self, batch: pa.Table):
        """→ (codes, par, pos, vocab_arr, vmap): flat token stream as
        dictionary codes, the row index and 0-based position of each
        token, the (stemmed) unique vocabulary as an Arrow array, and a
        term → code dict over it."""
        n_docs = batch.num_rows
        flat, par = split_whitespace(
            batch[self.content_col].combine_chunks(), lower=True)
        if len(flat) == 0:
            empty = pa.array([], type=pa.string())
            return (np.empty(0, np.int64), par, np.empty(0, np.int64),
                    empty, {})
        codes, vocab_arr = encode_strings(flat)
        if self.stemmer is not None:
            codes, vocab_arr = stem_dictionary(
                codes, vocab_arr.to_numpy(zero_copy_only=False), self.stemmer)
        n_tok = np.bincount(par, minlength=n_docs)
        starts = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
        pos = np.arange(len(par), dtype=np.int64) - starts[par]
        vmap = {t: i for i, t in enumerate(vocab_arr.to_pylist())}
        return codes, par, pos, vocab_arr, vmap

    # -- leaf kernels -----------------------------------------------------

    def _docs_with_codes(self, ctx, mcodes) -> np.ndarray:
        out = np.zeros(ctx["n"], dtype=bool)
        if len(mcodes):
            m = np.isin(ctx["codes"], mcodes)
            out[ctx["par"][m]] = True
        return out

    def _stem(self, token: str) -> str:
        return self.stemmer(token) if self.stemmer is not None else token

    def _vocab_codes(self, ctx, kind: str, text: str, max_dist: int = 0):
        """Codes of the batch-vocabulary terms matching a vocab-shaped
        leaf — O(unique tokens), mirroring the indexed path's
        vocabulary sweep (``LocalSearcher._vocab_match_docs``)."""
        vocab = ctx["vocab_arr"]
        if kind == "prefix":
            mask = pc.starts_with(vocab, pattern=text)
        elif kind == "suffix":
            mask = pc.ends_with(vocab, pattern=text)
        elif kind == "contains":
            mask = pc.match_substring(vocab, pattern=text)
        else:  # fuzzy: length-band prune, then banded DP per candidate
            lens = pc.utf8_length(vocab).to_numpy(zero_copy_only=False)
            band = np.flatnonzero(np.abs(lens - len(text)) <= max_dist)
            hits = [int(i) for i in band
                    if _lev_within(text, vocab[int(i)].as_py(),
                                   max_dist) is not None]
            return np.asarray(hits, dtype=np.int64)
        return np.flatnonzero(mask.to_numpy(zero_copy_only=False))

    def _column(self, ctx, name: str) -> pa.ChunkedArray:
        batch = ctx["batch"]
        if name not in batch.column_names:
            raise ValueError(
                f"percolation rule references column {name!r} which the "
                f"corpus batch does not carry (have "
                f"{batch.column_names}) — metadata/range leaves read the "
                "document's own columns")
        return batch[name]

    def _phrase_docs(self, ctx, words: list[str]) -> np.ndarray:
        vmap = ctx["vmap"]
        cs = [vmap.get(w) for w in words]
        if any(c is None for c in cs):
            return np.zeros(ctx["n"], dtype=bool)
        codes, par = ctx["codes"], ctx["par"]
        idx = np.flatnonzero(codes == cs[0])
        for j, cj in enumerate(cs[1:], 1):
            if idx.size == 0:
                break
            idx = idx[idx + j < codes.size]
            idx = idx[(codes[idx + j] == cj) & (par[idx + j] == par[idx])]
        out = np.zeros(ctx["n"], dtype=bool)
        out[par[idx]] = True
        return out

    def _proximity_docs(self, ctx, a: str, b: str, w: int) -> np.ndarray:
        vmap = ctx["vmap"]
        ca, cb = vmap.get(a), vmap.get(b)
        out = np.zeros(ctx["n"], dtype=bool)
        if ca is None or cb is None:
            return out
        codes, par, pos = ctx["codes"], ctx["par"], ctx["pos"]
        ai = np.flatnonzero(codes == ca)
        bi = ai if ca == cb else np.flatnonzero(codes == cb)
        if ai.size == 0 or bi.size == 0:
            return out
        # composite (doc, pos) keys; flat order is already ascending in
        # (par, pos), so both key arrays are sorted. The window clamps
        # to [0, stride) within the doc, so a ±w probe can never cross
        # a document boundary.
        stride = int(pos.max()) + 1 if pos.size else 1
        akey_doc = par[ai] * stride
        bkeys = par[bi] * stride + pos[bi]
        lo = np.searchsorted(bkeys, akey_doc + np.maximum(pos[ai] - w, 0),
                             side="left")
        hi = np.searchsorted(
            bkeys, akey_doc + np.minimum(pos[ai] + w, stride - 1),
            side="right")
        need = 2 if ca == cb else 1  # same-term: another DISTINCT position
        hit = (hi - lo) >= need
        out[par[ai[hit]]] = True
        return out

    # -- AST fold ----------------------------------------------------------

    def _eval(self, node, ctx) -> np.ndarray:
        memo = ctx["memo"]
        got = memo.get(node)
        if got is not None:
            return got
        out = self._eval_uncached(node, ctx)
        memo[node] = out
        return out

    def _eval_uncached(self, node, ctx) -> np.ndarray:
        n = ctx["n"]
        if isinstance(node, Term):
            c = ctx["vmap"].get(self._stem(node.text.lower()))
            return self._docs_with_codes(
                ctx, np.asarray([] if c is None else [c], dtype=np.int64))
        if isinstance(node, Prefix):
            return self._docs_with_codes(
                ctx, self._vocab_codes(ctx, "prefix", node.text.lower()))
        if isinstance(node, Suffix):
            return self._docs_with_codes(
                ctx, self._vocab_codes(ctx, "suffix", node.text.lower()))
        if isinstance(node, Contains):
            return self._docs_with_codes(
                ctx, self._vocab_codes(ctx, "contains", node.text.lower()))
        if isinstance(node, Fuzzy):
            return self._docs_with_codes(
                ctx, self._vocab_codes(ctx, "fuzzy", node.text.lower(),
                                       node.max_dist))
        if isinstance(node, Phrase):
            words = [self._stem(w) for w in node.text.lower().split()]
            return self._phrase_docs(ctx, words)
        if isinstance(node, Proximity):
            a, b = (self._stem(w) for w in node.text.lower().split())
            return self._proximity_docs(ctx, a, b, node.slop)
        if isinstance(node, Field):
            col = pc.utf8_lower(self._column(ctx, node.name).cast(
                pa.string()))
            m = pc.equal(col, node.value.lower())
            return pc.fill_null(m, False).to_numpy(zero_copy_only=False)
        if isinstance(node, FieldPrefix):
            col = pc.utf8_lower(self._column(ctx, node.name).cast(
                pa.string()))
            m = pc.starts_with(col, pattern=node.value.lower())
            return pc.fill_null(m, False).to_numpy(zero_copy_only=False)
        if isinstance(node, Range):
            vals = self._column(ctx, node.name).cast(pa.float64())
            v = vals.to_numpy(zero_copy_only=False)
            ok = ~np.isnan(v)
            if node.lo is not None:
                ok &= (v >= node.lo) if node.lo_inc else (v > node.lo)
            if node.hi is not None:
                ok &= (v <= node.hi) if node.hi_inc else (v < node.hi)
            return ok
        if isinstance(node, Not):
            # pure negation is fine here: the doc under test is its own
            # universe (the percolator divergence from evaluate())
            return ~self._eval(node.child, ctx)
        if isinstance(node, And):
            out = np.ones(n, dtype=bool)
            for c in node.children:
                if not out.any():
                    break
                out &= self._eval(c, ctx)
            return out
        if isinstance(node, Or):
            out = np.zeros(n, dtype=bool)
            for c in node.children:
                if out.all():
                    break
                out |= self._eval(c, ctx)
            return out
        raise TypeError(f"unknown node {node!r}")

    # -- the batch transform ------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        codes, par, pos, vocab_arr, vmap = self._tokenize(batch)
        ctx = {"n": batch.num_rows, "codes": codes, "par": par, "pos": pos,
               "vocab_arr": vocab_arr, "vmap": vmap, "batch": batch,
               "memo": {}}
        doc_ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        out_q: list[str] = []
        out_d: list[np.ndarray] = []
        for rule in self.rules:
            if rule.guards is not None and vmap.keys().isdisjoint(
                    rule.guards):
                continue  # no doc in this batch can contain a guard term
            mask = self._eval(rule.ast, ctx)
            if mask.any():
                d = doc_ids[mask]
                out_q.extend([rule.rule_id] * d.size)
                out_d.append(d)
        matched = (np.concatenate(out_d) if out_d
                   else np.empty(0, dtype=np.int64))
        return pa.table({
            "query_id": pa.array(out_q, type=pa.string()),
            "doc_id": pa.array(matched, type=pa.int64()),
        })


def percolate(corpus, rules, *, stemmer=None, content_col: str = "content",
              id_col: str = "doc_id", batch_size: int = 1024,
              concurrency=(1, 8)):
    """Match every stored rule against every corpus document in one
    streaming pass → Dataset of (query_id, doc_id) pairs.

    *rules* is a dict or iterable of ``(rule_id, expression)`` in the
    :mod:`querylang` grammar; they are compiled on the driver (syntax
    errors surface before scheduling) and shipped once per actor.
    Columns not referenced by any rule are pruned before the pass."""
    compiled = compile_rules(rules, stemmer=stemmer)
    needed = {id_col, content_col}
    for r in compiled:
        needed |= _referenced_columns(r.ast)
    have = set(corpus.schema().names)
    missing = needed - have
    if missing:
        raise ValueError(
            f"percolation rules reference columns {sorted(missing)} "
            f"missing from the corpus (have {sorted(have)})")
    if have - needed:
        corpus = corpus.select_columns(sorted(needed))
    kwargs = {"rules": compiled, "stemmer": stemmer,
              "content_col": content_col, "id_col": id_col}
    return corpus.map_batches(
        PercolateStage, fn_constructor_kwargs=kwargs,
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, zero_copy_batch=True)
