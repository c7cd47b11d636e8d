"""Trigram term index — the scale path for infix wildcards and regex.

``LocalSearcher.match_contains`` / ``match_regex`` sweep the in-memory
vocabulary per query (one vectorized ``match_substring`` /
``match_substring_regex`` pass). Fine while vocab ≪ corpus; at extreme
vocabularies (10⁸⁺ terms) the per-query O(vocab) sweep is the wrong
shape. This module persists the classic character-trigram inverted
dictionary (PostgreSQL's pg_trgm / Google Code Search's trigram index,
Cox 2012, "Regular Expression Matching with a Trigram Index") so an
infix or regex query becomes O(#grams) HASHED PROBES with Parquet
row-group pruning, independent of vocabulary size:

- **Build** (once, distributed): for every vocabulary term, emit every
  contiguous 3-codepoint substring as a ``(gram, term)`` row,
  hash-partitioned by ``md5(gram) % num_gbuckets`` and gram-sorted
  within each file. One shared-nothing Ray task per SOURCE term bucket
  (the postings layout already guarantees each term lives in exactly
  one bucket — same argument as ``build_fuzzy_index``), then one merge
  task per gram bucket collapsing spill files into a single sorted
  file with small row groups (the consolidation that makes probes
  footer-bounded; measured in ``fuzzy.py``).

- **Infix query** (len ≥ 3): every trigram of the query must appear in
  any term containing it, so candidates = terms present under ALL of
  the query's grams (a count-distinct-grams intersection over the
  probed rows), verified with one exact ``match_substring`` pass over
  the (tiny) candidate list, then postings union through the same
  bucket+term-pushdown read the boolean path uses. Queries shorter
  than 3 codepoints have no trigram and fall back to the sweep.

- **Regex query**: a REQUIRED literal factor — a maximal literal run
  that every match must contain — is extracted from the pattern's
  parse tree (concatenation level only; factors under ``|``, ``?``,
  ``*``, ``{0,n}`` are not required). The longest factor of length ≥ 3
  prunes candidates through the infix path above; the exact
  ``match_substring_regex`` verify then runs over candidates instead
  of the whole vocabulary. Patterns with no such factor (pure classes,
  alternations, case-insensitive flags) fall back to the full sweep —
  acceleration is an optimization, never a semantics change
  (pytest-pinned equal to the sweep either way).

Parity with the sweeps is pytest-pinned (tests/test_trigram_index.py);
the driver gate runs ``infix_match_trigram`` / ``regex_match_trigram``
against the same DuckDB ``LIKE '%q%'`` / ``regexp_matches`` oracles as
the sweep surfaces — the scale path itself sits on the value-exact
gate (reference parity anchor: the wildcard member of
/root/reference/ts_type_filter/inverted_index.py's match surface).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .build import BuiltIndex
from .fuzzy import _variant_buckets, _vocab_fingerprint
from .query import postings_union

__all__ = ["term_trigrams", "build_trigram_index",
           "trigram_candidate_terms", "match_contains_indexed",
           "required_literal_factor", "match_regex_indexed"]


def term_trigrams(term: str) -> list[str]:
    """All DISTINCT contiguous 3-codepoint substrings of *term*, sorted.
    Terms shorter than 3 codepoints have none — they can never contain
    a length-≥3 infix, so their absence from the index is exact, not an
    approximation."""
    return sorted({term[i:i + 3] for i in range(len(term) - 2)})


def _trgm_dir(root: str) -> str:
    return os.path.join(root, "trigram")


def _load_meta(root: str) -> dict | None:
    path = os.path.join(_trgm_dir(root), "_meta.json")
    if not os.path.exists(path) or not os.path.exists(
            os.path.join(_trgm_dir(root), "_SUCCESS")):
        return None
    with open(path) as f:
        return json.load(f)


def _emit_one_bucket(postings_dir: str, bucket: int, num_gbuckets: int,
                     out_dir: str) -> int:
    """Emit one source term bucket's (gram, term) rows into
    ``gbucket=*/src=<bucket>.parquet`` files (gram-sorted). Source
    buckets partition the vocabulary, so filenames never collide and a
    re-run per bucket is idempotent (full overwrite of its own files)."""
    dset = pads.dataset(postings_dir, partitioning="hive")
    tbl = dset.to_table(filter=pc.field("bucket") == bucket,
                        columns=["term"])
    terms = pc.unique(tbl["term"]).to_pylist()
    grams: list[str] = []
    owners: list[str] = []
    for t in terms:
        for g in term_trigrams(t):
            grams.append(g)
            owners.append(t)
    if not grams:
        return 0
    gb = _variant_buckets(grams, num_gbuckets)
    out = pa.table({
        "gram": pa.array(grams, type=pa.string()),
        "term": pa.array(owners, type=pa.string()),
    })
    order = pc.sort_indices(out["gram"])
    out = out.take(order)
    gb = gb[order.to_numpy(zero_copy_only=False)]
    for b in np.unique(gb).tolist():
        sub = out.filter(pa.array(gb == b))
        d = os.path.join(out_dir, f"gbucket={int(b)}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(sub, os.path.join(d, f"src={bucket}.parquet"),
                       row_group_size=4096)
    return len(grams)


def _merge_one_gbucket(out_dir: str, gb: int) -> int:
    """One gbucket's consolidation — the shared retry-idempotent
    merge (``fuzzy.merge_bucket_spills``): full-row dedup is
    load-bearing here, the gram intersection counts rows per term."""
    from .fuzzy import merge_bucket_spills
    return merge_bucket_spills(os.path.join(out_dir, f"gbucket={gb}"),
                               "gram")


def build_trigram_index(root: str,
                        num_gbuckets: int | None = None) -> str:
    """Build (or reuse) the trigram dictionary under ``<root>/trigram``:
    an emit wave (one shared-nothing task per source term bucket) then
    a merge wave (one task per gram bucket). Idempotent: an existing
    artifact over the SAME vocabulary is reused; stale ones (the index
    was extended/compacted since) are rebuilt."""
    import ray

    idx = BuiltIndex.load(root)
    meta = _load_meta(root)
    if meta is not None and meta.get("vocab_fp") == _vocab_fingerprint(idx):
        return _trgm_dir(root)
    out_dir = _trgm_dir(root)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    ngb = num_gbuckets or idx.stats.num_term_buckets
    task = ray.remote(_emit_one_bucket)
    refs = [task.remote(idx.postings_dir, b, ngb, out_dir)
            for b in range(idx.stats.num_term_buckets)]
    ray.get(refs)
    merge = ray.remote(_merge_one_gbucket)
    ray.get([merge.remote(out_dir, gb) for gb in range(ngb)])
    with open(os.path.join(out_dir, "_meta.json"), "w") as f:
        json.dump({"num_gbuckets": ngb,
                   "vocab_fp": _vocab_fingerprint(idx)}, f)
    open(os.path.join(out_dir, "_SUCCESS"), "w").close()
    return out_dir


def _probe_grams(root: str, grams: list[str], meta: dict) -> pa.Table:
    """(gram, term) rows for *grams* from the persisted dictionary:
    hashed gbucket probes with manual row-group pruning over the
    gram-sorted merged files (pyarrow's dataset filter does not prune
    row groups for string ``isin`` — see ``fuzzy_candidate_terms``)."""
    gset = pa.array(grams, type=pa.string())
    gbs = sorted(set(_variant_buckets(grams, meta["num_gbuckets"]).tolist()))
    chunks = []
    tdir = _trgm_dir(root)
    for gb in gbs:
        d = os.path.join(tdir, f"gbucket={gb}")
        if not os.path.isdir(d):
            continue
        for fname in sorted(os.listdir(d)):
            if not fname.endswith(".parquet") or fname.startswith(
                    (".", "_")):
                continue
            pf = pq.ParquetFile(os.path.join(d, fname))
            md = pf.metadata
            ci = pf.schema_arrow.get_field_index("gram")
            rgs = []
            for i in range(md.num_row_groups):
                st = md.row_group(i).column(ci).statistics
                if st is None or st.min is None or st.max is None or \
                        any(st.min <= g <= st.max for g in grams):
                    rgs.append(i)
            if not rgs:
                continue
            t = pf.read_row_groups(rgs, columns=["gram", "term"])
            chunks.append(t.filter(pc.is_in(t["gram"], value_set=gset)))
    if not chunks:
        return pa.table({"gram": pa.array([], type=pa.string()),
                         "term": pa.array([], type=pa.string())})
    return pa.concat_tables(chunks)


def trigram_candidate_terms(root: str, infix: str) -> list[str]:
    """Vocabulary terms containing *infix* (lowercased, len ≥ 3), from
    the persisted trigram dictionary: probe the query's grams,
    intersect (terms carrying ALL grams), verify exactly with one
    ``match_substring`` pass over the candidates. Sorted ascending."""
    meta = _load_meta(root)
    if meta is None:
        raise FileNotFoundError(
            f"no trigram index under {root!r} — run build_trigram_index "
            "first")
    if meta.get("vocab_fp") != _vocab_fingerprint(BuiltIndex.load(root)):
        raise ValueError(
            f"trigram index under {root!r} is STALE (the index was "
            "extended/compacted since it was built) — re-run "
            "build_trigram_index")
    infix = infix.lower()
    if len(infix) < 3:
        raise ValueError(
            "trigram acceleration needs len(infix) >= 3 — use the "
            "LocalSearcher.match_contains vocabulary sweep for shorter "
            "infixes")
    grams = term_trigrams(infix)
    tbl = _probe_grams(root, grams, meta)
    if tbl.num_rows == 0:
        return []
    # terms carrying ALL the query's distinct grams: the probe returns
    # distinct (gram, term) rows (the build emits each pair once), so a
    # per-term row count equals its distinct-gram count
    counts = pa.TableGroupBy(tbl, "term").aggregate([("gram", "count")])
    mask = pc.equal(counts["gram_count"], len(grams))
    cand = counts.filter(mask)["term"]
    if len(cand) == 0:
        return []
    if isinstance(cand, pa.ChunkedArray):
        cand = cand.combine_chunks()
    keep = pc.match_substring(cand, pattern=infix)
    return sorted(cand.filter(keep).to_pylist())


def match_contains_indexed(index: BuiltIndex, infix: str) -> np.ndarray:
    """'*infix*' wildcard match answered entirely from persisted
    artifacts: trigram probes → verified candidate terms → bucket+term
    pushdown postings read → ascending unique doc_ids. Result ≡
    ``LocalSearcher.match_contains`` for len ≥ 3 (pytest-pinned)."""
    if not infix:
        return np.empty(0, dtype=np.int64)
    return postings_union(
        index, trigram_candidate_terms(index.root, infix))


# ---- regex literal-factor extraction ---------------------------------

def required_literal_factor(pattern: str) -> str | None:
    """Longest literal run every match of *pattern* must contain, from
    the sre parse tree's top-level concatenation — Cox's required-factor
    analysis restricted to the sound, simple core: only LITERAL nodes
    and min-count-≥1 repeats of a single literal contribute; branches,
    optionals, classes and anchors BREAK a run (they are not required
    verbatim). Returns None when no factor reaches 3 codepoints, the
    pattern fails to parse, or case-insensitive matching is requested
    (the dictionary stores lowercase grams; a lowercase factor is only
    required of case-SENSITIVE matches)."""
    import re
    try:
        from re import _parser as sre_parse  # 3.11+ home of sre_parse
    except ImportError:                      # pragma: no cover
        import sre_parse

    try:
        parsed = sre_parse.parse(pattern)
    except Exception:
        return None
    if parsed.state.flags & re.IGNORECASE:
        return None
    best = ""
    run: list[str] = []

    def flush():
        nonlocal best
        if len("".join(run)) > len(best):
            best = "".join(run)
        run.clear()

    for op, arg in parsed:
        opname = str(op)
        if opname == "LITERAL":
            run.append(chr(arg))
        elif opname in ("MAX_REPEAT", "MIN_REPEAT"):
            lo, hi, body = arg
            if (lo >= 1 and len(body) == 1
                    and str(body[0][0]) == "LITERAL"):
                c = chr(body[0][1])
                if hi == lo:
                    # exact count: contiguous with both neighbors
                    run.append(c * lo)
                else:
                    # variable count (x+, x{2,5}): prefix+c*lo is a
                    # required factor and c*lo+suffix is a required
                    # factor, but NOT joined — 'foo+bar' requires 'foo'
                    # and 'obar', never 'foobar' ('foooobar' matches)
                    run.append(c * lo)
                    flush()
                    run.append(c * lo)
            else:
                flush()
        elif opname == "AT":
            # anchors (^, $, \b) don't contribute text but don't
            # invalidate the characters around them either — they end
            # the current run conservatively
            flush()
        else:
            flush()
    flush()
    if len(best) >= 3 and best == best.lower():
        return best
    return None


_SWEEP_SEARCHERS: dict[str, object] = {}


def _sweep_searcher(index: BuiltIndex):
    """Per-process cached LocalSearcher for the factor-free regex
    fallback, built with ``warm_top_terms=0``: the vocabulary sweep
    never scores documents, so eagerly decoding the hottest postings
    (~100 MB on the bench index) per query was pure waste. The stemmer
    never touches the regex path (patterns sweep the stored vocabulary
    directly), so one default-constructed searcher answers identically
    for stemmed and nostem indexes."""
    key = (index.root, index.stats.num_documents,
           index.stats.num_postings,
           getattr(index.stats, "num_segments", 1))
    s = _SWEEP_SEARCHERS.get(key)
    if s is None:
        _SWEEP_SEARCHERS.clear()  # at most one live searcher per root
        from .query import LocalSearcher
        s = _SWEEP_SEARCHERS[key] = LocalSearcher(index,
                                                  warm_top_terms=0)
    return s


def match_regex_indexed(index: BuiltIndex, pattern: str) -> np.ndarray:
    """Regex vocabulary match answered from persisted artifacts when the
    pattern has a required literal factor of length ≥ 3: trigram-prune
    to terms containing the factor, verify candidates with the exact
    RE2 ``match_substring_regex``, union postings. Patterns without
    such a factor fall back to the full vocabulary sweep (semantics
    identical either way — pytest-pinned vs ``match_regex``)."""
    if not pattern:
        return np.empty(0, dtype=np.int64)
    factor = required_literal_factor(pattern)
    if factor is None:
        return _sweep_searcher(index).match_regex(pattern)
    cand = trigram_candidate_terms(index.root, factor)
    if not cand:
        return np.empty(0, dtype=np.int64)
    arr = pa.array(cand, type=pa.string())
    keep = pc.match_substring_regex(arr, pattern=pattern)
    terms = arr.filter(keep).to_pylist()
    return postings_union(index, terms)
