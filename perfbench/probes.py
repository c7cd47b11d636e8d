"""Layer probes of a traced run: each calls one layer's public functions
directly and times it from outside. They cover the layers a workload's
loop does not reach, so every workload reports every per-layer key."""

from __future__ import annotations

import os
import time

import numpy as np

import inputs
from spans import Tracer
from workloads import (DOC_PART_BITS, PROBE_QUERIES, SERVE_ACTORS, TOP_K,
                       Record, median, run_op, run_slice)

TOKENIZE_DOCS = 4_000
STEM_WORDS = 20_000
OVERHEAD_OPS = 300
OVERHEAD_REPEATS = 5


def before_oracle(ctx, vals: dict) -> None:
    """Probes that run before the oracle stems the whole corpus: Porter2
    on fresh words, in-process tokenize and the corpus read. An untimed
    tokenize pass comes first, so this process's stem cache holds what the
    workers' held in the builds ``docs_per_s`` times: ``query`` rebuilds a
    corpus its session has built, ``ingest``'s set-up builds follow the
    warm-up. The high-vocabulary batches of ``ingest`` are timed on their
    first pass, as ingest meets them."""
    from ts_type_filter_ray import read_corpus
    from ts_type_filter_ray.text.porter2 import stem

    tr = ctx.env.tracer
    fresh = list(dict.fromkeys(
        inputs.words(np.random.default_rng([ctx.seed, 99]), STEM_WORDS)))
    with tr.span("text.porter2:stem"):
        t = time.perf_counter()
        for w in fresh:
            stem(w)
        vals["text.porter2.stems_per_s"] = \
            len(fresh) / (time.perf_counter() - t)

    vals["code_tokenize_docs_per_s"] = _tokenize_rate(
        tr, ctx.corpus_dir, warm_dir=ctx.corpus_dir
        if ctx.workload == "query" else ctx.env.path("warm_corpus"))
    if ctx.workload == "ingest":
        # the ingest path tokenizes high-vocabulary batches
        batch = inputs.make_corpus(ctx.seed, TOKENIZE_DOCS, "high", tag="p")
        bdir = ctx.env.path("probe_batch")
        batch.write(bdir, num_files=1)
        vals["stages.tokenizer.tokenize_docs_per_s"] = \
            _tokenize_rate(tr, bdir)
    else:
        vals["stages.tokenizer.tokenize_docs_per_s"] = \
            vals["code_tokenize_docs_per_s"]

    with tr.span("sources:read_corpus"):
        t = time.perf_counter()
        read_corpus(ctx.corpus_dir).materialize()
        vals["sources.read_s"] = time.perf_counter() - t


def _tokenize_rate(tr, corpus_dir: str, warm_dir: str | None = None
                   ) -> float:
    """Docs/s of ``tokenize_task`` in this process on Arrow batches of the
    size ``build_index`` uses, without Ray. With *warm_dir*, an untimed
    pass over that corpus comes first."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ts_type_filter_ray.pipelines.build import DEFAULT_TERM_BUCKETS
    from ts_type_filter_ray.stages.tokenizer import tokenize_task

    def one_pass(path: str) -> tuple[int, float]:
        tbl = pq.read_table(path).slice(0, TOKENIZE_DOCS)
        tbl = tbl.append_column("doc_id", pa.array(np.arange(tbl.num_rows)))
        secs = 0.0
        for off in range(0, tbl.num_rows, 256):
            batch = tbl.slice(off, 256)
            with tr.span("stages.tokenizer:tokenize_task"):
                t = time.perf_counter()
                tokenize_task(batch, doc_part_bits=DOC_PART_BITS,
                              num_term_buckets=DEFAULT_TERM_BUCKETS,
                              emit_meta=True)
                secs += time.perf_counter() - t
        return tbl.num_rows, secs

    if warm_dir:
        one_pass(warm_dir)
    docs, secs = one_pass(corpus_dir)
    return docs / secs


def after_loop(ctx, loop, rec: Record, vals: dict) -> None:
    """Probes on the index the loop left: postings decode, query stemming,
    cold queries, the service (where the loop had none), the term-routed
    service and the cost of tracing itself."""
    import pyarrow.parquet as pq
    from ts_type_filter_ray import BuiltIndex, LocalSearcher, SearchService
    from ts_type_filter_ray.pipelines.query import query_stems
    from ts_type_filter_ray.pipelines.serve import TermRoutedService
    from ts_type_filter_ray.state.postings import (decode_doc_ids_column,
                                                   decode_varints_column)

    root, tr = ctx.index_root, ctx.env.tracer
    nbytes, secs = 0, 0.0
    for d, _, files in os.walk(os.path.join(root, "postings")):
        for f in files:
            if f.endswith(".parquet") and not f.startswith("_"):
                tbl = pq.read_table(os.path.join(d, f), columns=[
                    "doc_ids_enc", "tfs_enc", "dls_enc"])
                cols = [tbl[c].combine_chunks() for c in tbl.column_names]
                with tr.span("state.postings:decode"):
                    t = time.perf_counter()
                    decode_doc_ids_column(cols[0])
                    decode_varints_column(cols[1])
                    decode_varints_column(cols[2])
                    secs += time.perf_counter() - t
                nbytes += sum(c.nbytes for c in cols)
    vals["state.postings.decode_mb_per_s"] = nbytes / 1e6 / secs

    distinct = list(dict.fromkeys(q for _, q in ctx.mix.bm25))
    us = []
    for q in distinct:
        with tr.span("pipelines.query:query_stems"):
            t = time.perf_counter()
            query_stems(q)
            us.append((time.perf_counter() - t) * 1e6)
    vals["pipelines.query.stems_us"] = float(np.median(us))

    env, expect = ctx.env, loop.expect
    bm25_ops = [op for op in ctx.ops if op[0] == "bm25"][:PROBE_QUERIES]
    if ctx.workload == "query":
        # the loop's searcher never reopens: open fresh ones
        for start in range(3):
            with tr.span("pipelines.query:LocalSearcher"):
                searcher = LocalSearcher(BuiltIndex.load(root))
            run_slice(env, rec, bm25_ops, start, 1, searcher, expect)
    else:
        with tr.span("pipelines.serve:SearchService"):
            t = time.perf_counter()
            service = SearchService(root, num_actors=SERVE_ACTORS)
            service.bm25("import", k=TOP_K)
            rec.add("serve_setup", time.perf_counter() - t)
        for op in bm25_ops:
            run_op(env, rec, op, loop.searcher, expect)
            run_op(env, rec, ("serve",) + op[1:], loop.searcher, expect,
                   service)
        del service

    with tr.span("pipelines.serve:TermRoutedService"):
        routed = TermRoutedService(root, num_actors=SERVE_ACTORS)
        routed.bm25("import", k=TOP_K)
    for _, _, q in bm25_ops:
        try:
            with tr.span("pipelines.serve:term_routed_bm25"):
                t = time.perf_counter()
                got = routed.bm25(q, k=TOP_K)
                rec.add("routed", time.perf_counter() - t)
        except Exception:
            rec.error(f"term-routed {q!r}")
            continue
        rec.check([(int(d), float(s)) for d, s in got]
                  == expect.answer("bm25", q), f"term-routed {q!r}")
    del routed

    # tracing overhead: one block of query ops on the same searcher, with
    # spans off and on in turn; its spans go to a throwaway tracer
    block = ctx.ops[:OVERHEAD_OPS]
    walls: dict[bool, list[float]] = {False: [], True: []}
    env.tracer = Tracer(False)
    for _ in range(OVERHEAD_REPEATS):
        for on in (False, True):
            env.tracer.enabled = on
            t = time.perf_counter()
            for op in block:
                run_op(env, rec, op, loop.searcher, expect)
            walls[on].append(time.perf_counter() - t)
    env.tracer = tr
    vals["trace.overhead_pct"] = 100 * (median(walls[True])
                                        / median(walls[False]) - 1)
