"""Benchmark of the ts_type_filter_ray engine: query and ingest.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (both listed in BENCHMARK.json). Earlier lines of standard output
show every metric by name with its unit, the sample counts and the host;
the last line is one JSON object. Inputs come from ``--seed`` alone. All
files go to ``.bench_tmp/`` in the checkout, which is removed at start
and at end; a traced run leaves its spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

import probes
from inputs import BM25_CLASSES
from spans import Tracer
from workloads import (BASE_DOCS, INGEST_BATCH, INGEST_STEPS, LAYERS, LOOPS,
                       SETUPS, WARM_DOCS, Env, Record, Setup, dir_bytes,
                       freeze_heap, make_oracle, median, op_sequence, tail)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "index_bytes_per_corpus_byte": "ratio",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

PER_LAYER = {
    "sources.read_s": "s",
    "stages.tokenizer.tokenize_docs_per_s": "docs/s",
    "text.porter2.stems_per_s": "1/s",
    "pipelines.build.tokenize_spill_s": "s",
    "pipelines.build.docs_table_s": "s",
    "pipelines.build.merge_s": "s",
    "pipelines.build.ray_overhead_s": "s",
    "pipelines.build.postings_bytes": "bytes",
    "pipelines.build.docs_bytes": "bytes",
    "pipelines.build.bucket_bytes_max_over_median": "ratio",
    "pipelines.build.extend_s": "s",
    "pipelines.build.extend_merge_s": "s",
    "pipelines.build.delete_s": "s",
    "pipelines.build.compact_s": "s",
    "pipelines.build.compactions": "count",
    "pipelines.build.bytes_rewritten_per_ingested_byte": "ratio",
    "state.postings.decode_mb_per_s": "MB/s",
    "pipelines.query.load_s": "s",
    "pipelines.query.reopen_s": "s",
    "pipelines.query.stems_us": "us",
    **{f"pipelines.query.bm25_p50_ms.{c}": "ms" for c in BM25_CLASSES},
    "pipelines.query.cold_bm25_ms": "ms",
    "pipelines.querylang.evaluate_p50_ms": "ms",
    "pipelines.serve.setup_s": "s",
    "pipelines.serve.bm25_p50_ms": "ms",
    "pipelines.serve.bm25_p99_ms": "ms",
    "pipelines.serve.fanout_overhead_ms": "ms",
    "pipelines.serve.term_routed_bm25_p50_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_pct": "%",
}

PHASES = ("tokenize_spill", "docs_table", "merge")


class Ctx:
    """What one run generated, set up and checks against."""

    def __init__(self, env: Env, workload: str, seed: int):
        import inputs
        self.env, self.workload, self.seed = env, workload, seed
        self.n_docs = BASE_DOCS[workload]
        self.base = inputs.make_corpus(seed, self.n_docs, "code")
        self.corpus_dir = env.path("corpus")
        self.corpus_bytes = self.base.write(self.corpus_dir)
        inputs.make_corpus(seed, WARM_DOCS, "code", tag="w").write(
            env.path("warm_corpus"), num_files=2)
        self.mix = inputs.make_query_mix(seed, self.base)
        self.ops = op_sequence(self.mix)
        self.setups: list[Setup] = []
        self.setup = self.oracle = self.index_root = None


def run(env: Env, workload: str, seed: int, seconds: float, traced: bool):
    """Returns (metrics, records, note lines)."""
    ctx = Ctx(env, workload, seed)
    tracer = env.tracer = Tracer(traced)
    vals: dict = {}
    rec = Record()
    loop = None
    # measured in rounds between the set-ups, so a slow spell of a shared
    # host lands in one round rather than the whole run
    for i in range(SETUPS):
        if i:
            env.ray_stop()
        ctx.setup = Setup(env, workload, ctx.corpus_dir, ctx.ops)
        ctx.setups.append(ctx.setup)
        ctx.index_root = ctx.setup.idx.root
        if traced and i == 0:
            probes.before_oracle(ctx, vals)
        if ctx.oracle is None or workload == "ingest":
            # an ingest round grows the oracle with its index
            ctx.oracle = make_oracle(dict(enumerate(ctx.base.contents)))
            freeze_heap()
        if loop is None or workload == "ingest":
            loop = LOOPS[workload](env, ctx)
        loop.run(rec, seconds / SETUPS)
    if not traced:
        return end_to_end(ctx, rec), [rec], notes(ctx, rec)

    probe = Record()
    probes.after_loop(ctx, loop, probe, vals)
    out = os.path.join(env.root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, f"spans-{workload}-{seed}.json"))
    return (per_layer(ctx, rec, probe, tracer, vals), [rec, probe],
            [f"{len(tracer.spans)} spans written"])


def _ms(xs) -> float:
    return median(xs) * 1e3


def _div(a: float, b: float) -> float:
    """*a* / *b*, or 0 when a failed run left nothing to divide by."""
    return a / b if b else 0.0


def end_to_end(ctx: Ctx, rec: Record) -> dict:
    lat = rec.lat
    if ctx.workload == "query":
        docs_per_s = _div(ctx.n_docs, median(lat["build"]))
    else:
        # a cycle whose steps take the median step time and whose
        # compaction takes the median compaction time
        docs_per_s = _div(INGEST_STEPS * INGEST_BATCH,
                          INGEST_STEPS * median(lat["step"])
                          + median(lat["compact"]))
    # the last round's index holds the corpus and one round's batches
    corpus = ctx.corpus_bytes + rec.vals.get("ingested_bytes", 0) / SETUPS
    bm25 = lat["bm25"]
    return {
        "setup_s": median([s.seconds for s in ctx.setups]),
        "docs_per_s": docs_per_s,
        "index_bytes_per_corpus_byte": dir_bytes(ctx.index_root) / corpus,
        "query_p50_ms": _ms(bm25),
        "query_p99_ms": tail(bm25)[0] * 1e3,
    }


def notes(ctx: Ctx, rec: Record) -> list[str]:
    """Sample counts, the workload-specific metrics under their own names,
    and the ones too noisy on a shared host to hold a bound (closed-loop
    QPS is a mean; match takes about 0.1 ms)."""
    lat, s = rec.lat, ctx.setups
    bm25 = lat["bm25"]
    _, pct = tail(bm25)
    out = [f"setup_s: median of {len(s)} set-ups; Ray start "
           f"{median([x.ray_s for x in s]):.2f} s, warm-up "
           f"{median([x.warm_s for x in s]):.2f} s",
           f"query_p99_ms: p{pct:.2f} of {len(bm25)} BM25 queries",
           f"query_qps {_div(len(bm25), sum(bm25)):.1f} 1/s (one closed-loop "
           f"client)",
           f"match_p50_ms {_ms(lat['match']):.4f} ms "
           f"({len(lat['match'])} match queries)"]
    if ctx.workload == "query":
        serve = lat["serve"]
        p99, pct = tail(serve)
        out += [f"docs_per_s = build_docs_per_s over {len(lat['build'])} "
                f"rebuilds of {ctx.n_docs} docs; the set-up builds, first "
                f"of the corpus in their session: "
                f"{median([ctx.n_docs / x.build_s for x in s]):.1f} docs/s",
                f"serve_p50_ms {_ms(serve):.4f} ms, serve_p99_ms "
                f"{p99 * 1e3:.4f} ms (p{pct:.2f} of {len(serve)} "
                f"SearchService queries)"]
    else:
        cold = lat["cold.bm25"]
        p99, pct = tail(cold)
        out += [f"docs_per_s = ingest_docs_per_s from the medians of "
                f"{len(lat['step'])} steps and "
                f"{len(lat['compact'])} compactions",
                "query_*: the warm passes after each step; first pass "
                f"p50 {_ms(cold):.4f} ms, p{pct:.2f} {p99 * 1e3:.4f} ms "
                f"over {len(cold)} BM25 queries"]
    out.append(f"error_rate {rec.failed / max(1, rec.attempted):.6f} "
               f"({rec.failed} of {rec.attempted} ops)")
    return out


def per_layer(ctx: Ctx, rec: Record, probe: Record, tracer: Tracer,
              vals: dict) -> dict:
    lat = rec.lat
    # the build phases of the builds docs_per_s times: query's rebuilds,
    # else the set-up builds
    if ctx.workload == "query":
        phases = {p: lat["phase." + p] for p in PHASES}
        serve, fanout = lat["serve"], lat["fanout"]
        serve_setup = [s.serve_s for s in ctx.setups]
    else:
        phases = {p: [s.idx.timings[p] for s in ctx.setups] for p in PHASES}
        serve, fanout = probe.lat["serve"], probe.lat["fanout"]
        serve_setup = probe.lat["serve_setup"]
    postings = os.path.join(ctx.index_root, "postings")
    buckets = [dir_bytes(os.path.join(postings, d))
               for d in os.listdir(postings) if d.startswith("bucket=")]
    ingested = rec.vals.get("ingested_bytes", 0)
    out = {
        "sources.read_s": vals["sources.read_s"],
        "stages.tokenizer.tokenize_docs_per_s":
            vals["stages.tokenizer.tokenize_docs_per_s"],
        "text.porter2.stems_per_s": vals["text.porter2.stems_per_s"],
        "pipelines.build.tokenize_spill_s": median(phases["tokenize_spill"]),
        "pipelines.build.docs_table_s": median(phases["docs_table"]),
        "pipelines.build.merge_s": median(phases["merge"]),
        # the part of tokenize+spill that in-process tokenizing (stem
        # cache warmed as the workers' was) does not account for: Ray Data
        # scheduling and the spill write
        "pipelines.build.ray_overhead_s": median(phases["tokenize_spill"])
        - ctx.n_docs / vals["code_tokenize_docs_per_s"],
        "pipelines.build.postings_bytes": dir_bytes(postings),
        "pipelines.build.docs_bytes":
            dir_bytes(os.path.join(ctx.index_root, "docs")),
        "pipelines.build.bucket_bytes_max_over_median":
            max(buckets) / median(buckets),
        "pipelines.build.extend_s": median(lat.get("extend")),
        "pipelines.build.extend_merge_s": median(lat.get("extend_merge")),
        "pipelines.build.delete_s": median(lat.get("delete")),
        "pipelines.build.compact_s": median(lat.get("compact")),
        "pipelines.build.compactions": len(lat.get("compact", [])),
        "pipelines.build.bytes_rewritten_per_ingested_byte":
            rec.vals.get("rewritten_bytes", 0) / ingested if ingested else 0.0,
        "state.postings.decode_mb_per_s":
            vals["state.postings.decode_mb_per_s"],
        "pipelines.query.load_s": median([s.load_s for s in ctx.setups]),
        "pipelines.query.reopen_s": median(lat.get("reopen")),
        "pipelines.query.stems_us": vals["pipelines.query.stems_us"],
        **{f"pipelines.query.bm25_p50_ms.{c}": _ms(lat["bm25." + c])
           for c in BM25_CLASSES},
        "pipelines.query.cold_bm25_ms":
            _ms(lat.get("cold_bm25", []) + probe.lat.get("cold_bm25", [])),
        "pipelines.querylang.evaluate_p50_ms": _ms(lat["bool"]),
        "pipelines.serve.setup_s": median(serve_setup),
        "pipelines.serve.bm25_p50_ms": _ms(serve),
        "pipelines.serve.bm25_p99_ms": tail(serve)[0] * 1e3,
        "pipelines.serve.fanout_overhead_ms": _ms(fanout),
        "pipelines.serve.term_routed_bm25_p50_ms": _ms(probe.lat["routed"]),
    }
    self_s = tracer.self_times()
    out.update({f"{layer}.self_s": self_s.get(layer, 0.0)
                for layer in LAYERS})
    out["trace.overhead_pct"] = vals["trace.overhead_pct"]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(LOOPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "ts_type_filter_ray")):
        print(f"perfbench: no ts_type_filter_ray package in {ROOT}",
              file=sys.stderr)
        return 2
    # this process and every Ray worker import the package from this checkout
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import ray

    env = Env(ROOT)
    shutil.rmtree(env.tmp, ignore_errors=True)
    os.makedirs(env.tmp)
    t0 = time.perf_counter()
    try:
        metrics, records, lines = run(env, args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    finally:
        env.ray_stop()
        shutil.rmtree(env.tmp, ignore_errors=True)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    for r in records:
        if r.first_error:
            print(f"perfbench: {r.first_error}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"wall_s={time.perf_counter() - t0:.1f}")
    print(f"# host nproc={env.nproc} num_cpus={env.nproc} "
          f"ray={ray.__version__} python={platform.python_version()}")
    for name, v in metrics.items():
        print(f"{name:52s} {v:14.4f} {units[name]}")
    for line in lines:
        print(f"# {line}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
