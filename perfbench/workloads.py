"""The two workloads: ``query`` and ``ingest``.

Each run sets up ``SETUPS`` times (Ray start, warm-up, index build,
searcher and service load) and reports the median as ``setup_s``. After
each set-up a round of the closed loop, one client thread, runs on that
set-up's index. A ``query`` round rebuilds the corpus, then queries until
its timed queries add up to its share of ``--seconds``. An ``ingest``
round runs one fixed cycle of steps instead, so its work does not depend
on the program's speed. Every operation's answer is compared with
``oracle.index.CorpusOracle``; expected answers are computed outside
every timed section. A traced run records spans in the same loop,
then probes (``probes.py``) every layer the loop does not reach, so each
workload reports the same per-layer keys.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import inputs
from spans import Tracer

# Sizes fit a host where ``nproc`` is 1: a run (its set-ups, the measured
# rounds and the oracles) has to finish in about a minute.
BASE_DOCS = {"query": 10_000, "ingest": 4_000}
WARM_DOCS = 400
INGEST_BATCH = 1_000
# one compaction cycle under maybe_compact's default policy: the base
# segment plus four extends passes its four-segment limit at step 4
INGEST_STEPS = 4
DELETE_FRACTION = 0.01
SETUPS = 2
# 4096 docs per partition: the corpus spans several partitions, as a
# corpus of millions of documents does at the default, so block-max
# pruning and the 2-actor fan-out have partitions to work on
DOC_PART_BITS = 12
SERVE_ACTORS = 2
TOP_K = 10
INGEST_SLICE = 150      # distinct query ops after each ingest step
INGEST_PASSES = 3       # passes over them: the first on cold caches
PROBE_QUERIES = 120     # service queries in the traced probes
LOCAL_SHARE = 0.6       # of a query round: the mix on the local searcher
LAYERS = ("sources", "stages.tokenizer", "text.porter2", "pipelines.build",
          "state.postings", "pipelines.query", "pipelines.querylang",
          "pipelines.serve", "bench")


# -- samples ---------------------------------------------------------------

@dataclass
class Record:
    """Samples, values and the correctness count of one pass."""
    attempted: int = 0
    failed: int = 0
    # name -> [seconds]; a name never sampled reads as no samples
    lat: dict = field(default_factory=lambda: defaultdict(list))
    vals: dict = field(default_factory=dict)    # name -> number
    first_error: str | None = None
    last_bm25: tuple | None = None              # (query, seconds)

    def add(self, name: str, seconds: float) -> None:
        self.lat.setdefault(name, []).append(seconds)

    def count(self, name: str, n: float) -> None:
        self.vals[name] = self.vals.get(name, 0) + n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"wrong answer: {what}"

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"{what}\n{traceback.format_exc()}"


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def tail(xs, pct: float = 99.0) -> tuple[float, float]:
    """Nearest-rank percentile, lowered until at least 10 samples lie
    beyond it. Returns (value, percentile used)."""
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    rank = max(1, min(int(np.ceil(pct / 100 * n)), n - 10))
    return sorted(xs)[rank - 1], 100.0 * rank / n


def dir_bytes(path: str, suffix: str = "") -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path)
               for f in files if f.endswith(suffix))


# -- environment -----------------------------------------------------------

class Env:
    """The run's temp root under the checkout and its Ray session."""

    def __init__(self, root: str):
        self.root = root
        self.tmp = os.path.join(root, ".bench_tmp")
        self.tracer = Tracer(False)
        self.nproc = nproc()
        self.ray_up = False

    def path(self, *parts) -> str:
        return os.path.join(self.tmp, *parts)

    def ray_start(self) -> None:
        import ray
        from ray.data import DataContext
        kw = dict(address="local", num_cpus=self.nproc,
                  include_dashboard=False, logging_level="ERROR",
                  log_to_driver=False, object_store_memory=512 << 20)
        ray_tmp = self.path("ray")
        # Ray's Unix socket paths under the session dir must stay below
        # 108 bytes; a deep checkout keeps Ray's default session root
        if len(ray_tmp) <= 40:
            kw["_temp_dir"] = ray_tmp
        ray.init(**kw)
        self.ray_up = True
        DataContext.get_current().enable_progress_bars = False

    def ray_stop(self) -> None:
        """Shut Ray down and wait until every process it started has
        ended."""
        import ray
        if not self.ray_up:
            return
        pids = _descendants(os.getpid())
        ray.shutdown()
        self.ray_up = False
        deadline = time.monotonic() + 30
        while pids := {p for p in pids if _alive(p)}:
            if time.monotonic() > deadline:
                for p in pids:
                    _kill(p)
            time.sleep(0.05)


def nproc() -> int:
    """The CPU count ``nproc`` reports (it honours ``OMP_NUM_THREADS``)."""
    import subprocess
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _descendants(pid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(d))
    out, todo = set(), [pid]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.add(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


# -- oracle ----------------------------------------------------------------

class Expect:
    """Expected answers from a ``CorpusOracle`` over the counted docs.
    *hidden* ids are tombstoned: the engine keeps them in its statistics
    until a compaction purges them, but never returns them."""

    def __init__(self, oracle, hidden=frozenset()):
        self.oracle = oracle
        self.hidden = hidden
        self._cache: dict = {}

    def answer(self, kind: str, q):
        key = (kind, q)
        if key not in self._cache:
            self._cache[key] = getattr(self, "_" + kind)(q)
        return self._cache[key]

    def _bm25(self, q: str):
        ranked = self.oracle.bm25(q, k=TOP_K + len(self.hidden))
        return [(d, s) for d, s in ranked if d not in self.hidden][:TOP_K]

    def _match(self, q: str):
        return [d for d in self.oracle.match(q) if d not in self.hidden]

    def _bool(self, tree):
        return sorted(self._eval(tree) - self.hidden)

    def _eval(self, tree) -> set:
        if tree[0] == "term":
            return set(self.oracle.match(tree[1]))
        a, b = self._eval(tree[1]), self._eval(tree[2])
        return {"and": a & b, "or": a | b, "andnot": a - b}[tree[0]]


def freeze_heap() -> None:
    """Exempt what exists now (the oracle's millions of objects) from
    garbage collection, so full collections in timed sections scan only
    what the program under test allocates."""
    gc.collect()
    gc.freeze()


def make_oracle(contents: dict[int, str]):
    from ts_type_filter_ray import CorpusOracle
    o = CorpusOracle()
    for d in sorted(contents):
        o.add(d, contents[d])
    return o


def oracle_stats(oracle) -> tuple[int, int, int]:
    s = oracle.statistics()
    return s["num_documents"], s["num_unique_words"], s["num_postings"]


def index_stats(idx) -> tuple[int, int, int]:
    s = idx.stats
    return s.num_documents, s.num_unique_terms, s.num_postings


# -- query ops -------------------------------------------------------------

def op_sequence(mix: inputs.QueryMix) -> list[tuple]:
    """The closed-loop op order: every BM25 query of the mix, with a match
    and a boolean query after every fourth."""
    ops = []
    for i, (cls, q) in enumerate(mix.bm25):
        ops.append(("bm25", cls, q))
        if i % 4 == 0:
            ops.append(("match", "match", mix.match[i // 4 % len(mix.match)]))
        if i % 4 == 2:
            ops.append(("bool", "bool",
                        mix.boolean[i // 4 % len(mix.boolean)]))
    return ops


def run_op(env: Env, rec: Record, op, searcher, expect: Expect,
           service=None, tag: str = "") -> float:
    """Run one query op, record its latency (under *tag* + its kind) and
    check its answer against *expect*. Returns the timed seconds."""
    from ts_type_filter_ray.pipelines import querylang
    kind, cls, q = op
    tr = env.tracer
    tr.next_op()
    try:
        if kind == "bool":
            q, tree = q
            want = expect.answer("bool", tree)
        else:
            want = expect.answer("match" if kind == "match" else "bm25", q)
        with tr.span("bench:" + kind):
            if kind == "bm25":
                with tr.span("pipelines.query:bm25"):
                    t0 = time.perf_counter()
                    got = searcher.bm25(q, k=TOP_K)
                    dt = time.perf_counter() - t0
                got = [(int(d), float(s)) for d, s in got]
            elif kind == "serve":
                with tr.span("pipelines.serve:bm25"):
                    t0 = time.perf_counter()
                    got = service.bm25(q, k=TOP_K)
                    dt = time.perf_counter() - t0
                got = [(int(d), float(s)) for d, s in got]
            elif kind == "match":
                with tr.span("pipelines.query:match"):
                    t0 = time.perf_counter()
                    got = searcher.match(q)
                    dt = time.perf_counter() - t0
                got = got.tolist()
            else:
                with tr.span("pipelines.querylang:evaluate"):
                    t0 = time.perf_counter()
                    got = querylang.evaluate(q, searcher)
                    dt = time.perf_counter() - t0
                got = got.tolist()
    except Exception:
        rec.error(f"{kind} {q!r}")
        return 0.0
    rec.add(tag + kind, dt)
    if kind == "bm25":
        rec.add(tag + "bm25." + cls, dt)
        rec.last_bm25 = (q, dt)
    elif kind == "serve" and rec.last_bm25 and rec.last_bm25[0] == q:
        rec.add("fanout", dt - rec.last_bm25[1])
    rec.check(got == want, f"{kind} {q!r}")
    return dt


def run_slice(env, rec, ops, start, n, searcher, expect, cold=True,
              tag=""):
    """*n* ops from position *start*. With *cold*, the searcher has just
    opened and its first BM25 query is recorded as the cold query."""
    timed = 0.0
    for j in range(n):
        op = ops[(start + j) % len(ops)]
        dt = run_op(env, rec, op, searcher, expect, tag=tag)
        if cold and op[0] == "bm25":
            rec.add("cold_bm25", dt)
            cold = False
        timed += dt
    return timed


# -- set-up ----------------------------------------------------------------

def build(env: Env, corpus_dir: str, out: str):
    from ts_type_filter_ray import build_index, read_corpus
    shutil.rmtree(out, ignore_errors=True)
    with env.tracer.span("sources:read_corpus"):
        ds = read_corpus(corpus_dir)
    with env.tracer.span("pipelines.build:build_index"):
        return build_index(ds, out, doc_part_bits=DOC_PART_BITS)


def warm_up(env: Env, workload: str) -> None:
    """First-use costs of a fresh Ray session (worker start, imports,
    first-touch memory), paid through the paths the workload times, on a
    small corpus: build and query, plus extend, delete and compact for
    ``ingest``."""
    from ts_type_filter_ray import (LocalSearcher, compact_index,
                                    delete_docs, extend_index, read_corpus)
    idx = build(env, env.path("warm_corpus"), env.path("warm_idx"))
    if workload == "ingest":
        extend_index(idx.root, read_corpus(env.path("warm_corpus")))
        delete_docs(idx.root, [0])
        idx = compact_index(idx.root)
    LocalSearcher(idx).bm25("import def", k=TOP_K)
    shutil.rmtree(env.path("warm_idx"), ignore_errors=True)


def fill_caches(ops, searcher, service) -> None:
    """Every distinct query of *ops* once, on the searcher and the
    service's BM25, so the decoded posting lists they need are cached.
    Errors are left for the measured loop to count."""
    from ts_type_filter_ray.pipelines import querylang
    for kind, _, q in dict.fromkeys(ops):
        try:
            if kind == "bm25":
                searcher.bm25(q, k=TOP_K)
                service.bm25(q, k=TOP_K)
            elif kind == "match":
                searcher.match(q)
            else:
                querylang.evaluate(q[0], searcher)
        except Exception:
            pass


class Setup:
    """One set-up, timed whole as ``setup_s``: Ray start and warm-up, then
    the index build, the searcher and, for ``query``, the service, with
    their caches filled by the distinct queries of *ops*: the ``query``
    loop measures the warm path."""

    def __init__(self, env: Env, workload: str, corpus_dir: str, ops):
        from ts_type_filter_ray import LocalSearcher, SearchService
        self.service = self.serve_s = None
        t0 = time.perf_counter()
        env.ray_start()
        self.ray_s = time.perf_counter() - t0
        warm_up(env, workload)
        self.warm_s = time.perf_counter() - t0 - self.ray_s
        t = time.perf_counter()
        self.idx = build(env, corpus_dir, env.path("index"))
        self.build_s = time.perf_counter() - t
        t = time.perf_counter()
        self.searcher = LocalSearcher(self.idx)
        self.load_s = time.perf_counter() - t
        if workload == "query":
            t = time.perf_counter()
            self.service = SearchService(self.idx.root,
                                         num_actors=SERVE_ACTORS)
            self.service.bm25("import", k=TOP_K)  # actors are up
            self.serve_s = time.perf_counter() - t
            fill_caches(ops, self.searcher, self.service)
        self.seconds = time.perf_counter() - t0


# -- measured loops --------------------------------------------------------

class QueryLoop:
    """A rebuild of the corpus, then the query mix, back to back, against
    the warm searcher of the latest set-up; then its BM25 queries through
    the 2-actor service, each right after the same query on the searcher
    (tagged ``paired.``). The service runs apart and last: the work Ray
    does behind each actor call would otherwise land in the tail of the
    local queries."""

    def __init__(self, env, ctx):
        self.env, self.ctx = env, ctx
        self.expect = Expect(ctx.oracle)
        self.bm25_ops = [op for op in ctx.ops if op[0] == "bm25"]
        self.i = self.j = 0

    def run(self, rec: Record, seconds: float) -> None:
        """Until *seconds* of timed queries, or three times that in wall
        time: failed ops add no timed seconds."""
        env, ctx, expect = self.env, self.ctx, self.expect
        self.searcher = ctx.setup.searcher
        self.rebuild(rec)
        stop = time.perf_counter() + 3 * seconds
        timed = 0.0
        while timed < LOCAL_SHARE * seconds and time.perf_counter() < stop:
            timed += run_op(env, rec, ctx.ops[self.i % len(ctx.ops)],
                            self.searcher, expect)
            self.i += 1
        while timed < seconds and time.perf_counter() < stop:
            op = self.bm25_ops[self.j % len(self.bm25_ops)]
            timed += run_op(env, rec, op, self.searcher, expect,
                            tag="paired.")
            timed += run_op(env, rec, ("serve",) + op[1:], self.searcher,
                            expect, ctx.setup.service)
            self.j += 1

    def rebuild(self, rec: Record) -> None:
        """``build_index`` of the corpus once more, timed apart from the
        queries. The set-up build was this session's first of the corpus
        and pays first-touch costs that swing with the host; this one
        measures the build throughput of a warm session. Its index is
        checked against the oracle's statistics, then removed."""
        env, ctx = self.env, self.ctx
        env.tracer.next_op()
        out = env.path("rebuild")
        try:
            t0 = time.perf_counter()
            idx = build(env, ctx.corpus_dir, out)
            dt = time.perf_counter() - t0
        except Exception:
            rec.error("build_index")
            return
        rec.add("build", dt)
        for phase, v in (idx.timings or {}).items():
            rec.add("phase." + phase, v)
        rec.check(index_stats(idx) == oracle_stats(ctx.oracle),
                  "build statistics")
        shutil.rmtree(out, ignore_errors=True)


class IngestLoop:
    """One cycle of ingest steps on the set-up index: extend with a
    high-vocabulary batch, delete ~1% of the live docs, ``maybe_compact``
    with its default policy, reopen the searcher, then passes over a slice
    of the query mix. Every cycle of a run is the same work: same batches,
    same deletions, on a fresh index of the same corpus. The first pass
    meets cold caches and is recorded apart (``cold.*``): its tail swings
    with the host far more than the index does. The oracle (fresh for each
    cycle) follows the engine: new docs count at once, deleted ones stay
    counted (but hidden) until a compaction purges them."""

    def __init__(self, env, ctx):
        self.env, self.ctx = env, ctx
        self.root = ctx.setup.idx.root
        self.contents = dict(enumerate(ctx.base.contents))
        self.hidden: set[int] = set()
        self.rng = np.random.default_rng([ctx.seed, 11])
        self.step = self.k = 0
        self.searcher = ctx.setup.searcher
        self.expect = Expect(ctx.oracle)

    def run(self, rec: Record, seconds: float) -> None:
        """``INGEST_STEPS`` steps; *seconds* only caps a very slow cycle (at
        six times it)."""
        timed = 0.0
        while self.step < INGEST_STEPS and timed < 6 * seconds:
            try:
                timed += self.one_step(rec)
            except Exception:
                rec.error(f"ingest step {self.step}")
                return

    def one_step(self, rec: Record) -> float:
        from ts_type_filter_ray import (BuiltIndex, LocalSearcher,
                                        delete_docs, extend_index,
                                        maybe_compact, read_corpus)
        env, tr, ctx = self.env, self.env.tracer, self.ctx
        self.step += 1
        batch = inputs.make_corpus(ctx.seed, INGEST_BATCH, "high",
                                   tag=f"s{self.step}x")
        bdir = env.path(f"batch_{self.step}")
        rec.count("ingested_bytes", batch.write(bdir, num_files=2))
        offset = BuiltIndex.load(self.root).stats.next_doc_id
        live = sorted(set(self.contents) - self.hidden)
        dels = self.rng.choice(live, size=max(1, int(len(live)
                                                     * DELETE_FRACTION)),
                               replace=False).tolist()
        tr.next_op()
        with tr.span("bench:ingest"):
            t0 = time.perf_counter()
            with tr.span("sources:read_corpus"):
                ds = read_corpus(bdir)
            with tr.span("pipelines.build:extend_index"):
                idx = extend_index(self.root, ds)
            t1 = time.perf_counter()
            with tr.span("pipelines.build:delete_docs"):
                delete_docs(self.root, dels)
            t2 = time.perf_counter()
            with tr.span("pipelines.build:maybe_compact"):
                compacted, _ = maybe_compact(self.root)
            t3 = time.perf_counter()
            with tr.span("pipelines.query:LocalSearcher"):
                self.searcher = LocalSearcher(BuiltIndex.load(self.root))
            t4 = time.perf_counter()
        # the step without its compaction, which is recorded apart
        rec.add("step", t4 - t0 - (t3 - t2 if compacted else 0.0))
        rec.add("extend", t1 - t0)
        rec.add("extend_merge", (idx.timings or {}).get("merge", 0.0))
        rec.add("delete", t2 - t1)
        rec.add("reopen", t4 - t3)
        if compacted:
            rec.add("compact", t3 - t2)
            rec.count("rewritten_bytes", dir_bytes(
                os.path.join(self.root, "postings"), ".parquet"))
        shutil.rmtree(bdir, ignore_errors=True)

        for i, c in enumerate(batch.contents):
            self.contents[offset + i] = c
            ctx.oracle.add(offset + i, c)
        self.hidden |= set(dels)
        if compacted:
            for d in self.hidden:
                del self.contents[d]
            self.hidden = set()
            ctx.oracle = make_oracle(self.contents)
        freeze_heap()
        rec.check(index_stats(BuiltIndex.load(self.root))
                  == oracle_stats(ctx.oracle), "ingest statistics")
        self.expect = Expect(ctx.oracle, frozenset(self.hidden))
        timed = t4 - t0
        for p in range(INGEST_PASSES):
            timed += run_slice(env, rec, ctx.ops, self.k, INGEST_SLICE,
                               self.searcher, self.expect, cold=p == 0,
                               tag="cold." if p == 0 else "")
        self.k += INGEST_SLICE
        return timed


LOOPS = {"query": QueryLoop, "ingest": IngestLoop}
