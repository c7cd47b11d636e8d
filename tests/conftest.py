import os

import pytest


def assert_same_postings(root_a: str, root_b: str) -> None:
    """Assert two index roots of the same kind (main or positional) hold
    the same postings table: every bucket's segment rows, read as one
    hive-partitioned table, sorted by (term, part), columns in name
    order. Byte-level: encoded postings, df and, for the main index,
    block-max metadata all take part."""
    import pyarrow.dataset as pads

    key = [("term", "ascending"), ("part", "ascending")]
    a, b = (pads.dataset(os.path.join(root, "postings"), partitioning="hive")
            .to_table().sort_by(key) for root in (root_a, root_b))
    assert a.select(sorted(a.column_names)).equals(
        b.select(sorted(b.column_names)))


class InjectedFault(RuntimeError):
    """The crash a :class:`Faults` helper injects."""


class _Proxy:
    """Stands in for an object (say the ``os`` module as one module sees
    it), with some attributes replaced."""

    def __init__(self, real, **replaced):
        self._real, self._replaced = real, replaced

    def __getattr__(self, name):
        if name in self._replaced:
            return self._replaced[name]
        return getattr(self._real, name)


class Faults:
    """In-process fault injection. ``arm(module, "os.replace", n)``
    makes the n-th call of ``os.replace`` made from *module* raise
    :class:`InjectedFault`; only that module's view of ``os`` changes.
    With ``tear=True`` the n-th call of a file writer (the path is its
    second argument) runs, then its file is cut to half its bytes before
    the fault raises: a write that died midway.
    A fault reaches code in this process only, so ``inline_waves()``
    runs the bucket waves of both index kinds here, calling the bucket
    task functions directly instead of as Ray tasks. ``undo()`` restores
    everything."""

    def __init__(self):
        self._mp = pytest.MonkeyPatch()

    def arm(self, module, step: str, n: int = 1, tear: bool = False) -> None:
        owner, name = step.split(".")
        real = getattr(module, owner)
        real_fn = getattr(real, name)
        calls = 0

        def fn(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == n:
                if tear:
                    real_fn(*args, **kwargs)
                    os.truncate(args[1], os.path.getsize(args[1]) // 2)
                raise InjectedFault(f"{step} call {n} in {module.__name__}")
            return real_fn(*args, **kwargs)

        self._mp.setattr(module, owner, _Proxy(real, **{name: fn}))

    def inline_waves(self) -> None:
        from ts_type_filter_ray.pipelines import build, positional

        def wave(task, calls, zero=(0, 0)):
            return tuple(map(sum, zip(zero, *(task(*a) for a in calls))))

        for module in (build, positional):
            self._mp.setattr(module, "_bucket_wave", wave)

    def undo(self) -> None:
        self._mp.undo()


@pytest.fixture
def faults():
    f = Faults()
    yield f
    f.undo()


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # Ray's streaming executor does NOT preserve block order by default:
    # under CPU contention take_all() can interleave blocks and any
    # positional row assertion flakes (observed once in a contended
    # test_stages_over_ray run). Engine paths sort explicitly and never
    # rely on this; pinning it here makes the SUITE deterministic.
    ctx.execution_options.preserve_order = True
    yield
    ray.shutdown()


class GraphBackend:
    """Selects the state backend of the iterative graph family
    (``functions/graph.py``) for the rest of a test. The backend follows
    ``num_nodes > AUTO_DATASET_STATE_NODES``; ``use("dataset")`` lowers
    the threshold to 0, so every later call takes the Dataset-state
    backend, and ``use("broadcast")`` restores it."""

    names = ("broadcast", "dataset")

    def __init__(self, monkeypatch):
        from ts_type_filter_ray.functions import graph

        self._mp, self._graph = monkeypatch, graph
        self._default = graph.AUTO_DATASET_STATE_NODES

    def use(self, name: str) -> None:
        self._mp.setattr(self._graph, "AUTO_DATASET_STATE_NODES",
                         0 if name == "dataset" else self._default)

    def each(self):
        """Yield each backend name with that backend selected."""
        for name in self.names:
            self.use(name)
            yield name

    @staticmethod
    def table(out):
        """A graph result as a ``pa.Table`` (the Dataset backend returns
        a node-ascending Dataset)."""
        import pyarrow as pa

        if isinstance(out, pa.Table):
            return out
        return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


@pytest.fixture
def graph_backend(monkeypatch):
    return GraphBackend(monkeypatch)


@pytest.fixture(scope="session")
def sonnets_corpus_dir(tmp_path_factory):
    """F2 sonnets-analog corpus written as a 2-file parquet dir."""
    import pyarrow.parquet as pq

    from ts_type_filter_ray.sources.synthetic import sonnets_corpus_table

    d = tmp_path_factory.mktemp("sonnets_corpus")
    t = sonnets_corpus_table()
    pq.write_table(t.slice(0, 80), str(d / "part-00000.parquet"),
                   row_group_size=32)
    pq.write_table(t.slice(80), str(d / "part-00001.parquet"),
                   row_group_size=32)
    return str(d)


@pytest.fixture(scope="session")
def small_code_corpus_dir(tmp_path_factory):
    """F1 synthetic code corpus, small scale."""
    from ts_type_filter_ray.sources.synthetic import generate_corpus

    d = tmp_path_factory.mktemp("code_corpus")
    generate_corpus(str(d), num_docs=600, seed=42, num_files=4)
    return str(d)
