"""Index-time stopwords (Lucene StopFilter semantics): dropped from
postings AND doc_len, vectorized and python breaker paths agree, BM25
statistics reflect the filtered corpus."""

import pyarrow as pa
import pytest

from ts_type_filter_ray.pipelines.build import build_index
from ts_type_filter_ray.pipelines.flagship import identity_stemmer
from ts_type_filter_ray.pipelines.query import LocalSearcher
from ts_type_filter_ray.text.tokenize import break_on_whitespace

DOCS = [
    "the spark engine and the planner",
    "a guide of the shuffle",
    "spark spark THE the A",
    "",
]
STOP = {"the", "a", "of", "and"}


def _build(tmp, **kw):
    import ray.data as rd
    t = pa.table({
        "doc_id": pa.array(range(len(DOCS)), type=pa.int64()),
        "content": pa.array(DOCS, type=pa.large_string()),
    })
    return build_index(rd.from_arrow(t), str(tmp), doc_part_bits=2,
                       num_term_buckets=2, tokenize_batch_size=2,
                       stemmer=identity_stemmer, stopwords=STOP, **kw)


@pytest.fixture(scope="module")
def stop_idx(ray_session, tmp_path_factory):
    return _build(tmp_path_factory.mktemp("stopidx"))


def test_stopwords_never_indexed(stop_idx):
    s = LocalSearcher(stop_idx, stemmer=identity_stemmer)
    for w in STOP:
        assert s.match(w).size == 0, w
    assert s.match("THE A").size == 0  # case-insensitive membership
    assert s.match("spark").tolist() == [0, 2]


def test_doc_len_excludes_stopwords(stop_idx):
    # doc 0: 6 tokens, 3 stopwords ('the' x2 + 'and') → dl 3
    # doc 2: 5 tokens, 3 stopwords (case-insensitive) → dl 2
    exp_dls = [3, 2, 2, 0]
    assert stop_idx.stats.total_doc_len == sum(exp_dls)
    s = LocalSearcher(stop_idx, stemmer=identity_stemmer)
    ex = s.explain("spark", 2)
    assert ex["terms"][0]["dl"] == 2 and ex["terms"][0]["tf"] == 2


def test_stats_exclude_stoplist(stop_idx):
    all_terms = {t for d in DOCS for t in d.lower().split()}
    assert stop_idx.stats.num_unique_terms == len(all_terms - STOP)


def test_python_breaker_path_agrees(ray_session, tmp_path_factory):
    """The custom-breaker (per-doc loop) path applies the same stoplist
    as the vectorized path: identical stats and match sets."""
    vec = _build(tmp_path_factory.mktemp("stop_vec"))
    py = _build(tmp_path_factory.mktemp("stop_py"),
                breaker=break_on_whitespace)
    assert py.stats == type(py.stats)(**{**vars(vec.stats)})
    sv = LocalSearcher(vec, stemmer=identity_stemmer)
    sp = LocalSearcher(py, stemmer=identity_stemmer)
    for q in ["spark", "guide shuffle", "the", "planner engine"]:
        assert sv.match(q).tolist() == sp.match(q).tolist(), q


_ONE_CPU_SCRIPT = """
import sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ts_type_filter_ray.pipelines.build import build_index, extend_index
from ts_type_filter_ray.sources.corpus import read_corpus
d = sys.argv[1]
pq.write_table(pa.table({"content": ["the cat and the dog", "a bird"]}),
               d + "/a.parquet")
pq.write_table(pa.table({"content": ["the fish"]}), d + "/b.parquet")
stop = {"the", "and"}
build_index(read_corpus([d + "/a.parquet"]), d + "/idx", stopwords=stop)
idx = extend_index(d + "/idx", read_corpus([d + "/b.parquet"]),
                   stopwords=stop)
print(idx.stats.num_documents, idx.stats.total_doc_len)
"""


def test_custom_tokenizer_path_finishes_on_one_cpu(tmp_path):
    """The custom-tokenizer (stopword) path must not starve the corpus
    read of its only CPU: a stopworded build + extend on a one-CPU Ray
    cluster, from a Parquet corpus, finishes."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    out = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_SCRIPT, str(tmp_path)], cwd=repo,
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split()[-2:] == ["3", "5"]
