"""Training-data operators (dedup / ANN / text analysis) vs DuckDB oracles
on the driver's sf0.001 testdata."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ts_type_filter_ray.functions import ann, dedup, textstats

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    return rd.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def emb(ray_session):
    return rd.read_parquet(f"{SF}/embeddings.parquet")


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.sql(f"create view documents as select * from '{SF}/documents.parquet'")
    c.sql(f"create view embeddings as select * from '{SF}/embeddings.parquet'")
    return c


def test_token_counts_vs_sql(docs, con):
    got = {r["doc_id"]: r["n_tokens"]
           for r in textstats.token_counts(docs).take_all()}
    exp = dict(con.sql(
        r"select doc_id, case when trim(text)='' then 0 else "
        r"len(regexp_split_to_array(trim(text),'\s+')) end from documents"
    ).fetchall())
    assert got == exp


def test_term_df_tf_vs_sql(docs, con):
    got = {r["term"]: (r["df"], r["tf"])
           for r in textstats.term_df_tf(docs).take_all()}
    exp = {t: (df, tf) for t, df, tf in con.sql(r"""
        with toks as (
          select doc_id, unnest(regexp_split_to_array(lower(trim(text)),'\s+')) as term
          from documents where trim(text) <> '')
        select term, count(distinct doc_id), count(*) from toks group by term
    """).fetchall()}
    assert got == exp


def test_quality_scores_vs_sql(docs, con):
    got = {r["doc_id"]: (r["n_tokens"], r["n_stopwords"], r["stopword_ratio"])
           for r in textstats.quality_scores(docs).take_all()}
    exp = {d: (nt, ns, ratio) for d, nt, ns, ratio in con.sql(r"""
        with toks as (
          select doc_id, unnest(regexp_split_to_array(lower(trim(text)),'\s+')) as term
          from documents where trim(text) <> '')
        select doc_id, count(*),
               sum(case when term in ('the','and','of','a','to','in','is','it','that','for') then 1 else 0 end),
               sum(case when term in ('the','and','of','a','to','in','is','it','that','for') then 1 else 0 end)::DOUBLE / count(*)
        from toks group by doc_id
    """).fetchall()}
    assert got == exp


def test_bpe_token_counts_vs_sql(docs, con):
    got = {r["doc_id"]: r["n_bpe_tokens"]
           for r in textstats.bpe_token_counts(docs).take_all()}
    exp = dict(con.sql(
        r"select doc_id, len(regexp_extract_all(text,'[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+'))"
        r" from documents").fetchall())
    assert got == exp


def test_fingerprints_vs_sql(docs, con):
    got = {r["doc_id"]: r["fp"] for r in textstats.fingerprints(docs).take_all()}
    exp = dict(con.sql(
        r"select doc_id, md5(lower(regexp_replace(trim(text),'\s+',' ','g')))"
        r" from documents").fetchall())
    assert got == exp


def test_exact_dedup_vs_sql(docs, con):
    got = {r["sha256"]: (r["keep_doc_id"], r["n_copies"])
           for r in dedup.exact_dedup_groups(docs).take_all()}
    exp = {h: (k, n) for h, k, n in con.sql(
        "select sha256(text), min(doc_id), count(*) from documents group by 1"
    ).fetchall()}
    assert got == exp


def test_exact_dedup_finds_planted_dups(ray_session):
    tbl = pa.table({"doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                    "text": ["aaa bbb", "ccc", "aaa bbb", "ddd"]})
    out = dedup.exact_dedup_groups(rd.from_arrow(tbl)).take_all()
    by_n = {r["keep_doc_id"]: r["n_copies"] for r in out}
    assert by_n == {1: 2, 2: 1, 4: 1}


def test_minhash_estimates_jaccard(ray_session):
    base = " ".join(f"w{i}" for i in range(60))
    near = " ".join(f"w{i}" for i in range(3, 60)) + " x1 x2 x3"
    far = " ".join(f"z{i}" for i in range(60))
    tbl = pa.table({"doc_id": pa.array([0, 1, 2], type=pa.int64()),
                    "text": [base, near, far]})
    pairs = dedup.minhash_dedup_pairs(rd.from_arrow(tbl), num_perm=64,
                                      bands=16, threshold=0.5).take_all()
    found = {(r["id_a"], r["id_b"]): r["jaccard"] for r in pairs}
    assert (0, 1) in found
    assert all(b != 2 and a != 2 for a, b in found)
    assert found[(0, 1)] == dedup.jaccard(base, near)


def test_simhash_near_dups(ray_session):
    # 300 tokens → adding one token flips ≤3 bits of the md5-based
    # simhash (hamming 2 measured), inside the 4-band ≤3 guarantee
    base = " ".join(f"w{i}" for i in range(300))
    near = base + " extra"
    far = " ".join(f"z{i}" for i in range(300))
    tbl = pa.table({"doc_id": pa.array([0, 1, 2], type=pa.int64()),
                    "text": [base, near, far]})
    out = dedup.simhash_near_dup_pairs(rd.from_arrow(tbl), max_hamming=3).take_all()
    found = {(r["id_a"], r["id_b"]) for r in out}
    assert (0, 1) in found
    assert not any(2 in p for p in found)


def test_brute_force_topk_vs_numpy(emb):
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF}/embeddings.parquet")
    E = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(t["vec_id"].to_pylist())
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    out = ann.brute_force_topk(emb, query_ids=[0, 1, 2], k=5).take_all()
    for qid in [0, 1, 2]:
        rows = sorted([r for r in out if r["query_id"] == qid],
                      key=lambda r: r["rank"])
        sims = En[qid] @ En.T
        order = np.lexsort((ids, -sims))[:5]
        assert [r["vec_id"] for r in rows] == ids[order].tolist()


def test_ivf_recall_reasonable(emb):
    exact = ann.brute_force_topk(emb, query_ids=[0, 1], k=10).take_all()
    approx = ann.ivf_topk(emb, query_ids=[0, 1], k=10,
                          n_centroids=8, nprobe=4).take_all()
    for qid in [0, 1]:
        e = {r["vec_id"] for r in exact if r["query_id"] == qid}
        a = {r["vec_id"] for r in approx if r["query_id"] == qid}
        assert len(e & a) >= 5  # nprobe=4 of 8 lists → decent recall


def test_language_id_runs(docs):
    out = textstats.language_id(docs).take_all()
    assert len(out) == docs.count()
    assert all(r["pred_lang"] in ("en", "es", "fr", "de", "und") for r in out)


def test_rolling_fingerprints_deterministic(docs):
    a = textstats.rolling_fingerprints(docs.limit(20)).take_all()
    b = textstats.rolling_fingerprints(docs.limit(20)).take_all()
    assert sorted((r["doc_id"], r["fp64"]) for r in a) == \
           sorted((r["doc_id"], r["fp64"]) for r in b)


def test_blank_docs_zero_tokens(ray_session):
    """Blank/whitespace-only docs: n_tokens must be 0 (reference
    ``''.strip().split() == []``) and no '' term may be emitted — Arrow's
    utf8_split_whitespace returns [''] for those rows (ADVICE r1)."""
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array(["hello world", "", "   \t\n ", "the end"]),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["t"] * 4),
        "n_chars": pa.array([11, 0, 6, 7], type=pa.int64()),
    })
    tc = {r["doc_id"]: r["n_tokens"]
          for r in textstats.token_counts(rd.from_arrow(tbl)).take_all()}
    assert tc == {0: 2, 1: 0, 2: 0, 3: 2}
    terms = {r["term"]: (r["df"], r["tf"])
             for r in textstats.term_df_tf(rd.from_arrow(tbl)).take_all()}
    assert "" not in terms
    assert terms["the"] == (1, 1)
    qs = {r["doc_id"]: r for r in
          textstats.quality_scores(rd.from_arrow(tbl)).take_all()}
    assert qs[1]["n_tokens"] == 0 and qs[1]["stopword_ratio"] == 0.0
    assert qs[2]["n_tokens"] == 0 and qs[2]["mean_token_len"] == 0.0


def test_minhash_giant_dup_cluster_no_candidate_blowup(ray_session):
    """A 1,000-copy duplicate cluster must complete without quadratic
    CANDIDATE work: representative election caps a B-member bucket at
    B-1 star pairs instead of B(B-1)/2 (VERDICT r1); with
    ``expand_exact_clusters=False`` the pair LISTING stays the star."""
    base = " ".join(f"w{i}" for i in range(40))
    n = 1000
    tbl = pa.table({
        "doc_id": pa.array(list(range(n + 1)), type=pa.int64()),
        "text": [base] * n + [" ".join(f"z{i}" for i in range(40))],
    })
    pairs = dedup.minhash_dedup_pairs(rd.from_arrow(tbl), num_perm=32,
                                      bands=8, threshold=0.5,
                                      bucket_pair_cap=64,
                                      expand_exact_clusters=False).take_all()
    # star pairs only: (0, x) for every other copy — O(B), not O(B²)
    assert len(pairs) == n - 1
    assert all(r["id_a"] == 0 and r["jaccard"] == 1.0 for r in pairs)
    drop = {r["id_b"] for r in pairs}
    assert drop == set(range(1, n))  # every non-representative is linked


def test_minhash_exact_cluster_expansion_complete(ray_session):
    """Default ``expand_exact_clusters=True`` restores the FULL clique
    for an over-cap exact-duplicate cluster (ADVICE r2): verified J=1.0
    star pairs are transitively expanded, so the pair output equals the
    n² oracle's listing despite the candidate cap."""
    base = " ".join(f"w{i}" for i in range(40))
    n = 150  # > bucket_pair_cap → star candidates, then expansion
    tbl = pa.table({
        "doc_id": pa.array(list(range(n + 1)), type=pa.int64()),
        "text": [base] * n + [" ".join(f"z{i}" for i in range(40))],
    })
    pairs = dedup.minhash_dedup_pairs(rd.from_arrow(tbl), num_perm=32,
                                      bands=8, threshold=0.5,
                                      bucket_pair_cap=64).take_all()
    got = {(r["id_a"], r["id_b"]) for r in pairs}
    want = {(a, b) for a in range(n) for b in range(a + 1, n)}
    assert got == want
    assert all(r["jaccard"] == 1.0 for r in pairs)


def test_embedding_near_dup_multiblock_exact(emb):
    """The K>1 block-pair sweep must produce the identical pair set as a
    single block, for BOTH blockings (exactness does not depend on the
    blocking, and the centroid path's triangle-bound pruning is provably
    safe)."""
    one = sorted((r["id_a"], r["id_b"]) for r in
                 ann.embedding_near_dup_pairs(emb, 0.35,
                                              block_rows=10**9).take_all())
    for blocking in ("centroid", "hash"):
        many = sorted(
            (r["id_a"], r["id_b"]) for r in
            ann.embedding_near_dup_pairs(emb, 0.35, block_rows=37,
                                         blocking=blocking).take_all())
        assert one == many and len(one) > 0


def _planted_clusters(n_base=40, dups=2, dim=32, noise=0.05, seed=3):
    """Unit vectors: n_base random bases, each with ``dups`` near-copies
    (cos ≈ 0.96 to the base). Returns (arrow table, normalized matrix)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_base, dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows = []
    for i in range(n_base):
        rows.append(base[i])
        for _ in range(dups):
            v = base[i] + noise * rng.standard_normal(dim)
            rows.append(v / np.linalg.norm(v))
    m = np.array(rows)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    tbl = pa.table({
        "vec_id": pa.array(range(len(m)), type=pa.int64()),
        "embedding": pa.array([r.tolist() for r in m],
                              type=pa.list_(pa.float32())),
    })
    return tbl, m


def test_embedding_near_dup_lsh_recall(ray_session):
    """The sub-quadratic hyperplane-LSH path must reach ≥0.99 recall vs
    the exact pair set at the planned detection target, with zero false
    positives (the verify recomputes exact cosine)."""
    tbl, m = _planted_clusters()
    # float32 storage round-trip, like the engine reads it
    m32 = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    m32 /= np.linalg.norm(m32, axis=1, keepdims=True)
    sims = m32 @ m32.T
    iu = np.triu_indices(len(m32), k=1)
    want = {(int(i), int(j)) for i, j in zip(*iu) if sims[i, j] >= 0.9}
    assert len(want) >= 100  # the planted clusters actually qualify
    got = {(r["id_a"], r["id_b"]) for r in
           ann.embedding_near_dup_pairs_lsh(
               rd.from_arrow(tbl), threshold=0.9).take_all()}
    assert not (got - want)  # exact verify ⇒ no false positives
    recall = len(got & want) / len(want)
    assert recall >= 0.99


def test_block_pair_pruning_plan():
    """Two tight clusters around near-orthogonal centroids: the angular
    triangle bound must prune the cross-block pair and keep the
    diagonal."""
    c0 = np.array([1.0, 0.0, 0.0])
    c1 = np.array([0.0, 1.0, 0.0])
    cents = np.stack([c0, c1])
    devs = np.radians(np.array([8.0, 8.0]))
    # threshold 0.8 → limit angle ≈ 36.9°; bound 90 − 8 − 8 = 74 > limit
    pairs = ann._plan_block_pairs(cents, devs, 0.8, 2)
    assert pairs == [(0, 0), (1, 1)]
    # loose clusters (δ=45°) can cross the threshold → pair survives
    pairs = ann._plan_block_pairs(cents, np.radians([45.0, 45.0]), 0.8, 2)
    assert (0, 1) in pairs
    # hash blocking (no centroids) keeps the full grid
    assert ann._plan_block_pairs(None, None, 0.8, 3) == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_embedding_near_dup_pruned_still_exact(ray_session):
    """On a clusterable corpus the centroid path must PRUNE (fewer block
    pairs than the full grid) while returning exactly the brute-force
    pair set."""
    tbl, _ = _planted_clusters(n_base=12, dups=4, noise=0.03, seed=9)
    m = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    iu = np.triu_indices(len(m), k=1)
    want = sorted((int(i), int(j)) for i, j in zip(*iu)
                  if sims[i, j] >= 0.8)
    got = sorted((r["id_a"], r["id_b"]) for r in
                 ann.embedding_near_dup_pairs(
                     rd.from_arrow(tbl), threshold=0.8,
                     block_rows=10).take_all())
    assert got == want and len(want) >= 12


def test_revenue_by_nation_shuffle_fallback(ray_session, monkeypatch):
    """A dimension over the broadcast size contract must take the
    distributed union-shuffle join and produce the identical result."""
    from ts_type_filter_ray.functions import relational
    broad = sorted(
        (r["n_name"], r["n_orders"], r["revenue_c"]) for r in
        relational.revenue_by_nation(SF).take_all())
    # force the fallback: contract of 0 rows → every dimension is "big"
    monkeypatch.setattr(relational, "MAX_BROADCAST_DIM_ROWS", 0)
    shuf = sorted(
        (r["n_name"], r["n_orders"], r["revenue_c"]) for r in
        relational.revenue_by_nation(SF).take_all())
    assert broad == shuf and len(broad) > 0


def test_ngram_jaccard_exact(ray_session):
    base = " ".join(f"w{i}" for i in range(30))
    near = " ".join(f"w{i}" for i in range(2, 30)) + " x1 x2"
    far = " ".join(f"z{i}" for i in range(30))
    tbl = pa.table({"doc_id": pa.array([0, 1, 2], type=pa.int64()),
                    "text": [base, near, far]})
    out = dedup.ngram_jaccard_pairs(rd.from_arrow(tbl),
                                    threshold=0.3).take_all()
    found = {(r["id_a"], r["id_b"]): r["jaccard"] for r in out}
    assert set(found) == {(0, 1)}
    assert found[(0, 1)] == dedup.jaccard(base, near)  # exact, not approx


def test_minhash_auto_banding_recall():
    """Threshold-aware banding: detection probability at the threshold
    must be >= 95% whenever some banding of num_perm can reach it."""
    from ts_type_filter_ray.functions.dedup import optimal_bands
    for t in (0.3, 0.5, 0.7, 0.8):
        b = optimal_bands(64, t)
        r = 64 // b
        assert 1 - (1 - t**r) ** b >= 0.95, (t, b)
    # and it is the most selective qualifying choice at t=0.8
    assert optimal_bands(64, 0.8) <= optimal_bands(64, 0.4)


def test_repetition_scores_edge_cases(ray_session):
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": ["", "spam spam spam spam", "a b c d"],
    })
    out = {r["doc_id"]: r for r in
           textstats.repetition_scores(rd.from_arrow(tbl)).take_all()}
    assert out[0]["n_tokens"] == 0 and out[0]["max_tf_ratio"] == 0.0
    assert out[1]["n_distinct"] == 1 and out[1]["max_tf_ratio"] == 1.0
    assert out[1]["distinct_ratio"] == 0.25
    assert out[2]["n_distinct"] == 4 and out[2]["distinct_ratio"] == 1.0
    assert out[2]["max_tf"] == 1


def test_doc_top_terms_tfidf_and_ties(ray_session):
    # "rare" appears in 1 doc (df=1), "both" in 2 (df=2); within doc 0
    # score(rare)=1/1 beats score(both)=1/2; ties break term-asc.
    tbl = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": ["rare both aa bb", "both cc dd"],
    })
    out = textstats.doc_top_terms(rd.from_arrow(tbl), k=2).take_all()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(
            (r["rank"], r["term"], r["df"], r["score"]))
    d0 = sorted(by_doc[0])
    # aa/bb/rare all df=1 score=1.0 -> term-asc: aa, bb
    assert d0 == [(1, "aa", 1, 1.0), (2, "bb", 1, 1.0)]
    d1 = sorted(by_doc[1])
    assert d1 == [(1, "cc", 1, 1.0), (2, "dd", 1, 1.0)]
    assert all(len(v) <= 2 for v in by_doc.values())


def test_dataset_split_deterministic_and_exact(ray_session):
    import hashlib
    from ts_type_filter_ray.functions.sampling import dataset_split
    tbl = pa.table({"doc_id": pa.array(range(200), type=pa.int64())})
    a = {r["doc_id"]: (r["bucket"], r["split"])
         for r in dataset_split(rd.from_arrow(tbl)).take_all()}
    b = {r["doc_id"]: (r["bucket"], r["split"])
         for r in dataset_split(rd.from_arrow(tbl)).take_all()}
    assert a == b and len(a) == 200
    for did, (bucket, split) in a.items():
        h = int.from_bytes(
            hashlib.md5(str(did).encode()).digest()[8:], "little") % 100
        assert bucket == h
        assert split == ("train" if h < 80 else "valid" if h < 90
                         else "test")
    assert {s for _, s in a.values()} == {"train", "valid", "test"}


def test_decontaminate_planted_overlap(ray_session):
    from ts_type_filter_ray.functions.decontam import decontaminate
    # doc 0 is benchmark (0 % 5 == 0); doc 1 shares two distinct
    # 3-grams with it; doc 2 shares none; doc 3 is a short doc equal to
    # a short benchmark doc 5 (whole-text shingle).
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 5], type=pa.int64()),
        "text": ["a b c d e", "a b c d x", "q r s t u", "tiny one",
                 "tiny one"],
    })
    out = {r["doc_id"]: r["n_shared_shingles"]
           for r in decontaminate(rd.from_arrow(tbl), bench_mod=5,
                                  shingle_k=3).take_all()}
    # doc0 shingles: (a b c),(b c d),(c d e); doc1: (a b c),(b c d),(c d x)
    assert out == {1: 2, 3: 1}


def test_distinct_shingles_batch_matches_per_row():
    """The vectorized per-doc-distinct shingle kernel ≡ the per-row
    reference (`_shingle_hashes` + np.unique) on mixed docs: long,
    short-than-k, empty, whitespace-only, duplicate shingles."""
    import numpy as np

    from ts_type_filter_ray.functions.dedup import (_shingle_hashes,
                                                    distinct_shingles_batch)
    texts = ["a b c d e a b c", "tiny one", "", "   ", "x",
             "a a a a a a", "q r s t u v w"]
    tbl = pa.table({
        "doc_id": pa.array([7, 3, 11, 4, 9, 2, 5], type=pa.int64()),
        "text": texts})
    did, sh = distinct_shingles_batch(tbl, 3)
    got = {}
    for d, h in zip(did.tolist(), sh.tolist()):
        got.setdefault(d, []).append(h)
    want = {d: sorted(np.unique(_shingle_hashes(t, 3)).tolist())
            for d, t in zip(tbl["doc_id"].to_pylist(), texts)
            if _shingle_hashes(t, 3).size}
    assert {d: sorted(v) for d, v in got.items()} == want


def test_weighted_sample_k(ray_session):
    """A-ES weighted sampling: deterministic, exact-k, excludes
    non-positive weights, matches a local reference computation, and
    favors heavy rows (every huge-weight row selected)."""
    import numpy as np

    from ts_type_filter_ray.functions.sampling import (_md5_key64,
                                                       weighted_sample_k)
    n = 400
    w = np.ones(n, dtype=np.int64)
    heavy = [7, 99, 250, 333]
    w[heavy] = 100_000
    w[5] = 0          # excluded: no mass
    w[6] = -3         # excluded
    tbl = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                    "n_chars": pa.array(w)})
    ds = rd.from_arrow(tbl).repartition(4)
    out = weighted_sample_k(ds, k=20)
    ids = out["doc_id"].to_pylist()
    assert out["rank"].to_pylist() == list(range(1, 21))
    assert len(ids) == 20 and 5 not in ids and 6 not in ids
    assert set(heavy) <= set(ids)  # P(miss) ~ (1e-5)^... negligible
    # reference: exact key order
    u = (_md5_key64(np.arange(n)).astype(np.float64) + 0.5) * 2.0 ** -64
    key = np.log(u) / w.astype(np.float64)
    key[w <= 0] = -np.inf
    order = np.lexsort((np.arange(n), -key))[:20]
    assert ids == order.tolist()
    # deterministic across reruns
    again = weighted_sample_k(ds, k=20)
    assert again["doc_id"].to_pylist() == ids


def test_sample_per_stratum(ray_session):
    """Exactly k per stratum, key order, small strata kept whole; the
    per-batch head pruning must not change the global answer."""
    import numpy as np

    from ts_type_filter_ray.functions.sampling import (_md5_key64,
                                                       sample_per_stratum)
    n = 300
    langs = np.array(["en", "fr", "de"])[np.arange(n) % 3]
    langs[:2] = "tiny"  # a 2-member stratum with k=5
    tbl = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                    "lang": pa.array(langs.tolist())})
    out = sample_per_stratum(rd.from_arrow(tbl).repartition(5), k=5,
                             strata_col="lang").to_pandas()
    key = _md5_key64(np.arange(n))
    for lang in ("en", "fr", "de", "tiny"):
        members = np.flatnonzero(langs == lang)
        order = members[np.lexsort((members, key[members]))][:5]
        sub = out[out.lang == lang].sort_values("rank")
        assert sub.doc_id.tolist() == order.tolist(), lang
        assert sub["rank"].tolist() == list(range(1, len(order) + 1))
    assert len(out) == 5 * 3 + 2


def test_pagerank_golden(ray_session):
    """Distributed PageRank ≡ a pure-Python power iteration on a small
    directed graph with skewed in-degrees, dangling nodes (no
    out-edges), and an unreferenced node — bit-identical floats."""
    from ts_type_filter_ray.functions.graph import pagerank
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (4, 2), (4, 0),
             (5, 2)]  # node 6: no edges at all; node 3,5: no in-edges
    n, d, iters = 7, 0.85, 4
    tbl = pa.table({"src": pa.array([a for a, _ in edges],
                                    type=pa.int64()),
                    "dst": pa.array([b for _, b in edges],
                                    type=pa.int64())})
    got = pagerank(rd.from_arrow(tbl).repartition(3), n, iters=iters,
                   damping=d).to_pandas()
    # reference: sequential fold in ascending-src order per dst
    import collections
    out = collections.Counter(a for a, _ in edges)
    r = [1.0 / n] * n
    for _ in range(iters):
        s = [0.0] * n
        for a, b in sorted(edges):  # (src, dst) ascending → src order
            s[b] += r[a] / out[a]
        r = [(1.0 - d) / n + d * s[v] for v in range(n)]
    assert got["node"].tolist() == list(range(n))
    assert got["pagerank"].tolist() == r  # exact float equality


def test_scrub_pii_planted(ray_session):
    from ts_type_filter_ray.functions.scrub import scrub_pii
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": ["mail bob.smith@example.co.uk from 192.168.0.1 now",
                 "ip-in-email x@1.2.3.4.io stays one email",
                 "clean"],
    })
    out = {r["doc_id"]: r for r in scrub_pii(rd.from_arrow(tbl)).take_all()}
    assert out[0]["clean_text"] == "mail <EMAIL> from <IP> now"
    assert out[0]["n_emails"] == 1 and out[0]["n_ips"] == 1
    # the IPv4 inside the email domain is consumed by the email redaction
    assert out[1]["clean_text"] == "ip-in-email <EMAIL> stays one email"
    assert out[1]["n_emails"] == 1 and out[1]["n_ips"] == 0
    assert out[2]["clean_text"] == "clean"
    assert out[2]["n_emails"] == 0 and out[2]["n_ips"] == 0


def test_chunk_documents_boundaries(ray_session):
    from ts_type_filter_ray.functions.chunking import chunk_documents
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": ["t0 t1 t2 t3 t4", "", "u0 u1 u2", "v0"],
    })
    out = sorted((r["doc_id"], r["chunk_id"], r["n_tokens"],
                  r["chunk_text"]) for r in
                 chunk_documents(rd.from_arrow(tbl), chunk_len=3)
                 .take_all())
    assert out == [
        (0, 0, 3, "t0 t1 t2"), (0, 1, 2, "t3 t4"),
        (2, 0, 3, "u0 u1 u2"),
        (3, 0, 1, "v0"),
    ]


def test_stratified_sample_rates_and_determinism(ray_session):
    from ts_type_filter_ray.functions.sampling import (_md5_bucket,
                                                       stratified_sample)
    n = 2000
    tbl = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "lang": pa.array(["en" if i % 2 else "de" for i in range(n)]),
    })
    rates = {"en": 0.5, "de": 0.1}
    out = stratified_sample(rd.from_arrow(tbl), rates).take_all()
    again = stratified_sample(rd.from_arrow(tbl), rates).take_all()
    assert sorted(r["doc_id"] for r in out) == sorted(
        r["doc_id"] for r in again)
    for r in out:  # kept iff bucket under the stratum cut
        assert r["bucket"] < (5000 if r["lang"] == "en" else 1000)
    n_en = sum(r["lang"] == "en" for r in out)
    n_de = sum(r["lang"] == "de" for r in out)
    assert abs(n_en - 500) < 60 and abs(n_de - 100) < 40
    # unlisted strata use default_rate=0.0 -> dropped entirely
    assert all(r["lang"] in ("en", "de") for r in out)


def test_upsample_by_weight_repeats(ray_session):
    from ts_type_filter_ray.functions.sampling import upsample_by_weight
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "source": ["a", "b", "c", "a"],
    })
    out = sorted((r["doc_id"], r["copy_id"]) for r in
                 upsample_by_weight(rd.from_arrow(tbl),
                                    {"a": 3, "b": 0},
                                    default_weight=1).take_all())
    assert out == [(0, 0), (0, 1), (0, 2), (2, 0),
                   (3, 0), (3, 1), (3, 2)]


def test_knn_join_exact_vs_numpy(emb):
    rows = emb.take_all()
    ids = np.array([r["vec_id"] for r in rows])
    m = np.array([r["embedding"] for r in rows], dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    np.fill_diagonal(sims, -np.inf)
    want = {}
    for i in range(len(ids)):
        order = np.lexsort((ids, -sims[i]))[:4]
        want[int(ids[i])] = [int(ids[j]) for j in order]
    out = ann.knn_join(emb, k=4, block_rows=64).take_all()
    got = {}
    for r in sorted(out, key=lambda r: (r["vec_id"], r["rank"])):
        got.setdefault(r["vec_id"], []).append(r["neighbor_id"])
    assert got == want


def test_knn_join_probed_recall(emb):
    exact = {(r["vec_id"], r["neighbor_id"])
             for r in ann.knn_join(emb, k=4, block_rows=64).take_all()}
    # nprobe >= number of cells probes the full grid -> identical result
    full = {(r["vec_id"], r["neighbor_id"])
            for r in ann.knn_join(emb, k=4, block_rows=64,
                                  nprobe=64).take_all()}
    assert full == exact
    # partial probing trades recall for the pruned pair grid
    probed = {(r["vec_id"], r["neighbor_id"])
              for r in ann.knn_join(emb, k=4, block_rows=64,
                                    nprobe=3).take_all()}
    assert len(probed & exact) / len(exact) >= 0.5
    assert len(probed) == len(exact)  # still k rows per vector


def test_deterministic_shuffle_is_permutation(ray_session):
    from ts_type_filter_ray.functions.sampling import deterministic_shuffle
    tbl = pa.table({"doc_id": pa.array(range(777), type=pa.int64())})
    out = deterministic_shuffle(rd.from_arrow(tbl), part_bits=3).take_all()
    assert sorted(r["position"] for r in out) == list(range(1, 778))
    # rerun-identical regardless of partition granularity
    out2 = deterministic_shuffle(rd.from_arrow(tbl), part_bits=5).take_all()
    assert {r["doc_id"]: r["position"] for r in out} == \
           {r["doc_id"]: r["position"] for r in out2}


def test_winnow_guarantee_property(ray_session):
    """Docs sharing a token run of length >= window+guarantee-1 must
    share a fingerprint; disjoint docs share none."""
    from ts_type_filter_ray.functions.textstats import (
        winnow_fingerprint_sets)
    shared = " ".join(f"s{i}" for i in range(19))  # 16+4-1 tokens
    a = "a1 a2 a3 " + shared + " a4"
    b = "b1 " + shared + " b2 b3"
    c = " ".join(f"c{i}" for i in range(30))
    tbl = pa.table({"doc_id": pa.array([0, 1, 2], type=pa.int64()),
                    "text": [a, b, c]})
    out = winnow_fingerprint_sets(rd.from_arrow(tbl), window=16,
                                  guarantee=4).take_all()
    sets = {}
    for r in out:
        sets.setdefault(r["doc_id"], set()).add(r["fp64"])
    assert sets[0] & sets[1]
    assert not (sets[0] & sets[2]) and not (sets[1] & sets[2])
    # short doc: one whole-prefix hash
    short = pa.table({"doc_id": pa.array([9], type=pa.int64()),
                      "text": ["only three tokens"]})
    srows = winnow_fingerprint_sets(rd.from_arrow(short)).take_all()
    assert len(srows) == 1


def test_filter_by_token_quantile_exact_cutoffs(ray_session):
    from ts_type_filter_ray.functions.textstats import (
        filter_by_token_quantile)
    # lengths 1..10, one doc each: p-disc(0.2)=2, p-disc(0.8)=8
    tbl = pa.table({
        "doc_id": pa.array(range(10), type=pa.int64()),
        "text": [" ".join(["t"] * (i + 1)) for i in range(10)],
    })
    out = sorted(r["n_tokens"] for r in filter_by_token_quantile(
        rd.from_arrow(tbl), lo=0.2, hi=0.8).take_all())
    assert out == [2, 3, 4, 5, 6, 7, 8]


def test_commonness_scores_integer_exact(ray_session):
    from ts_type_filter_ray.functions.textstats import commonness_scores
    # corpus: "a a b" + "b c" -> tfg: a=2, b=2, c=1; total=5
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": ["a a b", "b c", ""],
    })
    out = {r["doc_id"]: (r["sum_tfg"], r["n_tokens"], r["commonness"])
           for r in commonness_scores(rd.from_arrow(tbl)).take_all()}
    # doc0: a,a,b -> 2+2+2=6 over 3 tokens; doc1: b,c -> 2+1=3 over 2
    assert out[0] == (6, 3, 6 / 15)
    assert out[1] == (3, 2, 3 / 10)
    assert 2 not in out  # blank doc excluded, matching the SQL oracle


def test_training_prep_drop_semantics(ray_session):
    """A doc dropped by BOTH dedup and contamination stays dropped; the
    per-split token sums count only survivors."""
    from ts_type_filter_ray.pipelines.prep import training_prep_report
    texts = {
        0: "bench doc alpha beta gamma",        # benchmark (0 % 5 == 0)
        1: "clean one two three four five",
        2: "clean one two three four five",     # exact dup loser of 1
        3: "shares alpha beta gamma with bench",  # contaminated
        4: "x",                                 # too short for quantiles
        6: "clean six seven eight nine ten",
    }
    tbl = pa.table({
        "doc_id": pa.array(sorted(texts), type=pa.int64()),
        "text": [texts[k] for k in sorted(texts)],
    })
    out = training_prep_report(rd.from_arrow(tbl), lo=0.3, hi=1.0,
                               bench_mod=5, shingle_k=3).take_all()
    total_docs = sum(r["n_docs"] for r in out)
    total_tokens = sum(r["n_tokens"] for r in out)
    # survivors: docs 1 and 6 only (0 bench, 2 dup, 3 contam, 4 short)
    assert total_docs == 2 and total_tokens == 12


def test_hll_accuracy_at_scale(ray_session):
    from ts_type_filter_ray.functions.sketches import approx_distinct_terms
    # 60k distinct tokens spread over 600 docs — well past the
    # linear-counting regime at p=12
    texts = [" ".join(f"tok{d}_{i}" for i in range(100)) for d in range(600)]
    tbl = pa.table({"doc_id": pa.array(range(600), type=pa.int64()),
                    "text": texts})
    est = approx_distinct_terms(rd.from_arrow(tbl)).take_all()[0]["estimate"]
    assert abs(est - 60000) / 60000 < 0.05
    # and the small-range regime is exact-ish
    small = pa.table({"doc_id": pa.array([0], type=pa.int64()),
                      "text": ["a b c d e"]})
    est2 = approx_distinct_terms(rd.from_arrow(small)).take_all()[0]["estimate"]
    assert est2 == 5


def test_asof_join_semantics(ray_session):
    """Inclusive bound, equal-ts tie to highest id, no cross-user fill,
    lefts with no prior right dropped."""
    import pyarrow as pa
    from ts_type_filter_ray.functions.events import asof_join_prior
    us = [1, 1, 1, 1, 2, 2, 3]
    tss = [100, 100, 100, 200, 50, 40, 10]
    types = ["view", "view", "purchase", "purchase",
             "purchase", "view", "purchase"]
    tbl = pa.table({
        "event_id": pa.array(range(7), type=pa.int64()),
        "user_id": pa.array(us, type=pa.int64()),
        "ts": pa.array([np.datetime64(t, "us") for t in tss],
                       type=pa.timestamp("us")),
        "event_type": types,
        "value": pa.array([0.0] * 7),
        "props": [""] * 7,
    })
    out = {r["event_id"]: r["matched_event_id"]
           for r in asof_join_prior(rd.from_arrow(tbl)).take_all()}
    # purchase 2 at ts=100: views 0,1 at ts=100 qualify (inclusive),
    # tie -> max id 1; purchase 3 at 200 -> view 1 still latest;
    # purchase 4 (user 2, ts 50) -> view 5 (ts 40); purchase 6 (user 3)
    # has no view -> dropped
    assert out == {2: 1, 3: 1, 4: 5}


def test_range_join_boundaries(ray_session):
    """Both interval endpoints inclusive; zero-count lefts kept."""
    from ts_type_filter_ray.functions.events import range_join_count
    us = [1, 1, 1, 1, 2]
    tss = [0, 1_000_000, 61_000_000, 62_000_000, 5]
    types = ["view", "view", "purchase", "purchase", "purchase"]
    tbl = pa.table({
        "event_id": pa.array(range(5), type=pa.int64()),
        "user_id": pa.array(us, type=pa.int64()),
        "ts": pa.array([np.datetime64(t, "us") for t in tss],
                       type=pa.timestamp("us")),
        "event_type": types,
        "value": pa.array([0.0] * 5),
        "props": [""] * 5,
    })
    out = {r["event_id"]: r["n_matched"] for r in range_join_count(
        rd.from_arrow(tbl), window_sec=60).take_all()}
    # purchase 2 at 61s, window [1s, 61s]: view at 1s in (inclusive
    # lower), view at 0s out; purchase 3 at 62s, window [2s, 62s]: none;
    # purchase 4 (user 2): no views -> 0
    assert out == {2: 1, 3: 0, 4: 0}


def test_connected_components_chain(ray_session):
    """A long path graph needs multiple propagation rounds; isolated
    nodes and a separate clique must stay distinct."""
    from ts_type_filter_ray.functions.graph import connected_components
    # path 0-1-2-...-9, clique {20,21,22}, isolated 30
    edges = [(i, i + 1) for i in range(9)] + [(20, 21), (21, 22), (20, 22)]
    nodes = list(range(10)) + [20, 21, 22, 30]
    e = pa.table({"id_a": pa.array([a for a, _ in edges], type=pa.int64()),
                  "id_b": pa.array([b for _, b in edges], type=pa.int64())})
    n = pa.table({"doc_id": pa.array(nodes, type=pa.int64())})
    out = {r["doc_id"]: r["component"] for r in connected_components(
        rd.from_arrow(n), rd.from_arrow(e)).take_all()}
    assert all(out[i] == 0 for i in range(10))
    assert all(out[i] == 20 for i in (20, 21, 22))
    assert out[30] == 30


def test_decontaminate_bloom_equals_exhaustive(ray_session):
    from ts_type_filter_ray.functions.decontam import (decontaminate,
                                                       decontaminate_bloom)
    texts = {0: "a b c d e f", 1: "x y z a b c", 2: "q r s t u v",
             5: "d e f extra tail", 3: "no overlap at all here"}
    tbl = pa.table({"doc_id": pa.array(sorted(texts), type=pa.int64()),
                    "text": [texts[k] for k in sorted(texts)]})
    a = sorted((r["doc_id"], r["n_shared_shingles"]) for r in
               decontaminate(rd.from_arrow(tbl), bench_mod=5).take_all())
    b = sorted((r["doc_id"], r["n_shared_shingles"]) for r in
               decontaminate_bloom(rd.from_arrow(tbl),
                                   bench_mod=5).take_all())
    assert a == b and len(a) > 0


def test_heavy_hitters_equals_exact_topk(ray_session):
    """With vocabulary >> capacity, MG candidates must still contain the
    true top-k, and the exact re-count must equal the true counts."""
    from collections import Counter
    from ts_type_filter_ray.functions.sketches import heavy_hitters
    rng = np.random.default_rng(3)
    vocab = np.array([f"w{i}" for i in range(3000)])
    w = 1.0 / np.arange(1, 3001) ** 1.2
    w /= w.sum()
    docs, counter = [], Counter()
    for d in range(200):
        toks = vocab[rng.choice(3000, size=80, p=w)]
        counter.update(toks.tolist())
        docs.append(" ".join(toks))
    tbl = pa.table({"doc_id": pa.array(range(200), type=pa.int64()),
                    "text": docs})
    got = [(r["rank"], r["term"], r["n"]) for r in heavy_hitters(
        rd.from_arrow(tbl), k=10, capacity=256).take_all()]
    exact = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert got == [(i + 1, t, n) for i, (t, n) in enumerate(exact)]


def test_exact_float_quantiles_negative_and_dupes(ray_session):
    from ts_type_filter_ray.functions.events import exact_value_quantiles
    vals = [-5.5, -0.25, 0.0, 0.0, 1.75, 1.75, 2.0, 100.25, -5.5, 3.5]
    tbl = pa.table({
        "event_id": pa.array(range(10), type=pa.int64()),
        "user_id": pa.array([0] * 10, type=pa.int64()),
        "ts": pa.array([np.datetime64(i, "us") for i in range(10)],
                       type=pa.timestamp("us")),
        "event_type": ["x"] * 10,
        "value": pa.array(vals, type=pa.float64()),
        "props": [""] * 10,
    })
    row = exact_value_quantiles(rd.from_arrow(tbl),
                                ps=(0.1, 0.5, 0.9)).take_all()[0]
    s = sorted(vals)
    assert row["p10"] == s[0]   # ceil(0.1*10)=1 -> 1st
    assert row["p50"] == s[4]   # 5th
    assert row["p90"] == s[8]   # 9th
    assert row["n_events"] == 10


def test_knn_graph_descent_clustered_recall(ray_session):
    # 12 tight clusters of 25 in 16-dim: NN-Descent's home turf — the
    # neighbor-of-neighbor expansion must recover ≥95% of the exact
    # graph in 3 rounds from a pseudo-random init (~2% recall)
    rng = np.random.default_rng(7)
    cents = rng.normal(size=(12, 16))
    vecs = (np.repeat(cents, 25, axis=0)
            + 0.08 * rng.normal(size=(300, 16)))
    tbl = pa.table({
        "vec_id": pa.array(range(300), type=pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    exact = {(r["vec_id"], r["neighbor_id"])
             for r in ann.knn_join(ds, k=5, block_rows=64).take_all()}
    graph = ann.knn_graph_descent(ds, k=5, iters=3)
    got_rows = graph.take_all()
    got = {(r["vec_id"], r["neighbor_id"]) for r in got_rows}
    assert len(got & exact) / len(exact) >= 0.95
    # beam search over the built graph answers queries ≈ brute force
    qids = [3, 77, 150, 299]
    want = {(r["query_id"], r["vec_id"])
            for r in ann.brute_force_topk(ds, qids, k=10).take_all()}
    beam_tbl = ann.graph_search_topk(
        rd.from_arrow(tbl), graph, qids, k=10, ef=32,
        num_hops=4).take_all()
    beam = {(r["query_id"], r["vec_id"]) for r in beam_tbl}
    assert len(beam & want) / len(want) >= 0.95
    assert len(beam) == len(want)  # k rows per query either way
    # bucket-partitioned graph layout: per-hop pruned reads must return
    # EXACTLY the Dataset-mode result (same beams, scores, ranks)
    import tempfile
    gdir = tempfile.mkdtemp(prefix="graft_graph_idx_")
    ann.write_graph_index(graph, gdir, num_buckets=8)
    beam_idx = ann.graph_search_topk(
        rd.from_arrow(tbl), gdir, qids, k=10, ef=32,
        num_hops=4).take_all()
    assert beam_idx == beam_tbl
    # vector-index mode on top: pruned candidate gathers + driver
    # matmul must also be identical (full-index mode: both layouts)
    vdir = tempfile.mkdtemp(prefix="graft_vec_idx_")
    ann.write_vector_index(rd.from_arrow(tbl), vdir, num_buckets=8)
    beam_full = ann.graph_search_topk(
        vdir, gdir, qids, k=10, ef=32, num_hops=4).take_all()
    assert beam_full == beam_tbl
    # exactly k rows per vector, ranks 1..k, sims descending per vec
    per_vec = {}
    for r in sorted(got_rows, key=lambda r: (r["vec_id"], r["rank"])):
        per_vec.setdefault(r["vec_id"], []).append(r)
    assert len(per_vec) == 300
    for rows in per_vec.values():
        assert [r["rank"] for r in rows] == [1, 2, 3, 4, 5]
        sims = [r["sim"] for r in rows]
        assert sims == sorted(sims, reverse=True)


def test_heavy_hitters_certification_raises_on_flat(ray_session):
    """A near-flat distribution with a tiny capacity cannot separate the
    k-th count from the exclusion bound — certify=True must refuse
    rather than return an uncertified list; certify=False returns k
    best-effort rows."""
    from ts_type_filter_ray.functions.sketches import heavy_hitters
    rng = np.random.default_rng(5)
    vocab = np.array([f"u{i}" for i in range(2000)])
    docs = [" ".join(vocab[rng.choice(2000, size=60)].tolist())
            for _ in range(100)]
    tbl = pa.table({"doc_id": pa.array(range(100), type=pa.int64()),
                    "text": docs})
    with pytest.raises(Exception) as ei:
        heavy_hitters(rd.from_arrow(tbl), k=10, capacity=16).take_all()
    assert "not certifiably exact" in str(ei.value)
    loose = heavy_hitters(rd.from_arrow(tbl), k=10, capacity=16,
                          certify=False).take_all()
    # best-effort: ≤ k survivors (a flat corpus can decrement most
    # candidates away), exact re-counts for whatever survived
    assert 1 <= len(loose) <= 10


def test_cluster_canonicals_ties_and_singletons(ray_session):
    from ts_type_filter_ray.functions.graph import cluster_canonicals
    clusters = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
        "component": pa.array([0, 0, 0, 3, 4], type=pa.int64()),
    }))
    scores = rd.from_arrow(pa.table({
        "doc_id": pa.array([4, 3, 2, 1, 0], type=pa.int64()),
        "n_tokens": pa.array([7, 9, 5, 5, 2], type=pa.int64()),
    }))
    out = [(r["component"], r["keep_doc_id"], r["n_members"],
            r["max_score"])
           for r in cluster_canonicals(clusters, scores).take_all()]
    # component 0: docs 0(2) 1(5) 2(5) — tie on 5 → min doc_id 1 wins
    assert out == [(0, 1, 3, 5), (3, 3, 1, 9), (4, 4, 1, 7)]


def test_minhash_batch_bitidentical_to_per_row():
    """The vectorized batch signature path (workspace kernels, no per-row
    Python) must produce bit-identical signatures to the per-document
    reference path ``MinHashStage.signature`` — including blank docs,
    whole-text shingles (len < k), repeated shingles, and padding."""
    import numpy as np
    import pyarrow as pa

    from ts_type_filter_ray.functions.dedup import (MinHashStage,
                                                    _shingle_hashes,
                                                    _shingle_hashes_batch)

    texts = ["a b c d e", "", "   ", "x", "x y", "a b c",
             "q w e r t y u", "dup dup dup dup", "  padded   text  here ",
             "a\nb\tc d", "single", "a b c d e",
             " ".join(f"t{i % 17}" for i in range(500))]
    st = MinHashStage(num_perm=64, shingle_k=3)
    batch = pa.table({"doc_id": pa.array(range(len(texts)),
                                         type=pa.int64()),
                      "text": pa.array(texts)})
    got = np.array(st(batch)["sig"].to_pylist(), dtype=np.uint64)
    ref = np.stack([st.signature(t) for t in texts])
    assert np.array_equal(got, ref)
    # and the batched shingle multisets dedupe to the per-row sets
    hs, off = _shingle_hashes_batch(batch["text"], 3)
    for i, t in enumerate(texts):
        assert np.array_equal(np.unique(hs[off[i]:off[i + 1]]),
                              _shingle_hashes(t, 3))


def test_pq_topk_recall_and_encode(ray_session):
    """Product quantization: ADC scan + exact refine recovers the
    brute-force top-k on the clustered fixture; codebooks and codes are
    deterministic; pure ADC (refine=0) is the honest candidate
    generator, not a ranker, on near-duplicate clusters."""
    rng = np.random.default_rng(7)
    cents = rng.normal(size=(12, 16))
    vecs = (np.repeat(cents, 25, axis=0)
            + 0.08 * rng.normal(size=(300, 16)))
    tbl = pa.table({
        "vec_id": pa.array(range(300), type=pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    qids = [3, 77, 150, 299]
    want = {(r["query_id"], r["vec_id"])
            for r in ann.brute_force_topk(ds, qids, k=10).take_all()}
    got_rows = ann.pq_topk(ds, qids, k=10, m=4, ksub=16,
                           refine=4).take_all()
    got = {(r["query_id"], r["vec_id"]) for r in got_rows}
    assert len(got & want) / len(want) >= 0.95
    # k rows per query, ranks 1..k, sims descending, sim is EXACT cosine
    per_q = {}
    for r in sorted(got_rows, key=lambda r: (r["query_id"], r["rank"])):
        per_q.setdefault(r["query_id"], []).append(r)
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    for q, rows in per_q.items():
        assert [r["rank"] for r in rows] == list(range(1, 11))
        sims = [r["sim"] for r in rows]
        assert sims == sorted(sims, reverse=True)
        for r in rows:
            assert abs(r["sim"] - float(unit[q] @ unit[r["vec_id"]])) < 1e-6
    # codebooks deterministic; codes are m uint8 ids under ksub
    b1 = ann.train_pq_codebooks(ds, m=4, ksub=16, iters=2)
    b2 = ann.train_pq_codebooks(ds, m=4, ksub=16, iters=2)
    assert np.array_equal(b1, b2)
    codes = ann.pq_encode(ds, b1).take_all()
    assert len(codes) == 300
    for r in codes[:20]:
        assert len(r["code"]) == 4
        assert all(0 <= c < 16 for c in r["code"])


def test_pack_token_spans_invariants(ray_session):
    """Concat-and-chunk packing manifest: per-doc token totals are
    preserved, every sequence except the last is exactly full, docs
    straddle boundaries in consecutive sequences, empty docs vanish —
    across multiple prefix-sum partitions (part_bits=1)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions.packing import pack_token_spans

    docs = ["a b c", "", "d e f g h i j", "k", "l m n o p",
            "q r", "s t u v w x y z aa bb"]
    n_tok = [len(d.split()) for d in docs]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs, type=pa.string()),
    })).repartition(3)
    L = 4
    out = pack_token_spans(ds, seq_len=L, part_bits=1).to_pandas()

    # per-doc totals preserved; empty docs absent
    got_tot = out.groupby("doc_id").n_tokens.sum().to_dict()
    assert got_tot == {d: n for d, n in enumerate(n_tok) if n > 0}
    # every sequence except the last is exactly full
    per_seq = out.groupby("seq_id").n_tokens.sum()
    total = sum(n_tok)
    assert sorted(per_seq.index) == list(range((total + L - 1) // L))
    assert (per_seq[per_seq.index < per_seq.index.max()] == L).all()
    assert per_seq[per_seq.index.max()] == total - L * (total // L) or \
        per_seq[per_seq.index.max()] == L
    # straddling docs cover consecutive sequences
    for d in out.doc_id.unique():
        seqs = sorted(out[out.doc_id == d].seq_id.tolist())
        assert seqs == list(range(seqs[0], seqs[-1] + 1)), d
    # offsets follow doc order: doc 0 starts sequence 0
    first = out[out.doc_id == 0]
    assert first.seq_id.min() == 0
    with __import__("pytest").raises(ValueError):
        pack_token_spans(ds, seq_len=0)


def test_kll_exact_mode_is_percentile_disc(ray_session):
    """k >= n => no compaction => bit-exact percentile_disc (the
    exactness configuration the driver gate runs)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions.sketches import kll_quantiles

    rng = np.random.default_rng(11)
    vals = rng.normal(size=20_000)
    ds = rd.from_arrow(pa.table({"value": pa.array(vals)})).repartition(7)
    row = kll_quantiles(ds, k=50_000).take_all()[0]
    s = np.sort(vals)
    assert row["n_events"] == len(vals)
    for p in (50, 90, 99):
        rank = max(1, int(np.ceil(p / 100 * len(vals))))
        assert row[f"p{p}"] == s[rank - 1]


def test_kll_approx_rank_error_bounded(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions.sketches import KllSketch, kll_quantiles

    rng = np.random.default_rng(12)
    vals = rng.exponential(size=80_000)
    s = np.sort(vals)
    ds = rd.from_arrow(pa.table({"value": pa.array(vals)})).repartition(16)
    row = kll_quantiles(ds, k=200).take_all()[0]
    worst = max(abs(np.searchsorted(s, row[f"p{p}"]) / len(vals) - p / 100)
                for p in (50, 90, 99))
    assert worst < 0.03
    # bounded state: a k=200 sketch over 80k values retains O(k log n)
    sk = KllSketch(k=200)
    sk.insert_many(vals)
    assert sum(len(a) for a in sk.levels) < 2_000


def test_kll_deterministic_and_merge_order_free_weights(ray_session):
    import numpy as np

    from ts_type_filter_ray.functions.sketches import KllSketch

    rng = np.random.default_rng(13)
    vals = rng.normal(size=30_000)
    a, b = KllSketch(k=64), KllSketch(k=64)
    for arr in np.array_split(vals, 9):
        a.insert_many(arr)
        b.insert_many(arr)
    assert a.n == b.n == len(vals)
    assert all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))
    # total retained weight always equals n
    _, w = a.items()
    assert int(w.sum()) == a.n


def test_triangle_count_brute_force(ray_session):
    """Random multigraph with duplicate / reversed edges and self-loops
    vs the textbook adjacency intersection count."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions.graph import triangle_count

    rng = np.random.default_rng(5)
    n = 60
    edges = set()
    for _ in range(300):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    tri = sum(1 for a, b in edges for c in (adj[a] & adj[b]) if c > b)
    src, dst = [], []
    for a, b in edges:
        src += [a, b, a]
        dst += [b, a, b]
    src.append(3)
    dst.append(3)
    ds = rd.from_arrow(pa.table({
        "src": pa.array(src, type=pa.int64()),
        "dst": pa.array(dst, type=pa.int64()),
    })).repartition(5)
    row = triangle_count(ds, num_parts=4).take_all()[0]
    assert row["n_edges"] == len(edges)
    assert row["n_triangles"] == tri


def test_triangle_count_max_degree_undercounts_only(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions.graph import triangle_count

    # node 0 is a hub closing many triangles; the cap drops only the
    # wedges ANCHORED at over-degree nodes (min-vertex), never edges
    src = [0, 0, 0, 0, 1, 2, 3] + [1]
    dst = [1, 2, 3, 4, 2, 3, 4] + [9]
    ds = rd.from_arrow(pa.table({"src": pa.array(src, type=pa.int64()),
                                 "dst": pa.array(dst, type=pa.int64())}))
    full = triangle_count(ds, num_parts=2).take_all()[0]
    assert full["n_triangles"] == 3  # (0,1,2), (0,2,3), (0,3,4)
    capped = triangle_count(ds, num_parts=2,
                            max_degree=3).take_all()[0]
    assert capped["n_edges"] == full["n_edges"]
    assert capped["n_triangles"] <= full["n_triangles"]


def test_hashed_features_matches_duckdb(ray_session):
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions.textstats import hashed_features

    docs = [(0, "The cat the CAT tHe"), (1, ""), (2, "  x  y z x "),
            (3, "solo"), (4, "   ")]
    tbl = pa.table({"doc_id": pa.array([d for d, _ in docs],
                                       type=pa.int64()),
                    "text": pa.array([t for _, t in docs])})
    got = sorted((r["doc_id"], r["feature_idx"], r["tf"])
                 for r in hashed_features(rd.from_arrow(tbl),
                                          dim_bits=10).take_all())
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = sorted(map(tuple, con.execute(r"""
        with raw as (
          select doc_id,
                 unnest(regexp_split_to_array(lower(trim(text)),'\s+'))
                 as term
          from documents where trim(text) <> '')
        select doc_id, (md5_number_lower(term) % 1024)::BIGINT,
               count(*)::BIGINT
        from raw group by 1, 2""").fetchall()))
    assert got == exp
    # tf mass is conserved: sum(tf) == total tokens
    assert sum(t for _, _, t in got) == sum(len(t.split())
                                            for _, t in docs)


def test_distinct_terms_by_group_matches_duckdb(ray_session):
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions.sketches import distinct_terms_by_group

    docs = [(0, "en", "The cat THE dog"), (1, "en", "cat mouse"),
            (2, "fr", "le chat"), (3, "fr", ""),
            (4, "de", "der DER die das"), (5, "en", "  ")]
    tbl = pa.table({
        "doc_id": pa.array([d for d, _, _ in docs], type=pa.int64()),
        "lang": pa.array([l for _, l, _ in docs]),
        "text": pa.array([t for _, _, t in docs]),
    })
    got = sorted((r["lang"], r["n_distinct_terms"]) for r in
                 distinct_terms_by_group(rd.from_arrow(tbl).repartition(3),
                                         num_parts=4).take_all())
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = [tuple(e) for e in con.execute(r"""
        with raw as (
          select lang,
                 unnest(regexp_split_to_array(lower(trim(text)),'\s+'))
                 as term
          from documents where trim(text) <> '')
        select lang, count(distinct term)::BIGINT
        from raw group by lang order by lang""").fetchall()]
    assert got == exp


def _mmr_reference(rel, pair, cids, k, lam):
    """Pure-python MMR (the published greedy), for parity pinning."""
    selected, remaining = [], list(range(len(cids)))
    while remaining and len(selected) < k:
        best, best_key = None, None
        for i in remaining:
            red = max((pair[i][s] for s in selected), default=0.0)
            score = lam * rel[i] - (1 - lam) * red
            key = (-score, cids[i])
            if best is None or key < best_key:
                best, best_key = i, key
        selected.append(best)
        remaining.remove(best)
    return [cids[s] for s in selected]


def test_mmr_matches_reference_and_diversifies(ray_session, emb):
    import pyarrow.parquet as pq

    from ts_type_filter_ray.functions.ann import (load_query_matrix,
                                                  mmr_topk)

    # NOT lam=0.5: the query point rides in its own pool (rel == sim to
    # the first pick), so at exactly 0.5 every step-2 score cancels to
    # 0 and the order is floating-noise — any other lam is robust
    qids, k, pool, lam = [0, 1], 5, 20, 0.7
    out = mmr_topk(emb, qids, k=k, pool=pool, lam=lam).take_all()
    t = pq.read_table(f"{SF}/embeddings.parquet")
    E = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(t["vec_id"].to_pylist())
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    for qid in qids:
        got = [r["vec_id"] for r in sorted(
            (r for r in out if r["query_id"] == qid),
            key=lambda r: r["rank"])]
        sims = En[np.flatnonzero(ids == qid)[0]] @ En.T
        order = np.lexsort((ids, -sims))[:pool]
        cids = ids[order].tolist()
        rel = sims[order].tolist()
        pair = (En[order] @ En[order].T).tolist()
        exp = _mmr_reference(rel, pair, cids, k, lam)
        assert got == exp
        # diversity: MMR's selected-set max pairwise sim never exceeds
        # the plain top-k's
        plain = ids[np.lexsort((ids, -sims))[:k]]
        def max_pair(sel):
            pos = [np.flatnonzero(ids == v)[0] for v in sel]
            m = En[pos] @ En[pos].T
            np.fill_diagonal(m, -1)
            return m.max()
        assert max_pair(got) <= max_pair(plain) + 1e-12


def test_mmr_lambda1_is_plain_topk(ray_session, emb):
    from ts_type_filter_ray.functions.ann import brute_force_topk, mmr_topk
    plain = [(r["query_id"], r["rank"], r["vec_id"]) for r in
             brute_force_topk(emb, [0, 1, 2], k=7).take_all()]
    got = [(r["query_id"], r["rank"], r["vec_id"]) for r in
           mmr_topk(emb, [0, 1, 2], k=7, pool=21, lam=1.0).take_all()]
    assert sorted(got) == sorted(plain)


def test_gap_filled_windows(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ts_type_filter_ray.functions.events import gap_filled_windows

    # types a,b over 4 hourly windows; b misses the middle two
    base = 3_600_000_000  # 1h in us
    rows = [("a", 0, 1.0), ("a", 1, 2.0), ("a", 3, 3.005),
            ("b", 0, 5.0), ("b", 3, 7.0), ("a", 0, 0.5)]
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([r[1] * base + 5 for r in rows],
                                dtype="int64")).cast(pa.timestamp("us")),
        "event_type": pa.array([r[0] for r in rows]),
        "value": pa.array([r[2] for r in rows]),
    }))
    got = gap_filled_windows(ds, window_sec=3600).take_all()
    assert len(got) == 8  # 2 types x 4 windows, gaps filled
    by = {(r["event_type"], r["window_start"].hour): (r["n_events"],
          r["value_cents"]) for r in got}
    assert by[("a", 0)] == (2, 150)
    assert by[("a", 2)] == (0, 0)   # zero-filled gap
    assert by[("a", 3)] == (1, 301)  # half-away rounding of 3.005
    assert by[("b", 1)] == (0, 0)
    assert by[("b", 2)] == (0, 0)
    assert by[("b", 3)] == (1, 700)


def test_gap_filled_windows_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from ts_type_filter_ray.functions.events import gap_filled_windows
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array([], type=pa.int64()),
        "ts": pa.array([], type=pa.timestamp("us")),
        "event_type": pa.array([], type=pa.string()),
        "value": pa.array([], type=pa.float64()),
    }))
    assert gap_filled_windows(ds, window_sec=60).take_all() == []


def test_brute_force_topk_tie_exact_across_batch_cutoff(ray_session):
    """Duplicate vectors tied at the local top-k boundary must resolve
    by (sim desc, vec_id asc) — regression for the argpartition
    arbitrary-tie drop."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from ts_type_filter_ray.functions.ann import brute_force_topk
    # 30 identical vectors (all sim ties) + the query vector itself
    n = 30
    emb = [[1.0, 0.0]] * n
    t = pa.table({
        "vec_id": pa.array(np.arange(n), type=pa.int64()),
        "embedding": pa.array(emb, type=pa.list_(pa.float32())),
    })
    out = (brute_force_topk(rd.from_arrow(t), [0], k=5).to_pandas()
           .sort_values("rank"))
    # every sim is 1.0 → the k smallest vec_ids win, in order
    assert out["vec_id"].tolist() == [0, 1, 2, 3, 4]
