"""Seeded inputs of the benchmark: code corpora and the query mix.

The generator lives here, not in the package, so a change to the program
can never change what the benchmark feeds it. Two corpus shapes:

- ``code``: zipf-skewed source code. A few hot tokens (``import``,
  ``def``, ...) fill half of every document, so per-batch token dedup and
  the stem cache help a lot.
- ``high``: a high-vocabulary shape. A flat zipf over 200k identifiers and
  a 500k-word pool make most tokens in a batch near-unique, which defeats
  the stem cache and per-batch dedup.

Every document also carries a few per-document singleton tokens; they are
the benchmark's "rare" queries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

HOT = ["import", "def", "self", "return", "class", "from", "if", "else",
       "for", "while", "in", "not", "None", "True", "False", "=", "==",
       "(", ")", "->", "{", "}", "const", "let", "function", "var",
       "public", "void", "fn", "func"]
# hot tokens that are plain words: usable as boolean-expression leaves
HOT_WORDS = [t for t in HOT if t.isalpha()]
PUNCT = ["foo():", "x=1;", "()=>", "err!=nil", "i++;", "a[0]", "/*", "*/",
         "//", "..."]
_SYLLABLES = ["ba", "ker", "lo", "mi", "ran", "tes", "con", "pro", "di",
              "sta", "vel", "mor", "gen", "tri", "pal", "sun", "ver", "qua",
              "nel", "dor"]
_SUFFIXES = ["", "", "s", "ing", "ed", "er", "ly", "ness", "ation",
             "ities", "ful", "ize"]
_VERBS = ["get", "set", "make", "parse", "load", "read", "write", "handle",
          "build", "check"]

SHAPES = {
    # mid-tier identifiers, mid zipf exponent, hot-token share,
    # word-pool size
    "code": (2_000, 1.3, 0.5, 5_000),
    "high": (200_000, 1.05, 0.125, 500_000),
}


def _zipf(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def words(rng: np.random.Generator, n: int) -> np.ndarray:
    """*n* English-looking words (2-4 syllables + an inflection), so the
    Porter2 stemmer has real suffixes to strip."""
    k = rng.integers(2, 5, size=n)
    syl = rng.integers(0, len(_SYLLABLES), size=(n, 4))
    suf = rng.integers(0, len(_SUFFIXES), size=n)
    return np.array(["".join(_SYLLABLES[j] for j in syl[i, :k[i]])
                     + _SUFFIXES[suf[i]] for i in range(n)], dtype=object)


def mid_identifiers(n: int) -> np.ndarray:
    return np.array([f"{_VERBS[i % len(_VERBS)]}_{i}x" for i in range(n)],
                    dtype=object)


@dataclass
class Corpus:
    """Generated documents in read order: ``contents[i]`` becomes doc
    ``first_id + i``."""
    contents: list[str]
    shape: str
    rare: list[str] = field(default_factory=list)  # one singleton per doc

    def write(self, out_dir: str, num_files: int = 8) -> int:
        """Write the corpus as Parquet; returns the bytes written."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        os.makedirs(out_dir, exist_ok=True)
        n = len(self.contents)
        table = pa.table({
            "repo": pa.array([f"org{i % 7}/proj{i % 13}" for i in range(n)]),
            "path": pa.array([f"src/mod{i % 31}/file_{i}.py"
                              for i in range(n)]),
            "lang": pa.array(["py"] * n),
            "content": pa.array(self.contents, type=pa.large_string()),
        })
        per = -(-n // num_files)
        total = 0
        for f in range(num_files):
            chunk = table.slice(f * per, per)
            if chunk.num_rows == 0:
                break
            p = os.path.join(out_dir, f"part-{f:05d}.parquet")
            pq.write_table(chunk, p, row_group_size=1024)
            total += os.path.getsize(p)
        return total


def make_corpus(seed: int, num_docs: int, shape: str = "code",
                tag: str = "d", doc_len: tuple[int, int] = (20, 200)
                ) -> Corpus:
    """Seeded corpus of *num_docs* documents of the given *shape*. *tag*
    namespaces the singleton tokens so batches generated for the same
    seed never share them."""
    n_mid, mid_s, hot_share, pool = SHAPES[shape]
    rng = np.random.default_rng([seed, sum(map(ord, shape + tag))])
    hot = np.array(HOT, dtype=object)
    mid = mid_identifiers(n_mid)
    vocab = words(rng, min(pool, 20_000))
    punct = np.array(PUNCT, dtype=object)

    lens = rng.integers(doc_len[0], doc_len[1], size=num_docs)
    total = int(lens.sum())
    n_hot = (lens * hot_share).astype(np.int64)
    n_mid_t = ((lens - n_hot) * 2 // 3)
    # one flat token stream, sliced per document
    hot_tok = hot[rng.choice(len(hot), size=total, p=_zipf(len(hot), 1.1))]
    mid_tok = mid[rng.choice(n_mid, size=total, p=_zipf(n_mid, mid_s))]
    kind = rng.random(total)
    tail_word = rng.integers(0, pool, size=total)
    punct_tok = punct[rng.integers(0, len(punct), size=total)]
    uniq_k = rng.integers(0, 3, size=total)

    contents: list[str] = []
    rare: list[str] = []
    pos = 0
    for d in range(num_docs):
        n = int(lens[d])
        h, m = int(n_hot[d]), int(n_mid_t[d])
        toks = list(hot_tok[pos:pos + h]) + list(mid_tok[pos + h:pos + h + m])
        for j in range(pos + h + m, pos + n):
            r = kind[j]
            if r < 0.3:
                toks.append(f"{tag}{d}q{uniq_k[j]}")
            elif r < 0.55:
                toks.append(punct_tok[j])
            else:
                w = int(tail_word[j])
                # pools beyond the generated word list get numbered words
                toks.append(vocab[w] if w < len(vocab) else f"w{w}")
        singleton = f"{tag}{d}q9"
        toks.append(singleton)
        rare.append(singleton)
        order = rng.permutation(len(toks))
        toks = [toks[i] for i in order]
        contents.append("\n".join(" ".join(toks[k:k + 10])
                                  for k in range(0, len(toks), 10)))
        pos += n
    return Corpus(contents=contents, shape=shape, rare=rare)


# -- query mix -------------------------------------------------------------

BM25_CLASSES = ("hot1", "hot3", "mid2", "rare", "nohit")


@dataclass
class QueryMix:
    """Distinct queries per class and a seeded sequence over them."""
    bm25: list[tuple[str, str]]      # (class, query) in loop order
    match: list[str]
    boolean: list[tuple[str, tuple]]  # (expression, its tree)


def make_query_mix(seed: int, corpus: Corpus, length: int = 4000
                   ) -> QueryMix:
    """A seeded closed-loop sequence: *length* BM25 queries, the five
    classes in equal shares, plus match and boolean queries over the same
    vocabulary. Equal shares are an assumption, not a measured traffic
    mix: the p50 and p99 over the whole mix sit near the middle class and
    the slowest class's tail, so a change to one class shows in that
    class's own ``pipelines.query.bm25_p50_ms`` key."""
    rng = np.random.default_rng([seed, 7])
    n_mid = SHAPES[corpus.shape][0]
    mid = mid_identifiers(min(n_mid, 400))  # the well-populated head

    def pick(pool, k):
        return [str(pool[i]) for i in rng.choice(len(pool), size=k,
                                                 replace=False)]

    pools = {
        "hot1": list(HOT),
        "hot3": [" ".join(pick(HOT, 3)) for _ in range(96)],
        "mid2": [" ".join(pick(mid, 2)) for _ in range(128)],
        "rare": [corpus.rare[i] for i in rng.choice(len(corpus.rare),
                                                    size=128, replace=False)],
        "nohit": [f"zz{rng.integers(1 << 30)}nohit" for _ in range(32)],
    }
    # every run of five consecutive BM25 queries holds each class once, so
    # any slice of the loop has the same class mix and its median does
    # not jump between the fast and the slow classes
    classes = []
    for _ in range(length // len(BM25_CLASSES)):
        block = list(BM25_CLASSES)
        rng.shuffle(block)
        classes += block
    bm25 = [(c, pools[c][rng.integers(len(pools[c]))]) for c in classes]

    match = ([" ".join(pick(mid, 2)) for _ in range(64)]
             + [corpus.rare[i] for i in rng.choice(len(corpus.rare), 32)]
             + list(HOT_WORDS))
    rng.shuffle(match)
    leaves = list(HOT_WORDS) + [str(m) for m in mid[:100]]
    boolean = []
    for i in range(64):
        a, b, c = (("term", t) for t in pick(leaves, 3))
        boolean.append([
            (f"{a[1]} AND {b[1]}", ("and", a, b)),
            (f"{a[1]} OR {b[1]}", ("or", a, b)),
            (f"{a[1]} AND NOT {b[1]}", ("andnot", a, b)),
            (f"({a[1]} OR {b[1]}) AND {c[1]}", ("and", ("or", a, b), c)),
        ][i % 4])
    return QueryMix(bm25=bm25, match=match, boolean=boolean)
