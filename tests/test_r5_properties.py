"""Property tests for the r5 pure kernels (no Ray): the salted-LM
hot-key membership helper and the star-CC convergence signature."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ts_type_filter_ray.functions.graph import _pair_signature
from ts_type_filter_ray.functions.lm import _hot_membership

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(st.lists(u64, max_size=40), st.lists(u64, max_size=60))
@settings(max_examples=200, deadline=None)
def test_hot_membership_equals_isin(keys, vals):
    k = np.unique(np.array(keys, dtype=np.uint64))
    v = np.array(vals, dtype=np.uint64)
    mask, pos = _hot_membership(k, v)
    assert (mask == np.isin(v, k)).all()
    # positions point at the matching key for every member
    if mask.any():
        assert (k[pos[mask]] == v[mask]).all()


@given(st.lists(st.tuples(st.integers(0, 1 << 40),
                          st.integers(0, 1 << 40)), max_size=50),
       st.randoms())
@settings(max_examples=100, deadline=None)
def test_pair_signature_order_insensitive(pairs, rnd):
    lo = np.array([p[0] for p in pairs], dtype=np.int64)
    hi = np.array([p[1] for p in pairs], dtype=np.int64)
    perm = np.arange(len(pairs))
    rnd.shuffle(perm)
    assert _pair_signature(lo, hi) == _pair_signature(lo[perm], hi[perm])


@given(st.lists(st.tuples(st.integers(0, 1 << 40),
                          st.integers(0, 1 << 40)),
                min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_pair_signature_detects_single_flip(pairs):
    lo = np.array([p[0] for p in pairs], dtype=np.int64)
    hi = np.array([p[1] for p in pairs], dtype=np.int64)
    lo2 = lo.copy()
    lo2[0] ^= 1  # one pair changes
    a = _pair_signature(lo, hi)
    b = _pair_signature(lo2, hi)
    # count equal; the xor fingerprint changes by h(old)^h(new), which
    # is nonzero unless the two distinct pair values collide under
    # splitmix — effectively impossible on this domain
    assert a[0] == b[0]
    assert a != b
