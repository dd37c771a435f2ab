import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import FairRankError
from fairrank.distance import ALL_PROTECTED_TARGET, ZERO_UNPROTECTED_SHARE, deltas_of

from conftest import distance_of, share_pair
from oracles import oracle_kl_bits


def nd(share, p):
    return distance_of("nd", share_pair(share), share_pair(p), 0)[0]


def kl(observed, target):
    return distance_of("kl", observed, target)[0]


def test_nd_examples():
    assert nd(0.3, 0.5) == pytest.approx(-0.2)
    assert nd(0.5, 0.5) == 0.0
    assert nd(1.0, 0.5) == pytest.approx(0.5)


def test_rd_examples():
    assert distance_of("rd", share_pair(0.5), share_pair(0.5), 0) == (0.0, None)
    assert distance_of("rd", share_pair(0.2), share_pair(0.5), 0)[0] == pytest.approx(-0.75)
    value, reason = distance_of("rd", share_pair(1.0), share_pair(0.5), 0)
    assert reason == ZERO_UNPROTECTED_SHARE and math.isnan(value)
    value, reason = distance_of("rd", share_pair(0.5), share_pair(1.0), 0)
    assert reason == ALL_PROTECTED_TARGET and math.isnan(value)


def test_kl_examples():
    assert kl([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)
    want = oracle_kl_bits([0.75, 0.25], [0.5, 0.5])
    assert kl([0.75, 0.25], [0.5, 0.5]) == pytest.approx(want)
    assert want == pytest.approx(0.18872187554086717)


def test_kl_zero_target_smoothed_finite():
    v = kl([0.5, 0.5], [1.0, 0.0])
    assert math.isfinite(v) and v > 0


def test_delta_dispatch():
    assert nd(0.3, 0.5) == pytest.approx(-0.2)
    with pytest.raises(FairRankError):
        distance_of("manhattan", share_pair(0.3), share_pair(0.5), 0)
    with pytest.raises(FairRankError):
        distance_of("nd", share_pair(0.3), share_pair(0.5))  # needs protected index


def test_input_validation():
    with pytest.raises(FairRankError, match="different group counts"):
        kl([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])


@st.composite
def distributions(draw, size=None):
    n = size or draw(st.integers(2, 5))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    vec = np.array(raw)
    return vec / vec.sum()


@given(distributions(), distributions())
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative_and_zero_iff_equal(o, t):
    if o.size != t.size:
        o = o[: min(o.size, t.size)]
        t = t[: o.size]
        o, t = o / o.sum(), t / t.sum()
    v = kl(o, t)
    assert v >= 0.0
    if np.allclose(o, t, atol=1e-12):
        assert v < 1e-9
    if v < 1e-12:
        assert np.allclose(o, t, atol=1e-5)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_nd_range_and_lipschitz(s1, s2, p):
    d1, d2 = nd(s1, p), nd(s2, p)
    assert -1.0 <= d1 <= 1.0
    assert abs(abs(d1) - abs(d2)) <= abs(s1 - s2) + 1e-12


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_rd_nd_sign_agreement(share, p):
    d_nd = nd(share, p)
    d_rd = distance_of("rd", share_pair(share), share_pair(p), 0)[0]
    assert math.copysign(1, d_nd) == math.copysign(1, d_rd) or d_nd == 0 or d_rd == 0


@st.composite
def target_rows(draw):
    """(kind, observed (n, g), target (n, g)): rows with empty shares, rd rows whose
    protected share is 1 and targets whose protected entry is 1."""
    kind = draw(st.sampled_from(("nd", "rd", "kl")))
    g, n = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    entry = st.sampled_from((0.0, 0.0, 0.1, 0.25, 1.0, 3.0))

    def row():
        raw = np.array(draw(st.lists(entry, min_size=g, max_size=g)))
        if draw(st.booleans()) or raw.sum() <= 0:
            raw = np.eye(g)[0] if draw(st.booleans()) else raw + np.eye(g)[-1]
        return raw / raw.sum()

    return kind, np.array([row() for _ in range(n)]), np.array([row() for _ in range(n)])


@given(target_rows())
@settings(max_examples=300, deadline=None)
def test_a_target_per_row_is_each_row_against_its_own(case):
    kind, observed, target = case
    p = None if kind == "kl" else 0
    values, reasons = deltas_of(kind, observed, target, p)
    alone = [deltas_of(kind, o[None], t, p) for o, t in zip(observed, target)]
    assert values.tobytes() == np.concatenate([v for v, _ in alone]).tobytes()
    assert reasons.tolist() == [r[0] for _, r in alone]
