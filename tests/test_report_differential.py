"""Differential tests: the plain-float tau-c code against the numpy bodies it replaced.

``orient``, ``kendall_tau_c`` and ``correlation_matrix`` run without numpy so
that ``compare`` never loads it.  They subtract, multiply and compare the same
IEEE doubles the array code did, so every value must agree bit for bit with
the oracles in ``tests/oracles.py``.  Inputs mix ties and constant lists,
signed zeros, magnitudes near 1e300 (where differences and products overflow
to infinity), infinities, numpy arrays of floats and integers, every direction
with signed and magnitude orientation, and metrics with missing systems.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import Degenerate, Direction, FairRankError, MetricResult
from fairrank.report import correlation_matrix, kendall_tau_c, orient

from oracles import oracle_correlation_matrix, oracle_kendall_tau_c, oracle_orient

# few distinct values, so ties and constant lists are common
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324)
FINITE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.one_of(FINITE, st.sampled_from((math.inf, -math.inf)))
DIRECTIONS = st.sampled_from((None, *Direction))


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@st.composite
def containers(draw, n):
    """``n`` values as a list, a tuple, or a float or integer numpy array."""
    kind = draw(st.sampled_from(("list", "tuple", "float64", "int64")))
    if kind == "int64":
        return np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n)),
                        dtype=np.int64)
    values = draw(st.lists(VALUES, min_size=n, max_size=n))
    return {"list": list, "tuple": tuple, "float64": np.array}[kind](values)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (Degenerate, FairRankError) as exc:
        return type(exc), str(exc)


@given(st.data(), st.integers(0, 9), DIRECTIONS, st.booleans())
@settings(max_examples=400, deadline=None)
def test_orient_matches_the_numpy_body_bit_for_bit(data, n, direction, magnitude):
    values = data.draw(containers(n))
    got = orient(values, direction, magnitude)
    assert isinstance(got, list) and all(type(v) is float for v in got)
    assert _bits(got) == _bits(oracle_orient(values, direction, magnitude).tolist())


@given(st.data(), st.integers(0, 9), DIRECTIONS, DIRECTIONS, st.booleans())
@settings(max_examples=600, deadline=None)
def test_kendall_tau_c_matches_the_numpy_body_bit_for_bit(data, n, dx, dy, magnitude):
    x = data.draw(containers(n))
    # now and then a length mismatch, which both must refuse
    y = data.draw(containers(n if data.draw(st.integers(0, 9)) else n + 1))
    got = _outcome(kendall_tau_c, x, y, dx, dy, magnitude)
    want = _outcome(oracle_kendall_tau_c, x, y, dx, dy, magnitude)
    if isinstance(want, float):
        assert type(got) is float and _bits([got]) == _bits([want])
    else:
        assert got == want


METRICS = ("prefD", "AWRF", "DP", "logDP", "EED", "IAA", "EER", "IntraAcc", "zz_custom",
           "DP_rbp", "logDP_rbp")
SYSTEMS = tuple(f"s{i}" for i in range(6))


@st.composite
def metric_tables(draw):
    """MetricResults for some metrics over some systems; a metric may lack systems."""
    results = []
    for metric in draw(st.lists(st.sampled_from(METRICS), min_size=1, max_size=6, unique=True)):
        direction = draw(st.sampled_from(tuple(Direction)))
        for system in draw(st.lists(st.sampled_from(SYSTEMS), max_size=6, unique=True)):
            results.append(MetricResult(metric, system, draw(FINITE), 10, 0, direction))
    return draw(st.permutations(results))


@given(metric_tables(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_correlation_matrix_matches_the_numpy_body_bit_for_bit(results, magnitude):
    want = _outcome(oracle_correlation_matrix, results, magnitude)
    got = _outcome(correlation_matrix, results, magnitude)
    if not isinstance(want, tuple) or not isinstance(want[1], np.ndarray):
        assert got == want
        return
    names, taus = want
    assert got.metrics == names
    k = len(names)
    assert set(got.taus) == {(i, j) for i in range(k) for j in range(k)}
    for i in range(k):
        for j in range(k):
            t, w = got.taus[i, j], float(taus[i, j])
            assert type(t) is float
            assert (math.isnan(t) and math.isnan(w)) or _bits([t]) == _bits([w]), (i, j)
            if not math.isnan(w):
                assert got.tau(names[i], names[j]) == t
