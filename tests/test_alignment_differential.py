"""Differential tests: alignment variants built as whole arrays.

``AlignmentMatrix`` stacks its rows once, and ``binarize`` and
``apply_unknown_policy`` derive their matrices with one array operation
each.  Random alignments of hard and soft rows (some exactly at the
threshold) must give the same documents, in the same order, with the same
rows as the one-document-at-a-time oracles in ``tests/oracles.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import AlignmentMatrix, GroupSpace, apply_unknown_policy, binarize

from oracles import oracle_binarize_rows, oracle_unknown_rows


@st.composite
def alignments(draw):
    g = draw(st.integers(1, 4))
    threshold = draw(st.sampled_from((0.25, 0.5, 1.0)))
    rows = {}
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("hard", "soft", "at_threshold")))
        row = np.zeros(g)
        if kind == "hard":
            row[draw(st.integers(0, g - 1))] = 1.0
        elif kind == "soft":
            raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=g, max_size=g)))
            row = raw / raw.sum()
        else:
            row[0] = threshold
            row[-1] += 1.0 - threshold
        rows[f"d{draw(st.integers(0, 20))}x{i}"] = row.tolist()
    universe = draw(st.lists(st.sampled_from([*rows, "u0", "u1", "u2"]), max_size=8))
    return g, threshold, rows, universe


def _as_lists(alignment):
    return dict(zip(alignment.docs(), alignment.dense().tolist()))


@given(alignments())
@settings(max_examples=300, deadline=None)
def test_alignment_variants_match_row_oracles(case):
    g, threshold, rows, universe = case
    al = AlignmentMatrix(rows, n_groups=g)
    assert _as_lists(al) == rows
    assert list(al.docs()) == list(rows)

    protected = g - 1
    bal, bgs = binarize(al, GroupSpace(tuple(f"g{j}" for j in range(g)),
                                        protected_index=protected), threshold)
    want = oracle_binarize_rows(rows, protected, threshold)
    assert list(bal.docs()) == list(want) and _as_lists(bal) == want
    assert bgs.names == (f"g{protected}", "rest") and bal.n_groups == 2

    names = tuple(f"g{j}" for j in range(g))
    ext, egs = apply_unknown_policy(al, GroupSpace(names), universe, "group")
    want = oracle_unknown_rows(rows, g, universe)
    assert list(ext.docs()) == list(want) and _as_lists(ext) == want
    assert egs.names == (*names, "unknown") and egs.unknown_index == g

    if g > 1:
        with_unknown = GroupSpace(names, unknown_index=g - 1)
        ext, egs = apply_unknown_policy(al, with_unknown, universe, "group")
        want = oracle_unknown_rows(rows, g, universe, unknown_index=g - 1)
        assert list(ext.docs()) == list(want) and _as_lists(ext) == want
        assert egs == with_unknown
