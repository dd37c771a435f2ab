import numpy as np
import pytest

from fairrank import (
    AlignmentMatrix,
    Degenerate,
    GroupSpace,
    Ranking,
    RelevanceTable,
    request_exposure,
)


@pytest.fixture
def two_groups():
    return GroupSpace(("A", "B"), protected_index=0)


@pytest.fixture
def hard_alignment():
    """Ten docs: d0..d4 in group A (protected), d5..d9 in group B."""
    rows = {f"d{i}": ([1.0, 0.0] if i < 5 else [0.0, 1.0]) for i in range(10)}
    return AlignmentMatrix(rows, n_groups=2)


def make_ranking(docs, request="q"):
    return Ranking(request, tuple(docs))


def random_alignment(rng, docs, n_groups=2, soft=False, unlabeled_frac=0.0):
    rows = {}
    for d in docs:
        if rng.random() < unlabeled_frac:
            continue
        if soft and rng.random() < 0.5:
            vec = rng.dirichlet(np.ones(n_groups))
        else:
            vec = np.zeros(n_groups)
            vec[rng.integers(n_groups)] = 1.0
        rows[d] = vec
    return AlignmentMatrix(rows, n_groups=n_groups) if rows else None


def random_relevance(rng, request, docs, grades=(0, 1, 2)):
    return RelevanceTable({request: {d: float(rng.choice(grades)) for d in docs}})


def request_exposures(seq, relevance, alignment, groups, model):
    """Per-request exposure as the pipeline memoizes it; degenerate requests are absent."""
    out = {}
    for q in seq.requests():
        try:
            out[q] = request_exposure(seq, q, alignment, groups, model, relevance)
        except Degenerate:
            pass
    return out
