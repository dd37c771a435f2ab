import numpy as np
import pytest

from fairrank import (
    AlignmentMatrix,
    Degenerate,
    FairRankError,
    GroupSpace,
    Ranking,
    RelevanceTable,
    request_exposure,
)
from fairrank.compiled import compile_sequence
from fairrank.pipeline import SharedInputs


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


def compile_run(seq, qrels, alignment, groups, config, scores=None):
    """One system given as objects, compiled through a corpus of its own: its view, with
    ``seq``'s distinct rankings as rows, and the shared inputs."""
    view = compile_sequence(seq, qrels, scores)
    return view, SharedInputs(view.corpus, qrels, alignment, groups, config)


def as_row(outcome):
    """A per-draw oracle's outcome as ``pipeline._per_draw`` gives it: a result's
    ``(value, n_requests, n_degenerate)`` row; a raised error's ``(type, message)`` as is."""
    return outcome if isinstance(outcome, tuple) else (
        outcome.value, outcome.n_requests, outcome.n_degenerate)


def share_pair(protected_share: float) -> np.ndarray:
    """Lift a protected proportion to a binomial distribution vector."""
    if not 0 <= protected_share <= 1:
        raise FairRankError(f"share must lie in [0, 1], got {protected_share}")
    return np.array([protected_share, 1.0 - protected_share])
