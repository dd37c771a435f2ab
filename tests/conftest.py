import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from fairrank import (
    AlignmentMatrix,
    Degenerate,
    FairRankError,
    GroupSpace,
    InputWarning,
    Ranking,
    RankingSequence,
    RelevanceTable,
    binarize,
    request_exposure,
)
from fairrank.compiled import compile_sequence, reduce_requests
from fairrank.distance import deltas_of
from fairrank.exposure import exposures_of
from fairrank.metrics_single import fair_scores
from fairrank.pairwise import sample_pairs_of
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


def exposure_of(ranking, alignment, weights):
    """One ranking's raw group exposure and labeled count, by the batch kernel
    ``exposures_of`` on a batch of one; an all-unlabeled ranking gives zeros and 0."""
    eps, count = exposures_of(np.asarray(weights, dtype=float),
                              alignment.indices(ranking.docs)[None], alignment.dense())
    return eps[0], int(count[0])


def mean_exposure(per_request, rho=None):
    """Per-request exposure vectors combined by ``reduce_requests``, in sorted request
    order: their mean, or their mean weighted by ``rho``."""
    keys = sorted(per_request)
    weight = None if rho is None else np.array([rho.get(q, 0.0) for q in keys])
    sums, mass = reduce_requests("uniform" if rho is None else "arrival",
                                 np.stack([per_request[q] for q in keys]),
                                 np.ones(len(keys), dtype=bool), weight, np.arange(len(keys)))
    return sums / mass


def distance_of(kind, observed, target, protected_index=None):
    """One distribution's distance from ``target`` by ``deltas_of``: the value and None,
    or NaN and why the rd delta is undefined."""
    values, reasons = deltas_of(kind, np.asarray(observed, dtype=float)[None],
                                np.asarray(target, dtype=float), protected_index)
    return float(values[0]), reasons[0]


def pair_sample(relevance, scores, alignment, groups, n_negatives=10000, threshold=0.5):
    """``sample_pairs_of`` over score tables given as ``{request: {document: score}}``,
    compiled through a corpus of their own, on ``alignment`` binarized at ``threshold``."""
    view = compile_sequence(RankingSequence(()), relevance, scores=scores)
    binary, _ = binarize(alignment, groups, threshold)
    return sample_pairs_of(view, view.labels(binary), n_negatives)


def fair_of(ranking, alignment, p_hat):
    """One ranking's FAIR outcome, a document protected at a group-0 mass >= 0.5, by the
    batch kernel ``fair_scores`` on a batch of one."""
    groups = GroupSpace(tuple(f"g{j}" for j in range(alignment.n_groups)), protected_index=0)
    binary, _ = binarize(alignment, groups, 0.5)
    return fair_scores(binary.indices(ranking.docs)[None], binary.dense(), p_hat).only("fair")


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


def logged(capsys, level=None):
    """The messages of the ``LEVEL message`` lines written to stderr since the last read, of
    ``level`` only when given."""
    lines = (line.partition(" ") for line in capsys.readouterr().err.splitlines())
    return [message for at, _, message in lines if level in (None, at)]


@contextmanager
def input_warnings():
    """The messages of the ``InputWarning``s raised in the block, in order; filled in when
    the block ends."""
    messages = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", InputWarning)
        yield messages
    messages += [str(w.message) for w in caught if issubclass(w.category, InputWarning)]
