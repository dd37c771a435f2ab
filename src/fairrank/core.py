"""Core domain types shared by every metric module.

Identifiers are plain strings.  Rankings, group spaces, alignment tables,
relevance judgments, and ranking sequences are small immutable containers;
once constructed they are safe to share read-only across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (  # noqa: F401  re-exported for callers of fairrank.core
    AllDegenerate, ConfigError, Degenerate, DegenerateDenominator, DegenerateUtility, Direction,
    EmptyGroup, FairRankError, NoPairs, ParseError, UndefinedNormalizer, UnknownRequest,
)

# Absolute tolerance for "this vector is a probability distribution" checks.
DISTRIBUTION_ATOL = 1e-9


@dataclass(frozen=True)
class Ranking:
    """An ordered list of distinct document ids for one request, at ranks 1..N."""

    request: str
    docs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "docs", tuple(self.docs))
        if len(set(self.docs)) != len(self.docs):
            raise FairRankError(f"duplicate document in ranking for request {self.request!r}")

    def __len__(self) -> int:
        return len(self.docs)


@dataclass(frozen=True)
class GroupSpace:
    """Ordered group labels, with optional protected and unknown designations."""

    names: tuple[str, ...]
    protected_index: int | None = None
    unknown_index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise FairRankError("group space needs at least one group")
        if len(set(self.names)) != len(self.names):
            raise FairRankError("group labels must be unique")
        for attr in ("protected_index", "unknown_index"):
            idx = getattr(self, attr)
            if idx is not None and not 0 <= idx < len(self.names):
                raise FairRankError(f"{attr} {idx} out of range")
        if self.protected_index is not None and self.protected_index == self.unknown_index:
            raise FairRankError("protected group cannot be the unknown group")

    @property
    def g(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise FairRankError(f"unknown group label {name!r}") from None

    def require_protected(self) -> int:
        if self.protected_index is None:
            raise FairRankError("this operation needs a designated protected group")
        return self.protected_index


class AlignmentMatrix:
    """Soft group-membership rows keyed by document id.

    Every stored row is a length-g vector of non-negative entries summing to
    one (tolerance 1e-9).  Documents absent from the map are unlabeled.  The
    rows are held as one read-only (n_labeled, g) matrix in insertion order.
    """

    def __init__(self, rows: Mapping[str, Sequence[float]], n_groups: int | None = None):
        if not rows and n_groups is None:
            raise FairRankError("cannot infer group count from an empty alignment")
        try:
            dense = np.array(list(rows.values()) or np.zeros((0, n_groups)), dtype=float)
        except (TypeError, ValueError):
            dense = np.empty(0)  # ragged or non-numeric rows
        if n_groups is None and dense.ndim == 2:
            n_groups = dense.shape[1]
        if (dense.ndim != 2 or dense.shape[1] != n_groups
                or not np.all(np.isfinite(dense)) or np.any(dense < 0)
                or np.any(np.abs(dense.sum(axis=1) - 1.0) > DISTRIBUTION_ATOL)):
            _raise_first_bad_row(rows, n_groups)
        self._adopt(list(rows), dense)

    @classmethod
    def _stacked(cls, docs: list[str], dense: np.ndarray) -> "AlignmentMatrix":
        """Wrap rows derived from a validated matrix, one per doc in ``docs`` order."""
        out = cls.__new__(cls)
        out._adopt(docs, dense)
        return out

    def _adopt(self, docs: list[str], dense: np.ndarray) -> None:
        dense.flags.writeable = False
        self._dense = dense
        self._doc_index = dict(zip(docs, range(len(docs))))
        self.n_groups = int(dense.shape[1])

    def __contains__(self, doc: str) -> bool:
        return doc in self._doc_index

    def __len__(self) -> int:
        return len(self._doc_index)

    def row(self, doc: str) -> np.ndarray | None:
        i = self._doc_index.get(doc)
        return None if i is None else self._dense[i]

    def docs(self) -> Iterable[str]:
        return self._doc_index.keys()

    def dense(self) -> np.ndarray:
        """All rows stacked into one read-only (n_labeled, g) matrix."""
        return self._dense

    def indices(self, docs: Sequence[str]) -> np.ndarray:
        """Dense-row index of each of ``docs``, -1 for an unlabeled document."""
        return np.fromiter(map(self._doc_index.get, docs, repeat(-1)), dtype=np.intp,
                           count=len(docs))

    def gather(self, docs: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(positions of labeled docs within ``docs``, their dense-row indices)."""
        raw = self.indices(docs)
        kept = np.nonzero(raw >= 0)[0]
        return kept, raw[kept]

    def mean_row(self) -> np.ndarray:
        """Mean alignment mass over all labeled documents (catalog composition)."""
        if not self._doc_index:
            raise Degenerate("alignment matrix is empty")
        return np.mean(self._dense, axis=0)


def _raise_first_bad_row(rows: Mapping[str, Sequence[float]], n_groups: int | None) -> None:
    """Name the first row, in insertion order, that the bulk checks refused."""
    for doc, raw in rows.items():
        vec = np.asarray(raw, dtype=float)
        if n_groups is None:
            n_groups = vec.size
        if vec.ndim != 1 or vec.size != n_groups:
            raise FairRankError(f"alignment row for {doc!r} has wrong length")
        if not np.all(np.isfinite(vec)) or np.any(vec < 0):
            raise FairRankError(f"alignment row for {doc!r} must be finite and non-negative")
        if abs(float(vec.sum()) - 1.0) > DISTRIBUTION_ATOL:
            raise FairRankError(f"alignment row for {doc!r} does not sum to 1")


class RelevanceTable:
    """Graded ground-truth relevance y(d|q), keyed by request then document."""

    def __init__(self, entries: Mapping[str, Mapping[str, float]] | None = None):
        table: dict[str, dict[str, float]] = {}
        for req, docs in (entries or {}).items():
            try:  # a finite sum and a non-negative minimum clear a request's grades at once
                inner = dict(zip(docs.keys(), map(float, docs.values())))
                valid = math.isfinite(sum(inner.values())) and min(inner.values(), default=0) >= 0
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:  # find the first bad grade, or accept finite grades whose sum overflowed
                inner = {}
                for doc, grade in docs.items():
                    grade = float(grade)
                    if not np.isfinite(grade) or grade < 0:
                        raise FairRankError(f"grade for ({req!r}, {doc!r}) must be finite and >= 0")
                    inner[doc] = grade
            table[req] = inner
        self._adopt(table)

    @classmethod
    def _trusted(cls, table: dict[str, dict[str, float]]) -> "RelevanceTable":
        """Wrap grades already known to be finite, non-negative floats."""
        out = cls.__new__(cls)
        out._adopt(table)
        return out

    def _adopt(self, table: dict[str, dict[str, float]]) -> None:
        self._table = table
        self._max_grade = max(chain.from_iterable(map(dict.values, table.values())), default=0.0)

    def grade(self, request: str, doc: str, default: float = 0.0) -> float:
        return self._table.get(request, {}).get(doc, default)

    def judged(self, request: str) -> Mapping[str, float]:
        return self._table.get(request, {})

    def requests(self) -> Iterable[str]:
        return self._table.keys()

    def max_grade(self) -> float:
        return self._max_grade

    def __len__(self) -> int:
        return sum(len(d) for d in self._table.values())


@dataclass(frozen=True)
class TargetDistribution:
    """Target group distribution p-hat the observed exposure is compared to."""

    probs: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.probs, dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise FairRankError("target distribution must be a non-empty vector")
        if np.any(vec < 0) or np.any(vec > 1) or not np.all(np.isfinite(vec)):
            raise FairRankError("target entries must lie in [0, 1]")
        if abs(float(vec.sum()) - 1.0) > DISTRIBUTION_ATOL:
            raise FairRankError("target distribution must sum to 1")
        vec = vec.copy()
        vec.flags.writeable = False
        object.__setattr__(self, "probs", vec)

    @classmethod
    def equal(cls, g: int) -> "TargetDistribution":
        return cls(np.full(g, 1.0 / g))

    def scalar(self, protected_index: int) -> float:
        """The binomial target: probability mass of the protected group."""
        return float(self.probs[protected_index])


@dataclass(frozen=True)
class RankingSequence:
    """Ordered draws of (request, ranking) pairs: an empirical policy.

    ``request_weights`` optionally fixes the request arrival distribution;
    when absent, ``rho()`` falls back to the empirical draw frequencies.
    """

    draws: tuple[tuple[str, Ranking], ...]
    request_weights: Mapping[str, float] | None = None

    def __post_init__(self):
        draws = tuple((str(q), r) for q, r in self.draws)
        for q, ranking in draws:
            if ranking.request != q:
                raise FairRankError(f"draw key {q!r} does not match ranking request {ranking.request!r}")
        object.__setattr__(self, "draws", draws)
        # Per request: its distinct rankings by identity, in first-draw order,
        # and each draw's index into them.  A ranking belongs to one request,
        # so one identity map serves them all.
        by_request: dict[str, tuple[list[Ranking], list[int]]] = {}
        slot: dict[int, int] = {}
        for q, ranking in draws:
            rankings, index = by_request.setdefault(q, ([], []))
            if id(ranking) not in slot:
                slot[id(ranking)] = len(rankings)
                rankings.append(ranking)
            index.append(slot[id(ranking)])
        object.__setattr__(self, "_by_request", by_request)
        if self.request_weights is not None:
            for q, w in self.request_weights.items():
                if not (math.isfinite(w) and w >= 0):
                    raise FairRankError(f"request weight for {q!r} must be finite and non-negative")
            total = sum(self.request_weights.values())
            if abs(total - 1.0) > DISTRIBUTION_ATOL:
                raise FairRankError("request weights must sum to 1")

    def __len__(self) -> int:
        return len(self.draws)

    def requests(self) -> list[str]:
        """Distinct request ids in first-draw order."""
        return list(self._by_request)

    def distinct(self, request: str) -> tuple[list[Ranking], list[int]]:
        """The request's distinct rankings (first-draw order) and each draw's index into them."""
        return self._by_request.get(request, ([], []))

    def draws_for(self, request: str) -> list[Ranking]:
        rankings, index = self.distinct(request)
        return [rankings[i] for i in index]

    def rho(self) -> dict[str, float]:
        """Request arrival distribution: explicit weights or draw frequencies."""
        if self.request_weights is not None:
            return dict(self.request_weights)
        total = len(self.draws)
        return {q: len(index) / total for q, (_, index) in self._by_request.items()}

    @classmethod
    def single_draws(cls, rankings: Mapping[str, Ranking]) -> "RankingSequence":
        """Deterministic-policy fallback: one draw per distinct request."""
        return cls(tuple((q, rankings[q]) for q in sorted(rankings)))


def protected_mask(
    ranking: Ranking,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    threshold: float = 0.5,
) -> np.ndarray:
    """Boolean protected-membership per labeled document, in rank order.

    A document is protected iff its protected alignment mass is >= threshold.
    Unlabeled documents are excluded (they belong to neither class), so the
    mask may be shorter than the ranking.
    """
    p = groups.require_protected()
    if not 0 < threshold <= 1:
        raise FairRankError(f"threshold must lie in (0, 1], got {threshold}")
    rows = alignment.indices(ranking.docs)
    return alignment.dense()[rows[rows >= 0], p] >= threshold


def binarize(
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    threshold: float = 0.5,
) -> tuple[AlignmentMatrix, GroupSpace]:
    """Collapse soft alignment to hard protected/rest membership.

    The second group is named ``rest``, or ``other`` when the protected group
    itself is named ``rest``.

    Metrics built on binomial group counts or ratios need definitive
    membership; this applies the same >= threshold rule as ``protected_mask``.
    Unlabeled documents stay unlabeled.
    """
    p = groups.require_protected()
    if not 0 < threshold <= 1:
        raise FairRankError(f"threshold must lie in (0, 1], got {threshold}")
    hard = np.where((alignment.dense()[:, p] >= threshold)[:, None], [1.0, 0.0], [0.0, 1.0])
    name = groups.names[p]
    space = GroupSpace((name, "rest" if name != "rest" else "other"), protected_index=0)
    return AlignmentMatrix._stacked(list(alignment.docs()), hard), space


UNKNOWN_POLICIES = ("exclude", "group", "error")


def apply_unknown_policy(
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    universe: Iterable[str],
    policy: str = "exclude",
    unknown_label: str = "unknown",
) -> tuple[AlignmentMatrix, GroupSpace]:
    """Resolve documents that have no alignment row.

    ``exclude`` leaves them unlabeled; ``group`` assigns them wholly to an
    unknown pseudo-group (appended to the space if not already present);
    ``error`` refuses to proceed when any document in ``universe`` is unlabeled.
    """
    if policy not in UNKNOWN_POLICIES:
        raise FairRankError(f"unknown policy {policy!r}")
    if policy == "exclude":
        return alignment, groups
    missing = sorted(d for d in set(universe) if d not in alignment)
    if policy == "error":
        if missing:
            raise FairRankError(f"{len(missing)} unlabeled documents (first: {missing[0]!r})")
        return alignment, groups
    dense = alignment.dense()
    if groups.unknown_index is not None:
        names = groups.names
        u = groups.unknown_index
    else:
        if unknown_label in groups.names:
            raise FairRankError(f"group {unknown_label!r} exists but is not flagged as unknown")
        names = groups.names + (unknown_label,)
        u = len(names) - 1
        dense = np.hstack((dense, np.zeros((len(dense), 1))))
    onehots = np.zeros((len(missing), len(names)))
    onehots[:, u] = 1.0
    space = GroupSpace(names, protected_index=groups.protected_index, unknown_index=u)
    return AlignmentMatrix._stacked([*alignment.docs(), *missing], np.vstack((dense, onehots))), space
