"""Core domain types shared by every metric module.

Identifiers are plain strings.  Rankings, group spaces, alignment tables,
relevance judgments, and ranking sequences are small immutable containers;
once constructed they are safe to share read-only across threads.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, count, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (  # noqa: F401  re-exported for callers of fairrank.core
    AllDegenerate, ConfigError, Degenerate, DegenerateDenominator, DegenerateUtility, Direction,
    EmptyGroup, FairRankError, NoPairs, ParseError, UndefinedNormalizer, UnknownRequest,
)
from .record import Record

# Absolute tolerance for "this vector is a probability distribution" checks.
DISTRIBUTION_ATOL = 1e-9


class Ranking(Record):
    """An ordered list of distinct document ids for one request, at ranks 1..N."""

    def __init__(self, request: str, docs: tuple[str, ...]):
        docs = tuple(docs)
        if len(set(docs)) != len(docs):
            raise FairRankError(f"duplicate document in ranking for request {request!r}")
        self._set(request, docs)

    def __len__(self) -> int:
        return len(self.docs)


class GroupSpace(Record):
    """Ordered group labels, with optional protected and unknown designations."""

    def __init__(self, names: tuple[str, ...], protected_index: int | None = None,
                 unknown_index: int | None = None):
        names = tuple(names)
        if not names:
            raise FairRankError("group space needs at least one group")
        if len(set(names)) != len(names):
            raise FairRankError("group labels must be unique")
        for attr, idx in (("protected_index", protected_index), ("unknown_index", unknown_index)):
            if idx is not None and not 0 <= idx < len(names):
                raise FairRankError(f"{attr} {idx} out of range")
        if protected_index is not None and protected_index == unknown_index:
            raise FairRankError("protected group cannot be the unknown group")
        self._set(names, protected_index, unknown_index)

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
        if not _distribution_rows(dense, n_groups):
            _raise_first_bad_row(rows, n_groups)
        self._adopt(list(rows), dense)

    @classmethod
    def of(cls, docs: list[str], dense: np.ndarray) -> "AlignmentMatrix":
        """Row i of the (n, g) matrix ``dense`` for document ``docs[i]``, the documents
        distinct, checked as the constructor checks its rows."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or len(dense) != len(docs) or len(set(docs)) != len(docs):
            raise FairRankError("an alignment needs one row per distinct document")
        if not _distribution_rows(dense, dense.shape[1]):
            _raise_first_bad_row(dict(zip(docs, dense)), dense.shape[1])
        return cls._stacked(docs, dense)

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


def _distribution_rows(dense: np.ndarray, n_groups: int | None) -> bool:
    """Whether ``dense`` is (n, n_groups), finite and non-negative, each row summing to one."""
    return (dense.ndim == 2 and dense.shape[1] == n_groups
            and bool(np.all(np.isfinite(dense))) and not np.any(dense < 0)
            and not np.any(np.abs(dense.sum(axis=1) - 1.0) > DISTRIBUTION_ATOL))


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


def first_codes(items: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ``items`` in first-appearance order, and each item's index among them."""
    first: dict[str, int] = {}
    at = np.fromiter(map(first.setdefault, items, count()), dtype=np.intp, count=len(items))
    dense = np.empty(len(items), dtype=np.intp)
    dense[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = np.arange(len(first))
    return list(first), dense[at]


def _bounds(sizes: Iterable[int], n: int) -> np.ndarray:
    """Where each of ``n`` consecutive segments of the given sizes starts, then the end."""
    return np.fromiter(accumulate(sizes, initial=0), dtype=np.intp, count=n + 1)


class Scores(Mapping):
    """A score file's scores or a relevance table's grades, ``{request: {document: value}}``,
    held as flat columns.

    Entry i holds document ``docs[codes[i]]`` with ``score[i]``, and request
    ``requests[k]`` (``index[requests[k]]`` is k) owns entries ``at[k]`` to
    ``at[k + 1]``.  Requests come in first-appearance order, each with distinct
    documents in file order.  Reading a request builds a new dict; the compile
    step reads the columns.
    """

    def __init__(self, requests: list[str], docs: list[str], codes: np.ndarray, at: np.ndarray,
                 score: np.ndarray):
        self.requests, self.docs, self.codes, self.at, self.score = (
            requests, docs, codes, at, score)
        self.index = dict(zip(requests, range(len(requests))))

    @classmethod
    def of(cls, scores: Mapping[str, Mapping[str, float]]) -> "Scores":
        """``scores`` as columns (``scores`` itself when it is ``Scores``)."""
        if isinstance(scores, cls):
            return scores
        requests = list(scores)
        rows = [scores[q] for q in requests]
        docs, codes = first_codes(list(chain.from_iterable(rows)))
        values = np.fromiter(chain.from_iterable(r.values() for r in rows), dtype=float,
                             count=codes.size)
        return cls(requests, docs, codes, _bounds(map(len, rows), len(rows)), values)

    def __getitem__(self, request: str) -> dict[str, float]:
        k = self.index[request]
        a, b = self.at[k], self.at[k + 1]
        return dict(zip(map(self.docs.__getitem__, self.codes[a:b].tolist()),
                        self.score[a:b].tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class RelevanceTable:
    """Graded ground-truth relevance y(d|q), keyed by request then document.

    The grades are one read-only ``Scores``, ``columns``: requests in the
    order given, each with its documents in the order given.  ``grade`` reads
    a request's grades by document, indexed on the first read of that request;
    ``judged`` returns a new dict of them on each call.  Given ``Scores``, the
    table checks and keeps them, and makes their arrays read-only.
    """

    def __init__(self, entries: Mapping[str, Mapping[str, float]] | None = None):
        columns = Scores.of(entries or {})
        grades = columns.score
        bad = np.flatnonzero(~(np.isfinite(grades) & (grades >= 0)))
        if bad.size:
            i = int(bad[0])
            request = columns.requests[int(np.searchsorted(columns.at, i, side="right")) - 1]
            raise FairRankError(f"grade for ({request!r}, {columns.docs[columns.codes[i]]!r}) "
                                "must be finite and >= 0")
        self._adopt(columns)

    @classmethod
    def _trusted(cls, columns: Scores) -> "RelevanceTable":
        """Wrap grades already known to be finite, non-negative floats."""
        out = cls.__new__(cls)
        out._adopt(columns)
        return out

    def _adopt(self, columns: Scores) -> None:
        for array in (columns.codes, columns.at, columns.score):
            array.flags.writeable = False
        self.columns = columns
        self._max_grade = max(columns.score.tolist(), default=0.0)
        self._by_doc: dict[str, dict[str, float]] = {}  # each request's grades, once read

    def _grades(self, request: str) -> dict[str, float]:
        """The request's grades by document (empty for an unjudged request), not to be changed."""
        grades = self._by_doc.get(request)
        if grades is None:
            if request not in self.columns.index:
                return {}
            grades = self._by_doc[request] = self.columns[request]
        return grades

    def grade(self, request: str, doc: str, default: float = 0.0) -> float:
        return self._grades(request).get(doc, default)

    def judged(self, request: str) -> dict[str, float]:
        """The request's judged documents and their grades, as a new dict."""
        return dict(self._grades(request))

    def requests(self) -> Iterable[str]:
        return self.columns.keys()

    def max_grade(self) -> float:
        return self._max_grade

    def __len__(self) -> int:
        return self.columns.score.size


class TargetDistribution(Record):
    """Target group distribution p-hat the observed exposure is compared to."""

    def __init__(self, probs: np.ndarray):
        vec = np.asarray(probs, dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise FairRankError("target distribution must be a non-empty vector")
        if np.any(vec < 0) or np.any(vec > 1) or not np.all(np.isfinite(vec)):
            raise FairRankError("target entries must lie in [0, 1]")
        if abs(float(vec.sum()) - 1.0) > DISTRIBUTION_ATOL:
            raise FairRankError("target distribution must sum to 1")
        vec = vec.copy()
        vec.flags.writeable = False
        self._set(vec)

    @classmethod
    def equal(cls, g: int) -> "TargetDistribution":
        return cls(np.full(g, 1.0 / g))

    def scalar(self, protected_index: int) -> float:
        """The binomial target: probability mass of the protected group."""
        return float(self.probs[protected_index])


class RankingSequence(Record):
    """Ordered draws of (request, ranking) pairs: an empirical policy.

    ``request_weights`` optionally fixes the request arrival distribution;
    when absent, ``rho()`` falls back to the empirical draw frequencies.
    ``candidates`` are the distinct rankings by identity, in first-draw order,
    and ``slots`` each draw's index into them.
    """

    def __init__(self, draws: tuple[tuple[str, Ranking], ...],
                 request_weights: Mapping[str, float] | None = None):
        draws = tuple((str(q), r) for q, r in draws)
        for q, ranking in draws:
            if ranking.request != q:
                raise FairRankError(f"draw key {q!r} does not match ranking request {ranking.request!r}")
        slot: dict[int, int] = {}
        candidates: list[Ranking] = []
        by_request: dict[str, list[int]] = {}
        for q, ranking in draws:
            if slot.setdefault(id(ranking), len(candidates)) == len(candidates):
                candidates.append(ranking)
            by_request.setdefault(q, []).append(slot[id(ranking)])
        if request_weights is not None:
            for q, w in request_weights.items():
                if not (math.isfinite(w) and w >= 0):
                    raise FairRankError(f"request weight for {q!r} must be finite and non-negative")
            total = sum(request_weights.values())
            if abs(total - 1.0) > DISTRIBUTION_ATOL:
                raise FairRankError("request weights must sum to 1")
        self._set(draws, request_weights, candidates=tuple(candidates),
                  slots=tuple(slot[id(r)] for _, r in draws), _by_request=by_request)

    def __len__(self) -> int:
        return len(self.draws)

    def requests(self) -> list[str]:
        """Distinct request ids in first-draw order."""
        return list(self._by_request)

    def distinct(self, request: str) -> tuple[list[Ranking], list[int]]:
        """The request's distinct rankings (first-draw order) and each draw's index into them."""
        slots = self._by_request.get(request, [])
        local = dict(zip(dict.fromkeys(slots), count()))
        return [self.candidates[s] for s in local], [local[s] for s in slots]

    def draws_for(self, request: str) -> list[Ranking]:
        return [self.candidates[s] for s in self._by_request.get(request, ())]

    def rho(self) -> dict[str, float]:
        """Request arrival distribution: explicit weights or draw frequencies."""
        if self.request_weights is not None:
            return dict(self.request_weights)
        total = len(self.draws)
        return {q: len(slots) / total for q, slots in self._by_request.items()}

    @classmethod
    def single_draws(cls, rankings: Mapping[str, Ranking]) -> "RankingSequence":
        """Deterministic-policy fallback: one draw per distinct request."""
        requests = list(rankings)
        return cls(tuple((requests[i], rankings[requests[i]])
                         for i in single_draw_order(requests)))


def single_draw_order(requests: Sequence[str]) -> list[int]:
    """The deterministic policy when no sequence is given: one draw per distinct request, in
    sorted order, as indices into ``requests``."""
    return sorted(range(len(requests)), key=requests.__getitem__)


def binarize(
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    threshold: float = 0.5,
) -> tuple[AlignmentMatrix, GroupSpace]:
    """Collapse soft alignment to hard protected/rest membership.

    The second group is named ``rest``, or ``other`` when the protected group
    itself is named ``rest``.

    Metrics built on binomial group counts or ratios need definitive membership; a
    document is protected iff its protected mass is >= threshold.  Only this function
    applies that rule: prefD (nd, rd), FAIR, PAIR, DP, EUR and RUR read the rows it
    returns.  Unlabeled documents stay unlabeled.
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
