"""One system's rankings and judgments compiled into integer arrays.

Documents are numbered once, in sorted id order, so number order is string
order.  The distinct rankings of every request (requests sorted; rankings
by identity, in first-draw order) are the rows of an (R, D) matrix of
document numbers, D the longest ranking, -1 padding each row past its end;
a matching matrix holds each document's qrels grade (0 when unjudged and for
padding).  An alignment variant maps the numbers to its dense rows once
(``Labels``), and every metric family reads these arrays instead of looking
documents up by string id.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .core import AlignmentMatrix, FairRankError, Ranking, RankingSequence, RelevanceTable

POOLS = ("judged", "retrieved", "union")


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Distinct entries, ascending: ``np.unique`` without its ``numpy.ma`` import."""
    flat = np.sort(values, axis=None)
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))] if flat.size else flat


def lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``values`` where ``query`` matches the ascending ``keys``, 0.0 elsewhere."""
    if not keys.size:
        return np.zeros(np.shape(query))
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return np.where(keys[pos] == query, values[pos], 0.0)


def _numbers(number: dict[str, int], groups: Iterable[Iterable[str]], count: int) -> np.ndarray:
    """The number of every document in ``groups``, one group after another."""
    return np.fromiter(map(number.__getitem__, chain.from_iterable(groups)), dtype=np.intp,
                       count=count)


class Labels(NamedTuple):
    """One alignment variant read through a compiled system's document numbers."""

    dense: np.ndarray   # the variant's (n_labeled, g) rows
    row_of: np.ndarray  # dense row per document number (-1: unlabeled), then a -1 for padding
    rows: np.ndarray    # (R, D) dense row of every ranking position


class CompiledSystem:
    """A ranking sequence, its judgments and system scores as document-number arrays.

    The numbered documents are those of ``seq``, the judged documents of its
    requests and of the scored requests, the scored documents, and ``extra``.
    """

    def __init__(self, seq: RankingSequence, relevance: RelevanceTable | None = None,
                 extra: Iterable[str] = (),
                 scores: Mapping[str, Mapping[str, float]] | None = None):
        self.requests = sorted(seq.requests())
        self.request_index = {q: i for i, q in enumerate(self.requests)}
        self.arrival = seq.requests()  # first-draw order
        self.rho = seq.rho()
        scores = scores or {}
        self.scored = sorted(scores)
        self.scored_index = {q: i for i, q in enumerate(self.scored)}
        # distinct rankings; per request, each draw's ranking index
        self.rankings: list[Ranking] = []
        self.draws: list[list[int]] = []
        self.starts = [0]
        universe = set(extra)
        # judgments of the ranked requests, then of the scored requests not ranked
        judged_requests = self.requests + [q for q in self.scored if q not in self.request_index]
        judged = [relevance.judged(q) if relevance is not None else {} for q in judged_requests]
        for q in self.requests:
            distinct, index = seq.distinct(q)
            self.draws.append([len(self.rankings) + i for i in index])
            self.rankings.extend(distinct)
            self.starts.append(len(self.rankings))
            for ranking in distinct:
                universe.update(ranking.docs)
        for grades in judged:
            universe.update(grades)
        for q in self.scored:
            universe.update(scores[q])
        self.docs = sorted(universe)
        number = dict(zip(self.docs, range(len(self.docs))))

        lengths = np.array([len(r) for r in self.rankings], dtype=np.intp)
        filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
        self.ids = np.full(filled.shape, -1, dtype=np.intp)
        self.ids[filled] = _numbers(number, (r.docs for r in self.rankings), int(lengths.sum()))
        # judgments keyed by request index * len(docs) + document number, ascending
        n = len(self.docs)
        sizes = [len(g) for g in judged]
        keys = (np.repeat(np.arange(len(judged), dtype=np.int64) * n, sizes)
                + _numbers(number, judged, sum(sizes)))
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._grades = np.fromiter(chain.from_iterable(g.values() for g in judged), dtype=float,
                                   count=keys.size)[order]
        self._judged_at = np.searchsorted(self._keys, np.arange(len(judged) + 1) * n)
        request_of = np.repeat(np.arange(len(self.requests)), np.diff(self.starts))
        self.grades = np.where(
            filled, lookup(self._keys, self._grades, request_of[:, None] * n + self.ids), 0.0)
        # scored documents, request by request, ascending; their scores and grades
        sizes = [len(scores[q]) for q in self.scored]
        self._scored_at = list(accumulate(sizes, initial=0))
        block = np.repeat(np.arange(len(sizes)), sizes)
        ids = _numbers(number, map(scores.get, self.scored), self._scored_at[-1])
        values = np.fromiter(chain.from_iterable(scores[q].values() for q in self.scored),
                             dtype=float, count=self._scored_at[-1])
        order = np.lexsort((ids, block))
        self._scored_ids, self._scored_values = ids[order], values[order]
        judged_index = {q: i for i, q in enumerate(judged_requests)}
        judged_of = np.array([judged_index[q] for q in self.scored], dtype=np.int64)
        self._scored_grades = lookup(self._keys, self._grades,
                                     judged_of[block] * n + self._scored_ids)

    def pool(self, request: str, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """A request's candidate documents, ascending, and their grades (0 when unjudged).

        ``judged`` pools the judged documents, ``retrieved`` the documents of
        the request's rankings, ``union`` both.
        """
        if kind not in POOLS:
            raise FairRankError(f"unknown candidate pool {kind!r}")
        i = self.request_index[request]
        a, b = self._judged_at[i], self._judged_at[i + 1]
        judged, grades = self._keys[a:b] - i * len(self.docs), self._grades[a:b]
        if kind == "judged":
            return judged, grades
        pool = self.ids[self.starts[i]:self.starts[i + 1]]
        pool = pool[pool >= 0]
        if kind == "union":
            pool = np.concatenate((pool, judged))
        pool = sorted_distinct(pool)
        return pool, lookup(judged, grades, pool)

    def scored_docs(self, request: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """A scored request's documents, ascending, with their scores and grades (0 when
        unjudged); None for a request without scores."""
        i = self.scored_index.get(request)
        if i is None:
            return None
        a, b = self._scored_at[i], self._scored_at[i + 1]
        return self._scored_ids[a:b], self._scored_values[a:b], self._scored_grades[a:b]

    def labels(self, alignment: AlignmentMatrix, row_of: np.ndarray | None = None) -> Labels:
        """``alignment`` read through the document numbers.

        ``row_of`` gives each number's dense row directly, for a variant known
        to share row indices with another.
        """
        if row_of is None:
            row_of = np.append(alignment.indices(self.docs), -1)
        return Labels(alignment.dense(), row_of, row_of[self.ids])
