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

from typing import Iterable, NamedTuple

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


class Labels(NamedTuple):
    """One alignment variant read through a compiled system's document numbers."""

    dense: np.ndarray   # the variant's (n_labeled, g) rows
    row_of: np.ndarray  # dense row per document number (-1: unlabeled), then a -1 for padding
    rows: np.ndarray    # (R, D) dense row of every ranking position


class CompiledSystem:
    """A ranking sequence and its judgments as document-number arrays.

    The numbered documents are those of ``seq``, the judged documents of its
    requests, and ``extra``.
    """

    def __init__(self, seq: RankingSequence, relevance: RelevanceTable | None = None,
                 extra: Iterable[str] = ()):
        self.requests = sorted(seq.requests())
        self.request_index = {q: i for i, q in enumerate(self.requests)}
        self.arrival = seq.requests()  # first-draw order
        self.rho = seq.rho()
        # distinct rankings; per request, each draw's ranking index
        self.rankings: list[Ranking] = []
        self.draws: list[list[int]] = []
        self.starts = [0]
        universe = set(extra)
        judged = [relevance.judged(q) if relevance is not None else {} for q in self.requests]
        for q, grades in zip(self.requests, judged):
            distinct, index = seq.distinct(q)
            self.draws.append([len(self.rankings) + i for i in index])
            self.rankings.extend(distinct)
            self.starts.append(len(self.rankings))
            for ranking in distinct:
                universe.update(ranking.docs)
            universe.update(grades)
        self.docs = sorted(universe)
        number = {d: i for i, d in enumerate(self.docs)}

        lengths = np.array([len(r) for r in self.rankings], dtype=np.intp)
        filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
        self.ids = np.full(filled.shape, -1, dtype=np.intp)
        self.ids[filled] = np.fromiter((number[d] for r in self.rankings for d in r.docs),
                                       dtype=np.intp, count=int(lengths.sum()))
        # judgments keyed by request index * len(docs) + document number, ascending
        n = len(self.docs)
        keys = np.fromiter((i * n + number[d] for i, g in enumerate(judged) for d in g),
                           dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._grades = np.fromiter((y for g in judged for y in g.values()), dtype=float)[order]
        self._judged_at = np.searchsorted(self._keys, np.arange(len(judged) + 1) * n)
        request_of = np.repeat(np.arange(len(judged)), np.diff(self.starts))
        self.grades = np.where(
            filled, lookup(self._keys, self._grades, request_of[:, None] * n + self.ids), 0.0)

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

    def labels(self, alignment: AlignmentMatrix, row_of: np.ndarray | None = None) -> Labels:
        """``alignment`` read through the document numbers.

        ``row_of`` gives each number's dense row directly, for a variant known
        to share row indices with another.
        """
        if row_of is None:
            row_of = np.append(alignment.indices(self.docs), -1)
        return Labels(alignment.dense(), row_of, row_of[self.ids])
