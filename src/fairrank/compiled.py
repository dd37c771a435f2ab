"""One system's rankings and judgments compiled into integer arrays.

Documents are numbered once, in sorted id order, so number order is string
order.  The distinct rankings of every request (requests sorted; rankings
by identity, in first-draw order) are the rows of an (R, D) matrix of
document numbers, D the longest ranking, -1 padding each row past its end;
a matching matrix holds each document's qrels grade (0 when unjudged and for
padding).  An alignment variant maps the numbers to its dense rows once
(``Labels``), and every metric family reads these arrays instead of looking
documents up by string id.

The metric kernels work on many lists at once.  ``left_justified`` moves each
list's labeled positions to its front, in rank order, and ``by_key`` groups
the lists by their labeled count (or any other integer key), so that each
group is one stacked ``(m, n, ...)`` array without padding: a reduction over
it adds the same elements in the same order as it would for each list alone.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple

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


def by_key(keys: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Each distinct key, ascending, with the ascending indices that hold it."""
    order = np.argsort(keys, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1) if order.size else ():
        yield int(keys[idx[0]]), idx


def left_justified(rows: np.ndarray, *alongside: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each list (row) of ``rows`` with its labeled entries (``rows >= 0``) first, in
    order, and the per-position arrays ``alongside`` (one row per list, or one
    row for all) rearranged alike; then each list's labeled count."""
    order = np.argsort(rows < 0, axis=-1, kind="stable")
    moved = (a[order] if a.ndim == 1 else np.take_along_axis(a, order, axis=-1)
             for a in (rows, *alongside))
    return (*moved, np.count_nonzero(rows >= 0, axis=-1))


def as_grid(values: np.ndarray, at: np.ndarray, fill: float) -> np.ndarray:
    """The segments ``values[at[i]:at[i + 1]]`` as the rows of one array, padded with ``fill``."""
    sizes = np.diff(at)
    grid = np.full((sizes.size, sizes.max(initial=0)), fill, dtype=values.dtype)
    segment = np.repeat(np.arange(sizes.size), sizes)
    grid[segment, np.arange(values.size) - at[segment]] = values
    return grid


def labeled_grid(rows: np.ndarray, at: np.ndarray,
                 *alongside: np.ndarray) -> tuple[np.ndarray, ...]:
    """``as_grid`` of the segments of ``rows`` and of ``alongside`` with only the labeled
    entries (``rows >= 0``), in order; then each segment's labeled count."""
    keep = rows >= 0
    at = np.append(0, np.cumsum(keep))[at]
    return (as_grid(rows[keep], at, -1), *(as_grid(a[keep], at, 0.0) for a in alongside),
            np.diff(at))


def running_total(values: np.ndarray) -> np.ndarray:
    """The sum over the first axis, adding one entry after another as a loop of ``+=`` does."""
    return np.cumsum(values, axis=0)[-1] if len(values) else np.zeros(values.shape[1:])


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
        # distinct rankings; each draw's ranking index, request by request
        self.rankings: list[Ranking] = []
        draw_of: list[int] = []
        draw_at = [0]
        self.starts = [0]
        universe = set(extra)
        # judgments of the ranked requests, then of the scored requests not ranked
        judged_requests = self.requests + [q for q in self.scored if q not in self.request_index]
        judged = [relevance.judged(q) if relevance is not None else {} for q in judged_requests]
        for q in self.requests:
            distinct, index = seq.distinct(q)
            draw_of.extend(len(self.rankings) + i for i in index)
            draw_at.append(len(draw_of))
            self.rankings.extend(distinct)
            self.starts.append(len(self.rankings))
            for ranking in distinct:
                universe.update(ranking.docs)
        for grades in judged:
            universe.update(grades)
        for q in self.scored:
            universe.update(scores[q])
        self.draw_of = np.array(draw_of, dtype=np.intp)
        self.draw_at = np.array(draw_at, dtype=np.intp)
        self.draw_request = np.repeat(np.arange(len(self.requests)), np.diff(self.draw_at))
        # each request's arrival weight, and the request indices in first-draw order
        self.weight = np.fromiter(map(self.rho.get, self.requests, repeat(0.0)), dtype=float,
                                  count=len(self.requests))
        self.arrival_at = np.fromiter(map(self.request_index.__getitem__, self.arrival),
                                      dtype=np.intp, count=len(self.arrival))
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
        self.scored_at = np.array(list(accumulate(sizes, initial=0)), dtype=np.intp)
        # each ranked request's index among the scored ones (-1: none)
        self.scored_of = np.fromiter(map(self.scored_index.get, self.requests, repeat(-1)),
                                     dtype=np.intp, count=len(self.requests))
        block = np.repeat(np.arange(len(sizes)), sizes)
        ids = _numbers(number, map(scores.get, self.scored), self.scored_at[-1])
        values = np.fromiter(chain.from_iterable(scores[q].values() for q in self.scored),
                             dtype=float, count=self.scored_at[-1])
        order = np.lexsort((ids, block))
        self.scored_ids, self.scored_values = ids[order], values[order]
        judged_index = {q: i for i, q in enumerate(judged_requests)}
        judged_of = np.array([judged_index[q] for q in self.scored], dtype=np.int64)
        self._scored_grades = lookup(self._keys, self._grades,
                                     judged_of[block] * n + self.scored_ids)

    def pools(self, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every request's candidate documents, ascending, request after request; their
        grades (0 when unjudged); and where each request's candidates start, then the end.

        ``judged`` pools the judged documents, ``retrieved`` the documents of
        the request's rankings, ``union`` both.
        """
        if kind not in POOLS:
            raise FairRankError(f"unknown candidate pool {kind!r}")
        n_requests, n = len(self.requests), len(self.docs)
        end = self._judged_at[n_requests]  # the ranked requests' judgments come first
        keys, grades = self._keys[:end], self._grades[:end]
        if kind != "judged":
            request_of = np.repeat(np.arange(n_requests), np.diff(self.starts))
            retrieved = (request_of[:, None] * n + self.ids)[self.ids >= 0]
            keys = sorted_distinct(retrieved if kind == "retrieved"
                                   else np.concatenate((retrieved, keys)))
            grades = lookup(self._keys, self._grades, keys)
        at = np.searchsorted(keys, np.arange(n_requests + 1) * n)
        return keys - np.repeat(np.arange(n_requests) * n, np.diff(at)), grades, at

    def scored_docs(self, request: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """A scored request's documents, ascending, with their scores and grades (0 when
        unjudged); None for a request without scores."""
        i = self.scored_index.get(request)
        if i is None:
            return None
        a, b = self.scored_at[i], self.scored_at[i + 1]
        return self.scored_ids[a:b], self.scored_values[a:b], self._scored_grades[a:b]

    def labels(self, alignment: AlignmentMatrix, row_of: np.ndarray | None = None) -> Labels:
        """``alignment`` read through the document numbers.

        ``row_of`` gives each number's dense row directly, for a variant known
        to share row indices with another.
        """
        if row_of is None:
            row_of = np.append(alignment.indices(self.docs), -1)
        return Labels(alignment.dense(), row_of, row_of[self.ids])
