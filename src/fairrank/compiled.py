"""Every input of one evaluate compiled into integer arrays once.

A ``Corpus`` numbers the documents of every run, judgment and score file
once, in sorted id order, so number order is string order, and holds the
judgments as one ascending array of (judged request, document) keys with
their grades.  Each system's view (``CompiledSystem``) is a few lookups
against those arrays.  The distinct rankings of its drawn requests
(requests sorted; rankings in first-draw order) are the rows of an (R, D)
matrix of document numbers, D the longest ranking, -1 padding each row past
its end; a matching matrix holds each document's grade (0 when unjudged and
for padding); its scores are (request, document, score) arrays sorted by
request, then document.  An alignment variant maps the numbers to its dense
rows once per evaluate (``Labels``), and every metric family reads these
arrays instead of looking documents up by string id.

Parsed files arrive as flat columns, with no ``Ranking`` object or nested
dict: a run as a ``RankingTable``, and a score file and the judgments
(``RelevanceTable.columns``) as ``Scores``.  One sort, by request and then
document number, turns the judgments and each score file alike into the
corpus's arrays; a score file is sorted once and shared by every system
that reads it.  The entry points that take objects (``compile_sequence``)
flatten them into the same columns and compile them through a corpus of
their own.

The metric kernels work on many lists at once.  ``left_justified`` moves each
list's labeled positions to its front, in rank order, and ``by_key`` groups
the lists by their labeled count (or any other integer key), so that each
group is one stacked ``(m, n, ...)`` array without padding: a reduction over
it adds the same elements in the same order as it would for each list alone.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (AlignmentMatrix, AllDegenerate, FairRankError, Ranking, RankingSequence,
                   RelevanceTable, Scores, _bounds, first_codes)

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


def ranks(names: Sequence[str]) -> np.ndarray:
    """Each of the distinct ``names``' place in sorted order."""
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


def running_total(values: np.ndarray) -> np.ndarray:
    """The sum over the first axis, adding one entry after another as a loop of ``+=`` does."""
    return np.cumsum(values, axis=0)[-1] if len(values) else np.zeros(values.shape[1:])


def reduce_requests(rule: str, columns: np.ndarray, kept: np.ndarray, weight: np.ndarray,
                    arrival: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sums of per-request ``columns`` (requests sorted, on the first axis) over the
    requests ``kept``, and their weight mass, under a ``MetricSpec.request_weighting`` rule.
    ``kept`` flags each request, or each entry of ``columns``.  ``uniform`` weighs each kept
    request one and adds them in sorted order with ``np.sum``, as ``np.mean`` does.
    ``arrival`` weighs request q ``weight[q]`` and adds them in ``arrival`` order with
    ``running_total``.  A dropped entry is left out or zeroed, so a NaN there reaches no
    sum."""
    if rule == "uniform":
        if kept.ndim == 1:
            return np.sum(columns[kept], axis=0), np.count_nonzero(kept)
        return np.sum(np.where(kept, columns, 0.0), axis=0), np.count_nonzero(kept, axis=0)
    # a request's weight and flag broadcast over its entries
    w = weight[arrival].reshape((-1,) + (1,) * (columns.ndim - 1))
    kept = kept[arrival].reshape(kept.shape + (1,) * (columns.ndim - kept.ndim))
    return (running_total(np.where(kept, w * columns[arrival], 0.0)),
            running_total(np.where(kept, w, 0.0)))


class RankingTable(NamedTuple):
    """Rankings as flat columns: ranking i is for request ``requests[i]`` and lists the
    documents ``docs[codes[at[i]:at[i + 1]]]`` in rank order.  ``docs`` are distinct."""

    requests: list[str]
    docs: list[str]
    codes: np.ndarray
    at: np.ndarray

    @classmethod
    def of(cls, rankings: Iterable[Ranking]) -> "RankingTable":
        rankings = list(rankings)
        docs, codes = first_codes(list(chain.from_iterable(r.docs for r in rankings)))
        return cls([r.request for r in rankings], docs, codes,
                   _bounds(map(len, rankings), len(rankings)))


_NO_SCORES = Scores([], [], np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp), np.zeros(0))


class Sorted(Scores):
    """``Scores`` sorted by request, then document number, over a corpus's ``docs``: the
    codes are document numbers."""


class Corpus:
    """The documents and judgments every system of one evaluate shares.

    ``docs`` are the documents of ``documents`` and of ``relevance``,
    ascending, and a document's number is its index there.  The judgments,
    sorted as ``scored`` sorts a score file, are ``keys``, judged request
    index times ``len(docs)`` plus document number, ascending over the sorted
    ``judged`` requests, with their ``grades``; request ``judged[j]`` owns
    entries ``judged_at[j]`` to ``judged_at[j + 1]``.
    """

    def __init__(self, documents: Iterable[Iterable[str]], relevance: RelevanceTable | None = None):
        judgments = _NO_SCORES if relevance is None else relevance.columns
        self.docs = sorted(set(chain(chain.from_iterable(documents), judgments.docs)))
        self._number = dict(zip(self.docs, range(len(self.docs))))
        judged = self.scored(judgments)
        self.judged, self.judged_index, self.judged_at = judged.requests, judged.index, judged.at
        self.judged_docs, self.grades = judged.codes, judged.score
        self.keys = (np.repeat(np.arange(len(judged)) * len(self.docs), np.diff(judged.at))
                     + judged.codes)

    def numbers(self, docs: Sequence[str]) -> np.ndarray:
        """The number of each of ``docs``."""
        return np.fromiter(map(self._number.__getitem__, docs), dtype=np.intp, count=len(docs))

    def judged_of(self, requests: Sequence[str]) -> np.ndarray:
        """Each request's index among the judged ones (-1: none)."""
        return np.fromiter(map(self.judged_index.get, requests, repeat(-1)), dtype=np.int64,
                           count=len(requests))

    def grade(self, judged: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """The grade of each document of ``ids`` for the judged request ``judged`` (-1: none);
        0 when unjudged.  ``ids`` must be document numbers."""
        return lookup(self.keys, self.grades, judged * len(self.docs) + ids)

    def scored(self, scores: Scores | None) -> Sorted:
        """``scores``, the judgments or a score file, sorted by request, then document.  Every
        system that reads one score file can share its sorted form."""
        scores = _NO_SCORES if scores is None else scores
        ids = self.numbers(scores.docs)[scores.codes]
        keys = np.repeat(ranks(scores.requests) * len(self.docs), np.diff(scores.at)) + ids
        order = np.argsort(keys)  # the keys are distinct
        return Sorted(sorted(scores.requests), self.docs, ids[order],
                      np.searchsorted(keys[order], np.arange(len(scores) + 1) * len(self.docs)),
                      scores.score[order])


class Labels(NamedTuple):
    """One alignment variant read through the document numbers."""

    dense: np.ndarray   # the variant's (n_labeled, g) rows
    row_of: np.ndarray  # dense row per document number (-1: unlabeled), then a -1 for padding
    rows: np.ndarray    # (R, D) dense row of every ranking position


class CompiledSystem:
    """One system's drawn rankings, grades and scores: lookups against a corpus.

    ``table`` holds the system's candidate rankings (a run's: one per request)
    and ``draws`` the candidate of each draw, in draw order.  A request's
    arrival weight is ``weights[request]`` when given, else its share of the
    draws.  Candidates never drawn are not rows, but their documents belong to
    the system (``unlabeled``).  ``scores`` may come sorted by ``corpus.scored``.
    """

    def __init__(self, corpus: Corpus, table: RankingTable, draws: Sequence[int],
                 scores: Sorted | Scores | None = None, weights: Mapping[str, float] | None = None):
        self.corpus = corpus
        self.docs = corpus.docs
        self._own = corpus.numbers(table.docs)
        draws = np.asarray(draws, dtype=np.intp)
        names = list(map(table.requests.__getitem__, draws.tolist()))
        self.arrival = list(dict.fromkeys(names))  # first-draw order
        self.requests = sorted(self.arrival)
        self.request_index = dict(zip(self.requests, range(len(self.requests))))
        request = np.fromiter(map(self.request_index.__getitem__, names), dtype=np.intp,
                              count=len(names))
        by_request = np.argsort(request, kind="stable")
        # each draw's candidate, request by request, in draw order
        drawn = draws[by_request]
        self.draw_request = request[by_request]
        self.draw_at = np.searchsorted(self.draw_request, np.arange(len(self.requests) + 1))
        # a row per distinct candidate, at its first draw in that order
        by_candidate = np.argsort(drawn, kind="stable")
        firsts = np.sort(by_candidate[np.append(True, np.diff(drawn[by_candidate]) != 0)]
                         if drawn.size else by_candidate)
        rows = drawn[firsts]
        slot = np.empty(len(table.requests), dtype=np.intp)
        slot[rows] = np.arange(rows.size)
        self.draw_of = slot[drawn]
        self.starts = np.searchsorted(firsts, self.draw_at)
        self.weight = (np.diff(self.draw_at) / len(names) if weights is None else
                       np.fromiter(map(weights.get, self.requests, repeat(0.0)), dtype=float,
                                   count=len(self.requests)))
        self.arrival_at = np.fromiter(map(self.request_index.__getitem__, self.arrival),
                                      dtype=np.intp, count=len(self.arrival))

        begin = table.at[rows]
        lengths = table.at[rows + 1] - begin
        filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
        self.ids = np.full(filled.shape, -1, dtype=np.intp)
        flat = np.repeat(begin - (np.cumsum(lengths) - lengths), lengths) + np.arange(filled.sum())
        self.ids[filled] = self._own[table.codes[flat]]
        self._judged_of = corpus.judged_of(self.requests)
        judged = np.repeat(self._judged_of, np.diff(self.starts))
        self.grades = np.where(filled, corpus.grade(judged[:, None], self.ids), 0.0)

        scored = scores if isinstance(scores, Sorted) else corpus.scored(scores)
        self.scored, self.scored_index, self.scored_at = scored.requests, scored.index, scored.at
        self.scored_ids, self.scored_values = scored.codes, scored.score
        block = np.repeat(np.arange(len(self.scored)), np.diff(self.scored_at))
        self.scored_grades = corpus.grade(corpus.judged_of(self.scored)[block], self.scored_ids)
        # each ranked request's index among the scored ones (-1: none)
        self.scored_of = np.fromiter(map(scored.index.get, self.requests, repeat(-1)),
                                     dtype=np.intp, count=len(self.requests))

    def pools(self, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every request's candidate documents, ascending, request after request; their
        grades (0 when unjudged); and where each request's candidates start, then the end.

        ``judged`` pools the judged documents, ``retrieved`` the documents of
        the request's rankings, ``union`` both.
        """
        if kind not in POOLS:
            raise FairRankError(f"unknown candidate pool {kind!r}")
        corpus, j = self.corpus, self._judged_of
        n_requests, n = len(self.requests), len(self.docs)
        begin = np.where(j >= 0, corpus.judged_at[j], 0)
        sizes = np.where(j >= 0, corpus.judged_at[j + 1], 0) - begin
        at = _bounds(sizes.tolist(), n_requests)
        judged = np.repeat(begin - at[:-1], sizes) + np.arange(at[-1])
        docs, grades = corpus.judged_docs[judged], corpus.grades[judged]
        if kind == "judged":
            return docs, grades, at
        keys = np.repeat(np.arange(n_requests, dtype=np.int64) * n, sizes) + docs
        request_of = np.repeat(np.arange(n_requests), np.diff(self.starts))
        retrieved = (request_of[:, None] * n + self.ids)[self.ids >= 0]
        union = sorted_distinct(retrieved if kind == "retrieved"
                                else np.concatenate((retrieved, keys)))
        at = np.searchsorted(union, np.arange(n_requests + 1) * n)
        return (union - np.repeat(np.arange(n_requests) * n, np.diff(at)),
                lookup(keys, grades, union), at)

    def reduce(self, rule: str, columns: np.ndarray,
               kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``reduce_requests`` with this system's request weights and arrival order."""
        return reduce_requests(rule, columns, kept, self.weight, self.arrival_at)

    def mean(self, rule: str, columns: np.ndarray, kept: np.ndarray,
             reason: str) -> tuple[np.ndarray, int, int]:
        """The mean of per-request ``columns`` over the requests ``kept`` under ``rule``, with
        the request and degenerate counts; ``AllDegenerate(reason)`` when none counts."""
        sums, mass = self.reduce(rule, columns, kept)
        if not mass > 0:
            raise AllDegenerate(reason)
        return sums / mass, kept.size, int(np.count_nonzero(~kept))

    def scored_docs(self, request: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """A scored request's documents, ascending, with their scores and grades (0 when
        unjudged); None for a request without scores."""
        i = self.scored_index.get(request)
        if i is None:
            return None
        a, b = self.scored_at[i], self.scored_at[i + 1]
        return self.scored_ids[a:b], self.scored_values[a:b], self.scored_grades[a:b]

    def unlabeled(self, row_of: np.ndarray) -> list[str]:
        """The system's documents without a row in ``row_of``, ascending: those of its
        rankings (drawn or not), of every judgment and of its scores."""
        own = np.concatenate((self._own, self.corpus.judged_docs, self.scored_ids))
        return list(map(self.docs.__getitem__, sorted_distinct(own[row_of[own] < 0]).tolist()))

    def labels(self, alignment: AlignmentMatrix, row_of: np.ndarray | None = None) -> Labels:
        """``alignment`` read through the document numbers.

        ``row_of`` gives each number's dense row directly, for a variant whose
        rows were looked up once for the whole corpus.
        """
        if row_of is None:
            row_of = np.append(alignment.indices(self.docs), -1)
        return Labels(alignment.dense(), row_of, row_of[self.ids])


def compile_sequence(seq: RankingSequence, relevance: RelevanceTable | None = None,
                     scores: Mapping[str, Mapping[str, float]] | None = None) -> CompiledSystem:
    """A system given as objects, compiled through a corpus of its own, with the distinct
    rankings of ``seq`` (by identity) as its candidates."""
    table = RankingTable.of(seq.candidates)
    scores = None if scores is None else Scores.of(scores)
    corpus = Corpus((table.docs, () if scores is None else scores.docs), relevance)
    return CompiledSystem(corpus, table, seq.slots, scores, seq.request_weights)
