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

Parsed files arrive as flat columns, ``RankingTable`` and ``Scores``, with no
``Ranking`` object or nested dict.  The entry points that take objects
(``compile_sequence``) flatten them into the same columns and compile them
through a corpus of their own.

The metric kernels work on many lists at once.  ``left_justified`` moves each
list's labeled positions to its front, in rank order, and ``by_key`` groups
the lists by their labeled count (or any other integer key), so that each
group is one stacked ``(m, n, ...)`` array without padding: a reduction over
it adds the same elements in the same order as it would for each list alone.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


class Scores(Mapping):
    """System scores, ``{request: {document: score}}``, held as flat columns.

    Entry i scores document ``docs[codes[i]]`` with ``score[i]``, and request
    ``requests[k]`` owns entries ``at[k]`` to ``at[k + 1]``.  Requests come in
    first-appearance order, each with distinct documents in file order.
    Reading a request builds its dict; the compile step reads the columns.
    """

    def __init__(self, requests: list[str], docs: list[str], codes: np.ndarray, at: np.ndarray,
                 score: np.ndarray):
        self.requests, self.docs, self.codes, self.at, self.score = (
            requests, docs, codes, at, score)
        self._index = dict(zip(requests, range(len(requests))))

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
        k = self._index[request]
        a, b = self.at[k], self.at[k + 1]
        return dict(zip(map(self.docs.__getitem__, self.codes[a:b].tolist()),
                        self.score[a:b].tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


_NO_SCORES = Scores([], [], np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp), np.zeros(0))


class _Scored(NamedTuple):
    """A score file's entries sorted by request, then document number."""

    requests: list[str]      # sorted
    index: dict[str, int]
    at: np.ndarray           # where each request's entries start, then the end
    ids: np.ndarray
    values: np.ndarray
    grades: np.ndarray       # 0 when unjudged


class Corpus:
    """The documents and judgments every system of one evaluate shares.

    ``docs`` are the documents of ``documents`` and of ``relevance``,
    ascending, and a document's number is its index there.  The judgments are
    ``keys``, judged request index times ``len(docs)`` plus document number,
    ascending over the sorted ``judged`` requests, with their ``grades``;
    request ``judged[j]`` owns entries ``judged_at[j]`` to ``judged_at[j + 1]``.
    A score file is sorted once however many systems read it.
    """

    def __init__(self, documents: Iterable[Iterable[str]], relevance: RelevanceTable | None = None):
        self.judged = sorted(relevance.requests()) if relevance is not None else []
        rows = [relevance.judged(q) for q in self.judged]
        universe = set(chain.from_iterable(documents))
        for grades in rows:
            universe.update(grades)
        self.docs = sorted(universe)
        self._number = dict(zip(self.docs, range(len(self.docs))))
        self.judged_index = dict(zip(self.judged, range(len(self.judged))))
        n = len(self.docs)
        sizes = list(map(len, rows))
        self.judged_docs = self.numbers(list(chain.from_iterable(rows)))
        keys = np.repeat(np.arange(len(rows), dtype=np.int64) * n, sizes) + self.judged_docs
        order = np.argsort(keys, kind="stable")
        self.keys, self.judged_docs = keys[order], self.judged_docs[order]
        self.grades = np.fromiter(chain.from_iterable(r.values() for r in rows), dtype=float,
                                  count=keys.size)[order]
        self.judged_at = np.searchsorted(self.keys, np.arange(len(rows) + 1) * n)
        self._scored: dict[int, tuple[Scores, _Scored]] = {}

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

    def scored(self, scores: Scores | None) -> _Scored:
        """``scores`` sorted by request, then document, with the grades."""
        scores = _NO_SCORES if scores is None else scores
        hit = self._scored.get(id(scores))
        if hit is None:
            names = sorted(range(len(scores.requests)), key=scores.requests.__getitem__)
            rank = np.empty(len(names), dtype=np.intp)
            rank[names] = np.arange(len(names))
            block = np.repeat(rank, np.diff(scores.at))
            ids = self.numbers(scores.docs)[scores.codes]
            order = np.lexsort((ids, block))
            block, ids = block[order], ids[order]
            requests = list(map(scores.requests.__getitem__, names))
            hit = self._scored[id(scores)] = (scores, _Scored(
                requests, dict(zip(requests, range(len(requests)))),
                np.searchsorted(block, np.arange(len(names) + 1)), ids, scores.score[order],
                self.grade(self.judged_of(requests)[block], ids)))
        return hit[1]


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
    the system (``unlabeled``).
    """

    def __init__(self, corpus: Corpus, table: RankingTable, draws: Sequence[int],
                 scores: Scores | None = None, weights: Mapping[str, float] | None = None):
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

        scored = corpus.scored(scores)
        self.scored, self.scored_index, self.scored_at = scored.requests, scored.index, scored.at
        self.scored_ids, self.scored_values = scored.ids, scored.values
        self.scored_grades = scored.grades
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
                     extra: Iterable[Ranking] = (),
                     scores: Mapping[str, Mapping[str, float]] | None = None) -> CompiledSystem:
    """A system given as objects, compiled through a corpus of its own.

    The candidates are the distinct rankings of ``seq`` (by identity) and the
    ``extra`` rankings, which are never drawn.
    """
    slot: dict[int, int] = {}
    candidates: list[Ranking] = []
    for _, ranking in seq.draws:
        if slot.setdefault(id(ranking), len(candidates)) == len(candidates):
            candidates.append(ranking)
    draws = np.fromiter((slot[id(r)] for _, r in seq.draws), dtype=np.intp, count=len(seq))
    table = RankingTable.of(chain(candidates, extra))
    scores = None if scores is None else Scores.of(scores)
    corpus = Corpus((table.docs, () if scores is None else scores.docs), relevance)
    return CompiledSystem(corpus, table, draws, scores, seq.request_weights)
