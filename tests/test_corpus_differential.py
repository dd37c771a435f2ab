"""Differential test: the corpus compile against each system compiled on its own.

``evaluate`` parses every run, the sequence and every score file once, numbers
every document of the corpus once (``fairrank.compiled.Corpus``) and reads
each system through a view of lookups into the shared arrays.  Before, each
system was compiled on its own from ``Ranking`` objects and nested score
dicts, numbering only the documents it saw; that body is
``oracles.OracleCompiledSystem``.  Random corpora of one to three systems
hold documents only one system retrieves, unlabeled documents, sequences
that draw a request several times (or no sequence at all), a shared score
file or one per system, and scores and judgments for requests no system
ranks.  Per system, the view must give the oracle's requests, draws and
weights, and read back as ids its documents, grades, pools and scored
arrays; its unlabeled documents are the oracle's universe minus the
alignment.  Document numbers must follow id order.
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import AlignmentMatrix, RankingSequence
from fairrank.compiled import POOLS, CompiledSystem, Corpus
from fairrank.core import single_draw_order
from fairrank.ingest import parse_qrels, parse_run, parse_scores, parse_sequence, read_draws

from oracles import OracleCompiledSystem

SHARED = tuple(f"d{i}" for i in range(6))
REQUESTS = ("q0", "q1", "q2")


@st.composite
def corpora(draw):
    n_systems = draw(st.integers(1, 3))
    drawn = draw(st.lists(st.sampled_from(REQUESTS), min_size=1, max_size=3, unique=True))
    runs = []
    for s in range(n_systems):
        own = tuple(f"p{s}_{k}" for k in range(2))  # retrieved by this system only
        extra = draw(st.lists(st.sampled_from(("q3", "q4")), unique=True))  # never drawn
        lines = []
        for q in draw(st.permutations(drawn + extra)):
            docs = draw(st.permutations(SHARED + own))[:draw(st.integers(1, 6))]
            ranks = sorted(draw(st.lists(st.integers(1, 40), min_size=len(docs),
                                         max_size=len(docs), unique=True)))
            lines += [f"{q} Q0 {d} {r} 1.0 s{s}" for d, r in zip(docs, ranks)]
        runs.append("\n".join(draw(st.permutations(lines))) + "\n")
    sequence = None
    if draw(st.booleans()):
        rows = [(draw(st.integers(0, 9)), q) for q in drawn]  # every drawn request at least once
        rows += [(draw(st.integers(0, 9)), draw(st.sampled_from(drawn)))
                 for _ in range(draw(st.integers(0, 6)))]
        sequence = "seq_no,qid\n" + "".join(f"{n},{q}\n" for n, q in draw(st.permutations(rows)))
    judged_docs = SHARED + ("j0", "p0_0")  # j0: judged, never retrieved
    qrels = "".join(f"{q} 0 {d} {draw(st.sampled_from((0, 1, 2)))}\n"
                    for q in REQUESTS + ("q8",)
                    for d in judged_docs if draw(st.integers(0, 2)) == 0)
    score_docs = SHARED + ("s0", "p1_1")
    n_files = draw(st.sampled_from((0, 1, n_systems)))
    scores = ["".join(f"{q},{d},{draw(st.sampled_from((-1.0, 0.0, 0.5, 2.0)))}\n"
                      for q in draw(st.lists(st.sampled_from(REQUESTS + ("q9",)), unique=True))
                      for d in draw(st.lists(st.sampled_from(score_docs), unique=True)))
              for _ in range(n_files)]
    labeled = draw(st.lists(st.sampled_from(SHARED + ("p0_0", "p1_0", "s0", "j0")), unique=True))
    return runs, sequence, qrels, scores, AlignmentMatrix({d: [1.0, 0.0] for d in labeled},
                                                          n_groups=2)


def _ids(docs, numbers):
    return [docs[i] if i >= 0 else None for i in np.ravel(numbers).tolist()]


@given(corpora())
@settings(max_examples=200, deadline=None)
def test_corpus_views_match_systems_compiled_alone(corpus):
    runs, sequence, qrels_text, score_texts, alignment = corpus
    qrels = parse_qrels(io.StringIO(qrels_text))
    tables = [parse_run(io.StringIO(text)).table for text in runs]
    draws = None if sequence is None else read_draws(io.StringIO(sequence))
    scores = [parse_scores(io.StringIO(text)) for text in score_texts]
    shared = Corpus([*(t.docs for t in tables), *(s.docs for s in scores)], qrels)
    assert shared.docs == sorted(set(shared.docs))  # number order is id order
    row_of = np.append(alignment.indices(shared.docs), -1)

    for i, text in enumerate(runs):
        table = tables[i]
        index = (single_draw_order(table.requests) if draws is None
                 else draws.resolve(table.requests))
        system_scores = scores[i % len(scores)] if scores else None
        view = CompiledSystem(shared, table, index, system_scores)

        run = parse_run(io.StringIO(text))
        seq = (RankingSequence.single_draws(run.rankings) if sequence is None
               else parse_sequence(io.StringIO(sequence), run))
        nested = None if system_scores is None else {q: dict(v) for q, v in system_scores.items()}
        extra = {d for r in run.rankings.values() for d in r.docs}
        extra |= {d for q in qrels.requests() for d in qrels.judged(q)}
        want = OracleCompiledSystem(seq, qrels, extra, nested)

        assert view.requests == want.requests and view.arrival == want.arrival
        assert view.weight.tolist() == want.weight.tolist()
        for name in ("draw_of", "draw_at", "draw_request", "arrival_at", "starts", "scored_at",
                     "scored_of"):
            assert np.array_equal(getattr(view, name), getattr(want, name)), name
        assert view.ids.shape == want.ids.shape
        assert _ids(view.docs, view.ids) == _ids(want.docs, want.ids)
        assert np.array_equal(view.grades, want.grades)
        for kind in POOLS:
            (docs, grades, at), (want_docs, want_grades, want_at) = (view.pools(kind),
                                                                      want.pools(kind))
            assert _ids(view.docs, docs) == _ids(want.docs, want_docs), kind
            assert grades.tolist() == want_grades.tolist() and np.array_equal(at, want_at)
        assert view.scored == want.scored
        assert _ids(view.docs, view.scored_ids) == _ids(want.docs, want.scored_ids)
        assert view.scored_values.tolist() == want.scored_values.tolist()
        assert view.scored_grades.tolist() == want._scored_grades.tolist()
        for q in want.scored:
            ids, values, grades = view.scored_docs(q)
            want_ids, want_values, want_grades = want.scored_docs(q)
            assert _ids(view.docs, ids) == _ids(want.docs, want_ids)
            assert values.tolist() == want_values.tolist()
            assert grades.tolist() == want_grades.tolist()
        assert view.unlabeled(row_of) == [d for d in want.docs if d not in alignment]
        want_rows = [-1 if d is None or d not in alignment else int(alignment.indices([d])[0])
                     for d in _ids(want.docs, want.ids)]
        assert view.labels(alignment, row_of).rows.ravel().tolist() == want_rows
