"""Synth's system files: each score formatted once, streamed one request at a time.

``synth._write_system`` formats a request's scores once and writes its run
lines from that text.  The run file must hold the bytes ``oracle_write_run``
writes for the same floats, with ``-0.0``, subnormals, ties and the values
where ``repr`` turns to exponent form among them, and the score file the
bytes of ``oracle_write_scores``, requests in id order even when they are
generated in another order.  ``generate`` formats each score once and each
distinct grade and membership weight once, and the writers write in bounded
chunks.
"""

import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairrank import ingest, synth
from fairrank.ingest import RunFile, format_numbers, write_run
from fairrank.synth import SynthSpec, generate

from oracles import oracle_write_run, oracle_write_scores

# repr writes 1e16 and 1e22 in exponent form, 9999999999999998.0 and 1e-4 not
EDGES = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e22, 1e-4, 1e-5, 0.1)
SCORES = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
# past q9999, id order is not generation order
REQUESTS = ("q0000", "q0001", "q1000", "q9999", "q10000", "q10001", "q2")


class Writes(io.StringIO):
    """A text buffer that counts the lines of each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


@st.composite
def systems(draw):
    requests = draw(st.lists(st.sampled_from(REQUESTS), min_size=1, max_size=5, unique=True))
    pool = draw(st.integers(1, 6))
    values = draw(st.lists(SCORES, min_size=len(requests) * pool,
                           max_size=len(requests) * pool))
    return requests, np.array(values).reshape(len(requests), pool), draw(st.integers(1, pool))


@settings(max_examples=300, deadline=None)
@given(systems())
@example((["q0000"], np.array([[-0.0, 0.0, 5e-324, 1e16, 1e22, 1e22]]), 6))
@example((["q10000", "q1000", "q2", "q0001"], np.array([[1e22, -0.0]] * 4), 2))
def test_system_files_match_the_oracle_writers(case):
    requests, vals, depth = case
    ids = [f"d{j}" for j in range(vals.shape[1])]  # in id order
    run_fh, score_fh = Writes(), Writes()
    synth._write_system(run_fh, score_fh, "sys", requests, [ids] * len(requests), vals, depth)

    lines = [(q, ids[j], rank, row[j], "sys") for q, row in zip(requests, vals.tolist())
             for rank, j in enumerate(sorted(range(len(row)), key=lambda j: -row[j])[:depth], 1)]
    want = io.StringIO()
    oracle_write_run(want, RunFile({}, *map(tuple, zip(*lines))))
    assert run_fh.getvalue() == want.getvalue()
    want = io.StringIO()
    oracle_write_scores(want, {q: dict(zip(ids, row)) for q, row in zip(requests, vals.tolist())})
    assert score_fh.getvalue() == want.getvalue()
    # one write per request for each file, after the score file's header
    assert run_fh.lines == [depth] * len(requests)
    assert score_fh.lines == [1] + [len(ids)] * len(requests)


def test_generate_formats_each_score_once(tmp_path, monkeypatch):
    formatted = []

    def counting(values):
        formatted.append(np.size(values))
        return format_numbers(values)

    monkeypatch.setattr(ingest, "format_numbers", counting)
    monkeypatch.setattr(synth, "format_numbers", counting)
    spec = SynthSpec(n_docs=80, n_requests=6, n_systems=3, depth=8, pool_size=20,
                     soft_fraction=0.3, unlabeled_fraction=0.1, seed=5)
    paths = generate(spec, tmp_path)
    grades = {line.split()[3] for line in paths["qrels"].read_text().splitlines()}
    weights = {cell for line in paths["alignment"].read_text().splitlines()[1:]
               for cell in line.split(",")[1:]}
    assert len(grades) == 3 and len(weights) == 4  # 0, 1, 2; 0, 1, 0.3, 0.7
    assert sum(formatted) == (spec.n_systems * spec.n_requests * spec.pool_size
                              + len(grades) + len(weights))


def test_writers_write_bounded_chunks():
    n = 2 * ingest._CHUNK_LINES + 5
    run = RunFile({}, ("q",) * n, tuple(f"d{i}" for i in range(n)), tuple(range(1, n + 1)),
                  tuple(np.linspace(-1.0, 1.0, n).tolist()), ("r",) * n)
    got, want = Writes(), io.StringIO()
    write_run(got, run)
    oracle_write_run(want, run)
    assert got.getvalue() == want.getvalue()
    assert got.lines == [ingest._CHUNK_LINES, ingest._CHUNK_LINES, 5]
