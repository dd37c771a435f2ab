"""Differential tests: the corpus generator and the file writers against their oracles.

``generate`` must write the bytes ``oracle_generate`` writes, the generator
that draws one document at a time, for every file of small corpora that
turn on each switch: soft and unlabeled documents, an empty protected group,
a zero-relevance group, up to four groups and three systems, pools smaller
than the depth and larger than the catalog, and several draws per request.
The draw order is part of the output: any change to it shows up here.

The writers must write the bytes of ``oracle_write_*`` for ids that need
CSV quoting (a comma, a quote, a line break) or hold spaces, and for -0.0.
"""

import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairrank import AlignmentMatrix, GroupSpace, RelevanceTable
from fairrank.ingest import RunFile, write_alignment, write_qrels, write_run, write_scores
from fairrank.synth import SynthSpec, generate

from oracles import (
    oracle_generate,
    oracle_write_alignment,
    oracle_write_qrels,
    oracle_write_run,
    oracle_write_scores,
)


@st.composite
def specs(draw):
    n_docs = draw(st.integers(2, 40))
    return SynthSpec(
        n_docs=n_docs,
        n_requests=draw(st.integers(1, 6)),
        n_groups=draw(st.integers(2, 4)),
        n_systems=draw(st.integers(1, 3)),
        depth=draw(st.integers(1, 12)),
        pool_size=draw(st.one_of(st.none(), st.integers(1, n_docs + 5))),
        seed=draw(st.integers(0, 2**32 - 1)),
        protected_fraction=draw(st.sampled_from((0.0, 0.3, 0.5, 1.0))),
        unlabeled_fraction=draw(st.sampled_from((0.0, 0.1, 0.5, 1.0))),
        soft_fraction=draw(st.sampled_from((0.0, 0.3, 1.0))),
        exposure_skew=draw(st.sampled_from((-1.0, -0.5, 0.0, 0.6, 1.0))),
        relevance_skew=draw(st.sampled_from((-1.0, 0.0, 0.3, 1.0))),
        max_draws=draw(st.integers(1, 4)),
        empty_protected=draw(st.booleans()),
        zero_relevance_group=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(specs())
# past q9999 the request ids' string order is not their number order
@example(SynthSpec(n_docs=5, n_requests=10_001, depth=2, pool_size=3, seed=3, max_draws=2))
# past d999999 the document ids' string order is not their number order
@example(SynthSpec(n_docs=1_100_000, n_requests=2, depth=10, pool_size=60, seed=5,
                   unlabeled_fraction=1.0, n_systems=2))
@example(SynthSpec(n_docs=30, n_requests=4, n_systems=1, depth=25, soft_fraction=0.5,
                   unlabeled_fraction=0.2, exposure_skew=-0.4, seed=11))
def test_generate_matches_oracle(tmp_path_factory, spec):
    tmp = tmp_path_factory.mktemp("synth")
    got, want = generate(spec, tmp / "got"), oracle_generate(spec, tmp / "want")
    assert got["systems"] == want["systems"]
    for key in ("runs", "scores", "qrels", "alignment", "sequence"):
        got_paths = got[key] if isinstance(got[key], list) else [got[key]]
        want_paths = want[key] if isinstance(want[key], list) else [want[key]]
        assert [p.name for p in got_paths] == [p.name for p in want_paths]
        for g, w in zip(got_paths, want_paths):
            assert g.read_bytes() == w.read_bytes(), g.name
    assert sorted(p.name for p in (tmp / "got").iterdir()) == sorted(
        p.name for p in (tmp / "want").iterdir())


IDS = st.text(alphabet=st.sampled_from('ab1 ,"\n\r\t'), min_size=1, max_size=4)
VALUES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
ROWS = st.sampled_from(((1.0, 0.0), (0.0, 1.0), (0.7, 0.3), (0.25, 0.75), (0.1, 0.9)))


def _bytes(write, *args):
    buf = io.StringIO(newline="")
    write(buf, *args)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(IDS, st.dictionaries(IDS, VALUES, max_size=4), max_size=4),
       st.dictionaries(IDS, ROWS, max_size=5),
       st.lists(st.tuples(IDS, IDS, st.integers(-3, 10**20), VALUES, IDS), max_size=6),
       st.tuples(IDS, IDS).filter(lambda names: names[0] != names[1]))
@example({"q,1": {'d"1': 0.5, "d 2": 1.0}, "q\n2": {"d1": 2.0}}, {"a,b": (1.0, 0.0)},
         [("q 1", "d,1", 3, 0.25, 'r"1')], ("prot", "g,1"))
@example({"q1": {"d1": 0.0, "d2": -0.0}}, {"d1": (0.0, 1.0), "d2": (1.0, -0.0)},
         [("q1", "d1", 1, -0.0, "r")], ("a", "b"))  # -0.0 is written as -0.0
def test_writers_match_oracles(table, rows, lines, names):
    assert _bytes(write_scores, table) == _bytes(oracle_write_scores, table)
    relevance = RelevanceTable(table)
    assert _bytes(write_qrels, relevance) == _bytes(oracle_write_qrels, relevance)
    alignment, groups = AlignmentMatrix(rows, n_groups=2), GroupSpace(names)
    assert (_bytes(write_alignment, alignment, groups)
            == _bytes(oracle_write_alignment, alignment, groups))
    run = RunFile({}, *(tuple(column) for column in zip(*lines))) if lines else RunFile({})
    assert _bytes(write_run, run) == _bytes(oracle_write_run, run)
