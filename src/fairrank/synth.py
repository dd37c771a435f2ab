"""Deterministic synthetic corpora for exercising the full metric pipeline.

Generates alignment, qrels, a draw sequence, and per-system run and score
files.  Two bias knobs shape the systems: ``exposure_skew`` spreads a
protected-placement bias across systems (negative = protected demoted), and
``relevance_skew`` tilts the ground-truth relevance rate between groups,
which decouples statistical-parity behavior from equal-opportunity behavior.
Edge-case switches produce corpora with an empty protected group, a
zero-relevance protected group, or unlabeled documents.

Identical parameters (including the seed) produce byte-identical files.  The
order in which values are drawn from the seeded stream is part of that output
contract: the benchmark's reference tables are computed from these corpora,
so a change to the draw order rewrites them and belongs in a benchmark change.
Values are drawn as whole arrays where the stream allows it.  Each value is
formatted once, by ``ingest``, which spells out every line format: a system's
scores are formatted one request at a time, and that text gives both the
request's run lines and its score lines.  Every file is streamed to disk one
request (or one chunk of lines) at a time.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from .compiled import sorted_distinct
from .core import AlignmentMatrix, FairRankError, GroupSpace, RelevanceTable, Scores
from .ingest import (
    format_numbers,
    write_alignment,
    write_draws,
    write_qrels,
    write_run_rows,
    write_score_rows,
    write_scores_header,
)
from .record import Record

# Per-system ranking quality alternates between these two levels so that
# relevance-following and group placement vary independently across systems.
QUALITY_LEVELS = (0.85, 0.65)
BASE_RELEVANCE_RATE = 0.3
HIGH_GRADE_RATE = 0.25


class SynthSpec(Record):
    def __init__(self, n_docs: int, n_requests: int, n_groups: int = 2, n_systems: int = 1,
                 depth: int = 20, pool_size: int | None = None, seed: int = 42,
                 protected_fraction: float = 0.5, unlabeled_fraction: float = 0.0,
                 soft_fraction: float = 0.0, exposure_skew: float = 0.0,
                 relevance_skew: float = 0.0, max_draws: int = 1, empty_protected: bool = False,
                 zero_relevance_group: bool = False):
        if n_docs < 2 or n_requests < 1 or n_systems < 1:
            raise FairRankError("need at least 2 docs, 1 request, and 1 system")
        if n_groups < 2:
            raise FairRankError("need at least 2 groups")
        if depth < 1 or max_draws < 1:
            raise FairRankError("depth and max_draws must be >= 1")
        for name, v in (("protected_fraction", protected_fraction),
                        ("unlabeled_fraction", unlabeled_fraction),
                        ("soft_fraction", soft_fraction)):
            if not 0 <= v <= 1:
                raise FairRankError(f"{name} must lie in [0, 1], got {v}")
        if not -1 <= exposure_skew <= 1 or not -1 <= relevance_skew <= 1:
            raise FairRankError("skews must lie in [-1, 1]")
        self._set(n_docs, n_requests, n_groups, n_systems, depth, pool_size, seed,
                  protected_fraction, unlabeled_fraction, soft_fraction, exposure_skew,
                  relevance_skew, max_draws, empty_protected, zero_relevance_group)


def _doc_id(i: int) -> str:
    return f"d{i:06d}"


def _req_id(i: int) -> str:
    return f"q{i:04d}"


def _sys_id(k: int) -> str:
    return f"sys{k:02d}"


def generate(spec: SynthSpec, out_dir: str | Path) -> dict[str, object]:
    """Write the corpus files and return their paths (plus system names).

    Every value is drawn from one PCG64 stream seeded with ``spec.seed``, in a
    fixed order: the unlabeled mask, the group shuffle, the soft rows, then
    per request its pool and its grades, then per system its score noise.
    Each value is formatted once and each file is streamed per request, so the
    calling process never holds the text of a whole file.  The alignment and
    the qrels reach their writers as the arrays they were drawn as, checked by
    ``AlignmentMatrix`` and ``RelevanceTable``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    doc_ids = list(map(_doc_id, range(spec.n_docs)))
    group_names = tuple(["prot"] + [f"g{i}" for i in range(1, spec.n_groups)])
    groups = GroupSpace(group_names, protected_index=0)

    # Group alignment: exact-quota hard membership (so the catalog composition
    # matches protected_fraction up to rounding), optionally softened, with a
    # Bernoulli-unlabeled slice.
    p_frac = 0.0 if spec.empty_protected else spec.protected_fraction
    labeled = np.flatnonzero(rng.random(spec.n_docs) >= spec.unlabeled_fraction)
    n_prot = round(p_frac * len(labeled))
    assignments = np.ones(len(labeled), dtype=int)
    assignments[:n_prot] = 0
    if spec.n_groups > 2:
        rest = len(labeled) - n_prot
        assignments[n_prot:] = 1 + np.arange(rest) % (spec.n_groups - 1)
    rng.shuffle(assignments)
    dense = np.zeros((len(labeled), spec.n_groups))
    dense[np.arange(len(labeled)), assignments] = 1.0
    if spec.soft_fraction > 0:  # integers() and random() interleave, so one row at a time
        soft = []
        for i, own in enumerate(assignments.tolist()):
            if rng.random() < spec.soft_fraction:
                other = int(rng.integers(spec.n_groups))
                if other != own:
                    soft.append((i, own, other))
        if soft:
            i, own, other = np.array(soft).T
            dense[i, own], dense[i, other] = 0.7, 0.3
    alignment = AlignmentMatrix.of(list(map(doc_ids.__getitem__, labeled.tolist())), dense)
    align_path = out / "alignment.csv"
    with open(align_path, "w", encoding="utf-8") as fh:
        write_alignment(fh, alignment, groups)
    protected_mass = np.zeros(spec.n_docs)
    protected_mass[labeled] = dense[:, 0]

    # Per-request candidate pools, in document-id order, and graded relevance.
    # A judged document draws once, and a relevant one draws its grade next:
    # a buffer of two draws per document covers every case, and the stream is
    # then rewound to just past the draws the walk used.
    pool_size = spec.pool_size or min(spec.n_docs, 4 * spec.depth)
    pool_size = min(pool_size, spec.n_docs)
    rate_plus = BASE_RELEVANCE_RATE * (1.0 + spec.relevance_skew)
    rate_minus = BASE_RELEVANCE_RATE * (1.0 - spec.relevance_skew)
    rates = (min(max(rate_minus, 0.0), 0.95), min(max(rate_plus, 0.0), 0.95))
    requests = [_req_id(qi) for qi in range(spec.n_requests)]
    pools, pool_ids, grades = [], [], []
    for _ in requests:
        pool = np.sort(rng.choice(spec.n_docs, pool_size, replace=False))
        ids = list(map(doc_ids.__getitem__, pool.tolist()))
        if spec.n_docs > 10**6:  # past d999999, id order is not number order
            order = sorted(range(len(ids)), key=ids.__getitem__)
            pool, ids = pool[order], [ids[j] for j in order]
        pools.append(pool)
        pool_ids.append(ids)
        state = rng.bit_generator.state
        draws = rng.random(2 * len(pool)).tolist()
        used = 0
        judged = []
        for prot in (protected_mass[pool] >= 0.5).tolist():
            if spec.zero_relevance_group and prot:
                judged.append(0.0)
            elif draws[used] < rates[prot]:
                judged.append(2.0 if draws[used + 1] < HIGH_GRADE_RATE else 1.0)
                used += 2
            else:
                judged.append(0.0)
                used += 1
        rng.bit_generator.state = state
        rng.random(used)
        grades.append(judged)
    pools, grades = np.array(pools), np.array(grades)
    judged_docs = sorted_distinct(pools)
    qrels_path = out / "qrels.txt"
    with open(qrels_path, "w", encoding="utf-8") as fh:
        write_qrels(fh, RelevanceTable(Scores(
            requests, list(map(doc_ids.__getitem__, judged_docs.tolist())),
            np.searchsorted(judged_docs, pools.ravel()), np.arange(0, pools.size + 1, pool_size),
            grades.ravel())))

    # Draw sequence shared by all systems: request i appears 1 + (i mod max_draws) times.
    seq_path = out / "sequence.csv"
    with open(seq_path, "w", encoding="utf-8", newline="") as fh:
        write_draws(fh, [q for qi, q in enumerate(requests)
                         for _ in range(1 + qi % spec.max_draws)])

    # Systems: placement bias spread over [-skew, +skew], alternating quality.
    # Scores are one array expression, in the per-document expression's
    # operand order.
    if spec.n_systems == 1:
        biases = np.array([spec.exposure_skew])
    else:
        biases = np.linspace(-spec.exposure_skew, spec.exposure_skew, spec.n_systems)
    y_norm = grades / 2.0
    prot = protected_mass[pools]
    depth = min(spec.depth, pool_size)
    run_paths: list[Path] = []
    score_paths: list[Path] = []
    systems: list[str] = []
    for k in range(spec.n_systems):
        system = _sys_id(k)
        systems.append(system)
        quality = QUALITY_LEVELS[k % len(QUALITY_LEVELS)]
        noise = rng.random(pools.shape)
        vals = quality * y_norm + (1.0 - quality) * noise + float(biases[k]) * prot
        run_paths.append(out / f"run_{system}.txt")
        score_paths.append(out / f"scores_{system}.csv")
        with (open(run_paths[-1], "w", encoding="utf-8") as run_fh,
              open(score_paths[-1], "w", encoding="utf-8") as score_fh):
            _write_system(run_fh, score_fh, system, requests, pool_ids, vals, depth)

    return {
        "runs": run_paths,
        "scores": score_paths,
        "qrels": qrels_path,
        "alignment": align_path,
        "sequence": seq_path,
        "systems": systems,
    }


def _write_system(run_fh: TextIO, score_fh: TextIO, system: str, requests: list[str],
                  pool_ids: list[list[str]], vals: np.ndarray, depth: int) -> None:
    """Write a system's run and score files from its score matrix, one request at a time.

    Row i of ``vals`` scores the documents ``pool_ids[i]`` (in id order) of
    ``requests[i]``.  The run ranks each request's ``depth`` best documents,
    ties in id order; the score file holds every score, requests in id order.
    Each request's scores are formatted once, for its run lines and its score
    lines.  Past q9999 id order is not generation order, so a request's score
    lines wait until the requests before it in id order are written.
    """
    ranked = np.argsort(-vals, axis=1, kind="stable")[:, :depth]
    rank_cells = list(map(str, range(1, depth + 1)))
    score_order = iter(sorted(range(len(requests)), key=requests.__getitem__))
    turn = next(score_order, None)
    waiting: dict[int, list[str]] = {}
    write_scores_header(score_fh)
    for i, (q, ids) in enumerate(zip(requests, pool_ids)):
        text, top = format_numbers(vals[i]), ranked[i].tolist()
        write_run_rows(run_fh, repeat(q), map(ids.__getitem__, top), rank_cells,
                       map(text.__getitem__, top), repeat(system))
        waiting[i] = text
        while turn in waiting:
            write_score_rows(score_fh, requests[turn], pool_ids[turn], waiting.pop(turn))
            turn = next(score_order, None)
