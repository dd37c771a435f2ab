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
Values are drawn as whole arrays where the stream allows it, and each file is
formatted in one pass by its ``ingest`` writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .core import AlignmentMatrix, FairRankError, GroupSpace, RelevanceTable
from .ingest import (
    RunFile,
    write_alignment,
    write_qrels,
    write_run,
    write_scores,
)

# Per-system ranking quality alternates between these two levels so that
# relevance-following and group placement vary independently across systems.
QUALITY_LEVELS = (0.85, 0.65)
BASE_RELEVANCE_RATE = 0.3
HIGH_GRADE_RATE = 0.25


@dataclass(frozen=True)
class SynthSpec:
    n_docs: int
    n_requests: int
    n_groups: int = 2
    n_systems: int = 1
    depth: int = 20
    pool_size: int | None = None
    seed: int = 42
    protected_fraction: float = 0.5
    unlabeled_fraction: float = 0.0
    soft_fraction: float = 0.0
    exposure_skew: float = 0.0
    relevance_skew: float = 0.0
    max_draws: int = 1
    empty_protected: bool = False
    zero_relevance_group: bool = False

    def __post_init__(self):
        if self.n_docs < 2 or self.n_requests < 1 or self.n_systems < 1:
            raise FairRankError("need at least 2 docs, 1 request, and 1 system")
        if self.n_groups < 2:
            raise FairRankError("need at least 2 groups")
        if self.depth < 1 or self.max_draws < 1:
            raise FairRankError("depth and max_draws must be >= 1")
        for name in ("protected_fraction", "unlabeled_fraction", "soft_fraction"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise FairRankError(f"{name} must lie in [0, 1], got {v}")
        if not -1 <= self.exposure_skew <= 1 or not -1 <= self.relevance_skew <= 1:
            raise FairRankError("skews must lie in [-1, 1]")


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
    Each file is written before the next one is built, and the writers stream
    their lines, so the calling process never holds the text of a whole file.
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
    alignment = AlignmentMatrix(dict(zip(map(doc_ids.__getitem__, labeled.tolist()), dense)),
                                n_groups=spec.n_groups)
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
    qrels_path = out / "qrels.txt"
    with open(qrels_path, "w", encoding="utf-8") as fh:
        write_qrels(fh, RelevanceTable({q: dict(zip(ids, judged))
                                        for q, ids, judged in zip(requests, pool_ids, grades)}))

    # Draw sequence shared by all systems: request i appears 1 + (i mod max_draws) times.
    seq_path = out / "sequence.csv"
    with open(seq_path, "w", encoding="utf-8", newline="") as fh:
        draw_ids = [q for qi, q in enumerate(requests) for _ in range(1 + qi % spec.max_draws)]
        fh.write("seq_no,qid\n" + "".join([f"{i},{q}\n" for i, q in enumerate(draw_ids, 1)]))

    # Systems: placement bias spread over [-skew, +skew], alternating quality.
    # Scores are one array expression, in the per-document expression's
    # operand order; ties rank in document-id order.
    if spec.n_systems == 1:
        biases = np.array([spec.exposure_skew])
    else:
        biases = np.linspace(-spec.exposure_skew, spec.exposure_skew, spec.n_systems)
    pools = np.array(pools)
    y_norm = np.array(grades) / 2.0
    prot = protected_mass[pools]
    flat_ids = list(chain.from_iterable(pool_ids))
    offsets = np.arange(0, pools.size, pool_size)[:, None]
    depth = min(spec.depth, pool_size)
    qids = tuple(q for q in requests for _ in range(depth))
    ranks = tuple(range(1, depth + 1)) * spec.n_requests
    run_paths: list[Path] = []
    score_paths: list[Path] = []
    systems: list[str] = []
    for k in range(spec.n_systems):
        system = _sys_id(k)
        systems.append(system)
        quality = QUALITY_LEVELS[k % len(QUALITY_LEVELS)]
        noise = rng.random(pools.shape)
        vals = quality * y_norm + (1.0 - quality) * noise + float(biases[k]) * prot
        ranked = np.argsort(-vals, axis=1, kind="stable")[:, :depth]
        docids = tuple(map(flat_ids.__getitem__, (ranked + offsets).ravel().tolist()))
        values = tuple(np.take_along_axis(vals, ranked, 1).ravel().tolist())
        run = RunFile({}, qids, docids, ranks, values, (system,) * len(qids))
        run_path = out / f"run_{system}.txt"
        with open(run_path, "w", encoding="utf-8") as fh:
            write_run(fh, run)
        run_paths.append(run_path)
        score_path = out / f"scores_{system}.csv"
        with open(score_path, "w", encoding="utf-8") as fh:
            write_scores(fh, {q: dict(zip(ids, row))
                              for q, ids, row in zip(requests, pool_ids, vals.tolist())})
        score_paths.append(score_path)

    return {
        "runs": run_paths,
        "scores": score_paths,
        "qrels": qrels_path,
        "alignment": align_path,
        "sequence": seq_path,
        "systems": systems,
    }
