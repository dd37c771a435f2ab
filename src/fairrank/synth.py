"""Deterministic synthetic corpora for exercising the full metric pipeline.

Generates alignment, qrels, a draw sequence, and per-system run and score
files.  Two bias knobs shape the systems: ``exposure_skew`` spreads a
protected-placement bias across systems (negative = protected demoted), and
``relevance_skew`` tilts the ground-truth relevance rate between groups,
which decouples statistical-parity behavior from equal-opportunity behavior.
Edge-case switches produce corpora with an empty protected group, a
zero-relevance protected group, or unlabeled documents.

Identical parameters (including the seed) produce byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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
    """Write the corpus files and return their paths (plus system names)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    group_names = tuple(["prot"] + [f"g{i}" for i in range(1, spec.n_groups)])
    groups = GroupSpace(group_names, protected_index=0)

    # Group alignment: exact-quota hard membership (so the catalog composition
    # matches protected_fraction up to rounding), optionally softened, with a
    # Bernoulli-unlabeled slice.
    p_frac = 0.0 if spec.empty_protected else spec.protected_fraction
    labeled = [_doc_id(i) for i in range(spec.n_docs)
               if rng.random() >= spec.unlabeled_fraction]
    n_prot = round(p_frac * len(labeled))
    assignments = np.ones(len(labeled), dtype=int)
    assignments[:n_prot] = 0
    if spec.n_groups > 2:
        rest = len(labeled) - n_prot
        assignments[n_prot:] = 1 + np.arange(rest) % (spec.n_groups - 1)
    rng.shuffle(assignments)
    rows: dict[str, np.ndarray] = {}
    protected_mass: dict[str, float] = {}
    for doc, own in zip(labeled, assignments):
        row = np.zeros(spec.n_groups)
        row[own] = 1.0
        if spec.soft_fraction > 0 and rng.random() < spec.soft_fraction:
            other = int(rng.integers(spec.n_groups))
            if other != own:
                row[own] = 0.7
                row[other] = 0.3
        rows[doc] = row
        protected_mass[doc] = float(row[0])
    alignment = AlignmentMatrix(rows, n_groups=spec.n_groups)

    # Per-request candidate pools and graded relevance.
    pool_size = spec.pool_size or min(spec.n_docs, 4 * spec.depth)
    pool_size = min(pool_size, spec.n_docs)
    rate_plus = BASE_RELEVANCE_RATE * (1.0 + spec.relevance_skew)
    rate_minus = BASE_RELEVANCE_RATE * (1.0 - spec.relevance_skew)
    pools: dict[str, list[str]] = {}
    qrels_rows: dict[str, dict[str, float]] = {}
    for qi in range(spec.n_requests):
        q = _req_id(qi)
        pool = sorted(_doc_id(int(i)) for i in rng.choice(spec.n_docs, pool_size, replace=False))
        pools[q] = pool
        judged: dict[str, float] = {}
        for doc in pool:
            prot = protected_mass.get(doc, 0.0)
            if spec.zero_relevance_group and prot >= 0.5:
                judged[doc] = 0.0
                continue
            rate = rate_plus if prot >= 0.5 else rate_minus
            if rng.random() < min(max(rate, 0.0), 0.95):
                judged[doc] = 2.0 if rng.random() < HIGH_GRADE_RATE else 1.0
            else:
                judged[doc] = 0.0
        qrels_rows[q] = judged
    qrels = RelevanceTable(qrels_rows)

    # Draw sequence shared by all systems: request i appears 1 + (i mod max_draws) times.
    draw_ids: list[str] = []
    for qi in range(spec.n_requests):
        draw_ids.extend([_req_id(qi)] * (1 + qi % spec.max_draws))

    # Systems: placement bias spread over [-skew, +skew], alternating quality.
    if spec.n_systems == 1:
        biases = np.array([spec.exposure_skew])
    else:
        biases = np.linspace(-spec.exposure_skew, spec.exposure_skew, spec.n_systems)
    run_paths: list[Path] = []
    score_paths: list[Path] = []
    systems: list[str] = []
    for k in range(spec.n_systems):
        system = _sys_id(k)
        systems.append(system)
        quality = QUALITY_LEVELS[k % len(QUALITY_LEVELS)]
        bias = float(biases[k])
        qids: list[str] = []
        docids: list[str] = []
        ranks: list[int] = []
        values: list[float] = []
        scores: dict[str, dict[str, float]] = {}
        for qi in range(spec.n_requests):
            q = _req_id(qi)
            pool = pools[q]
            judged = qrels_rows[q]
            noise = rng.random(len(pool))
            vals = {}
            for j, doc in enumerate(pool):
                y_norm = judged.get(doc, 0.0) / 2.0
                prot = protected_mass.get(doc, 0.0)
                vals[doc] = float(quality * y_norm + (1.0 - quality) * noise[j] + bias * prot)
            scores[q] = vals
            ranked = sorted(pool, key=lambda d: (-vals[d], d))[: spec.depth]
            qids += [q] * len(ranked)
            docids += ranked
            ranks += range(1, len(ranked) + 1)
            values += [vals[doc] for doc in ranked]
        run = RunFile({}, tuple(qids), tuple(docids), tuple(ranks), tuple(values),
                      (system,) * len(qids))
        run_path = out / f"run_{system}.txt"
        with open(run_path, "w", encoding="utf-8") as fh:
            write_run(fh, run)
        run_paths.append(run_path)
        score_path = out / f"scores_{system}.csv"
        with open(score_path, "w", encoding="utf-8") as fh:
            write_scores(fh, scores)
        score_paths.append(score_path)

    qrels_path = out / "qrels.txt"
    with open(qrels_path, "w", encoding="utf-8") as fh:
        write_qrels(fh, qrels)
    align_path = out / "alignment.csv"
    with open(align_path, "w", encoding="utf-8") as fh:
        write_alignment(fh, alignment, groups)
    seq_path = out / "sequence.csv"
    with open(seq_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seq_no", "qid"])
        for i, q in enumerate(draw_ids, start=1):
            writer.writerow([i, q])

    return {
        "runs": run_paths,
        "scores": score_paths,
        "qrels": qrels_path,
        "alignment": align_path,
        "sequence": seq_path,
        "systems": systems,
    }
