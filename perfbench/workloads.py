"""Workload definitions: synth shape, evaluate options and expected output rows.

Each workload has two corpus seeds: the default one and a held-out one.
``--seed n`` picks ``corpus_seeds[n % 2]``, so every run uses a corpus that
has a committed reference ``metrics.csv`` (``references/<name>-seed<k>.csv``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Rows of the default metric battery without score files.
BASE_METRICS = (
    "prefD", "AWRF", "AWRF_equal", "FAIR", "DP", "logDP", "EED",
    "EUR", "logEUR", "RUR", "logRUR", "EEL", "EER",
)
# Rows the score files add.
SCORE_METRICS = ("IAA", "IntraAcc", "InterAcc")

STOCHASTIC_CONFIG = """\
unknown_policy: group
metrics:
  - {name: prefd, dist: kl, target: catalog}
  - {name: awrf, weight_model: cascade}
  - {name: awrf, label: AWRF_equal, dist: kl, target: equal}
  - {name: fair}
  - {name: dp, weight_model: logarithmic}
  - {name: eed, weight_model: rbp}
  - {name: eur, weight_model: logarithmic}
  - {name: rur}
  - {name: eel, weight_model: rbp}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # SynthSpec keyword arguments, without the seed
    corpus_seeds: tuple[int, int]  # (default, held-out)
    scores: bool = False  # pass one score file per system
    config: str | None = None  # YAML text; None runs the default battery
    metrics: tuple[str, ...] = field(default=BASE_METRICS)
    measured: bool = True  # False: harness self-test only, not in BENCHMARK.json

    def corpus_seed(self, seed: int) -> int:
        return self.corpus_seeds[seed % len(self.corpus_seeds)]


_C10_SHAPE = dict(n_docs=5000, n_requests=500, depth=100, pool_size=150,
                  exposure_skew=0.6, unlabeled_fraction=0.05)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="c10",
            why="C10 list shape (depth 100, pool 150), 3 systems x 250 requests, default "
                "battery, no scores: parse_run, gathers, exposure and per-draw metrics dominate",
            synth=dict(_C10_SHAPE, n_systems=3, n_requests=250),
            corpus_seeds=(1, 2),
            # Not in BENCHMARK.json: the time budget for all benchmark runs holds
            # two workloads at the run length the host's speed swings need, and
            # every layer this one exercises also runs in c10-scores.
            measured=False,
        ),
        Workload(
            name="c10-scores",
            why="C10 shape with a score file per system (3 systems x 40 requests): "
                "parse_scores, IAA and pair sampling dominate time and peak RSS",
            synth=dict(_C10_SHAPE, n_systems=3, n_requests=40),
            corpus_seeds=(1, 2),
            scores=True,
            metrics=BASE_METRICS + SCORE_METRICS,
        ),
        Workload(
            name="stochastic",
            why="up to 8 draws per request over short lists, cascade AWRF, soft and unknown "
                "members: per-draw overhead, draws_for and max_grade dominate",
            synth=dict(n_docs=3000, n_requests=125, n_systems=3, n_groups=3, depth=20,
                       exposure_skew=0.5, relevance_skew=0.3, soft_fraction=0.3,
                       unlabeled_fraction=0.1, max_draws=8),
            corpus_seeds=(7, 8),
            config=STOCHASTIC_CONFIG,
        ),
        Workload(
            name="smoke",
            why="C8 shape (10 systems x 40 requests x depth 20) with scores; checks the "
                "harness, the checks and the trace wiring in seconds",
            synth=dict(n_docs=600, n_requests=40, n_systems=10, depth=20,
                       exposure_skew=0.6, relevance_skew=0.4, unlabeled_fraction=0.05),
            corpus_seeds=(42, 43),
            scores=True,
            metrics=BASE_METRICS + SCORE_METRICS,
            measured=False,
        ),
    )
}
