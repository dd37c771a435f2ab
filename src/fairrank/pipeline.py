"""Per-system metric evaluation: binds ingestion outputs to the metric modules.

Given one system's run (and its draw sequence), the relevance table, and the
group alignment, this evaluates every configured metric and returns table
rows plus human-readable notes about skipped or degenerate computations.
Single-ranking metrics are computed per draw, averaged per request, then
averaged over requests; sequence metrics aggregate exposure with the
empirical request-arrival distribution first.  Each metric family is one
array pass over the system's compiled view: its kernel scores every
distinct ranking (or request) at once, grouped by labeled length or draw
count, and nothing here loops over rankings or requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Mapping

import numpy as np

from .compiled import CompiledSystem, by_key
from .core import (
    AlignmentMatrix,
    AllDegenerate,
    Degenerate,
    Direction,
    FairRankError,
    GroupSpace,
    RankingSequence,
    RelevanceTable,
    TargetDistribution,
    apply_unknown_policy,
    binarize,
)
# request_exposure, awrf, fair_score, pref_fairness, group_utility,
# discounted_group_utility and expected_exposure are the per-ranking wrappers
# over the kernels used here; they stay importable under this module's name for
# perfbench/tracer.py.
from .exposure import (
    RequestExposure,
    WeightModel,
    compiled_weights,
    exposures_of,
    request_exposure,
    request_exposures,
    resolve_stop,
    weighted_mean,
)
from .ingest import EvalConfig, MetricConfig, RunFile
from .metrics_multi import demographic_parity, eed
from .metrics_single import (
    ListScores,
    awrf,
    awrf_scores,
    fair_score,
    fair_scores,
    pref_fairness,
    prefd_scores,
)
from .opportunity import (
    discounted_group_utility,
    discounted_utility_of,
    eur,
    expected_exposure,
    exposure_loss_of,
    group_utility,
    iaa,
    predicted_utility_of,
    rur,
    utility_of,
)
from .pairwise import accuracy_table, intra_inter, sample_pairs_of
from .report import MetricResult, aggregate

# perfbench/tracer.py times pair sampling, and counts its pairs, as this
# module's sample_pairs, so the kernel is called under that name here.
sample_pairs = sample_pairs_of


@dataclass
class SystemEvaluation:
    system: str
    results: list[MetricResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # explicitly-requested metrics that degenerated


class _Context:
    """Shared evaluation state for one system: its compiled view and memos."""

    def __init__(
        self,
        system: str,
        run: RunFile,
        seq: RankingSequence,
        qrels: RelevanceTable,
        alignment: AlignmentMatrix,
        groups: GroupSpace,
        config: EvalConfig,
        scores: Mapping[str, Mapping[str, float]] | None,
    ):
        self.system = system
        self.seq = seq
        self.qrels = qrels
        self.alignment = alignment
        self.groups = groups
        self.config = config
        self.scores = scores

        extra = chain(chain.from_iterable(r.docs for r in run.rankings.values()),
                      chain.from_iterable(qrels.judged(q) for q in qrels.requests()))
        self.view = CompiledSystem(seq, qrels, extra, scores)
        # "error" rejects unlabeled docs outright; "group" extends the space
        # for the multinomial-capable sequence metrics (EED/EEL/IAA).
        self.ext_alignment, self.ext_groups = apply_unknown_policy(
            alignment, groups, self.view.docs, config.unknown_policy,
            unknown_label=config.unknown or "unknown",
        )
        self.bin_alignment, self.bin_groups = binarize(alignment, groups, config.threshold)
        # binarize keeps the row order and apply_unknown_policy only appends
        # rows, so the extended variant's row indices below len(alignment)
        # serve the base and binarized variants as well
        ext = self.view.labels(self.ext_alignment)
        row_of = np.where(ext.row_of < len(alignment), ext.row_of, -1)
        self.labels = {"ext": ext, "base": self.view.labels(alignment, row_of),
                       "bin": self.view.labels(self.bin_alignment, row_of)}
        self._catalog: TargetDistribution | None = None
        self._weights: dict[WeightModel, np.ndarray] = {}
        self._ranking_eps: dict[tuple[str, WeightModel], tuple[np.ndarray, ...]] = {}
        self._exposures: dict[tuple[bool, WeightModel], RequestExposure] = {}
        self._utilities: dict[str, np.ndarray] = {}

    def weights(self, model: WeightModel) -> np.ndarray:
        if model not in self._weights:
            self._weights[model] = compiled_weights(self.view, model, self.qrels)
        return self._weights[model]

    def ranking_exposures(self, model: WeightModel, variant: str) -> tuple[np.ndarray, ...]:
        """Group exposure of every distinct ranking on one variant, and its labeled count,
        once per model."""
        key = (variant, model)
        if key not in self._ranking_eps:
            labels = self.labels[variant]
            self._ranking_eps[key] = exposures_of(self.weights(model), labels.rows, labels.dense)
        return self._ranking_eps[key]

    def exposures(self, model: WeightModel, binarized: bool) -> RequestExposure:
        """Per-request exposure on one alignment variant.

        Computed once per (variant, model) and shared by DP, EUR, EED, EEL and IAA.
        """
        key = (binarized, model)
        if key not in self._exposures:
            per_ranking, count = self.ranking_exposures(model, "bin" if binarized else "ext")
            self._exposures[key] = request_exposures(per_ranking, count, self.view)
        return self._exposures[key]

    def utility(self, pool: str) -> np.ndarray:
        """Binarized per-group mean relevance, computed once per pool (EUR, RUR)."""
        if pool not in self._utilities:
            self._utilities[pool] = utility_of(self.view, self.labels["bin"], self.bin_groups, pool)
        return self._utilities[pool]

    def catalog(self) -> TargetDistribution:
        if self._catalog is None:
            vec = self.alignment.mean_row()
            self._catalog = TargetDistribution(vec / vec.sum())
        return self._catalog

    def target_vector(self, mc: MetricConfig) -> TargetDistribution:
        if mc.target == "catalog":
            return self.catalog()
        if mc.target == "equal":
            return TargetDistribution.equal(self.groups.g)
        if mc.target == "custom":
            vec = np.asarray(mc.custom_target, dtype=float)
            if vec.size != self.groups.g:
                raise FairRankError(
                    f"custom target has {vec.size} entries for {self.groups.g} groups")
            return TargetDistribution(vec)
        raise FairRankError(f"target mode {mc.target!r} needs a per-list composition")

    def scalar_phat(self, mc: MetricConfig) -> float:
        """Binomial target: protected-group probability for count-based metrics."""
        p = self.groups.require_protected()
        if mc.target == "catalog":
            return self.catalog().scalar(p)
        if mc.target == "equal":
            return 0.5
        if mc.target == "custom":
            return self.target_vector(mc).scalar(p)
        raise FairRankError(f"target mode {mc.target!r} has no scalar form")


def _per_draw(ctx: _Context, scores: ListScores, mc: MetricConfig,
              notes: list[str]) -> MetricResult:
    """Aggregate a single-ranking metric, given per distinct ranking, over every draw.

    A ranking's outcome counts for every draw of it.  A draw without a
    score (NaN with a degenerate reason) is excluded; draws scored by
    convention (short lists, undefined normalizer) keep their value but are
    noted.  A request's value is the mean over its other draws, in draw
    order, with the requests grouped by that count; a request is degenerate
    when all its draws are, and is flagged with its first draw's reason.
    """
    view = ctx.view
    values, reasons = scores.values[view.draw_of], scores.reasons[view.draw_of]
    flagged = reasons.astype(bool)
    excluded = flagged & np.isnan(values)
    conventions = int(np.count_nonzero(flagged & ~excluded))
    # each request's scored draws first, in draw order
    order = np.lexsort((excluded, view.draw_request))
    counts = np.bincount(view.draw_request[~excluded], minlength=len(view.requests))
    means = np.zeros(len(view.requests))
    for k, idx in by_key(counts):
        if k:
            means[idx] = values[order[view.draw_at[idx, None] + np.arange(k)]].mean(axis=1)
    scored = counts > 0
    per_request = dict(zip(compress(view.requests, scored), means[scored].tolist()))
    flags = dict(zip(compress(view.requests, ~scored), reasons[view.draw_at[:-1][~scored]]))
    if conventions:
        notes.append(f"{mc.label}: {conventions} draws scored by edge-case convention")
    return aggregate(per_request, flags, mc.label, ctx.system, scores.direction)


def _sequence_exposure(ctx: _Context, exposures: RequestExposure) -> tuple[np.ndarray, int, int]:
    """System expected exposure (raw), with request and degenerate counts."""
    n_labeled = int(np.count_nonzero(exposures.labeled))
    if not n_labeled:
        raise AllDegenerate("no request has any labeled exposure")
    eps = weighted_mean(exposures.eps[exposures.labeled], ctx.view.weight[exposures.labeled])
    n_requests = len(exposures.labeled)
    return eps, n_requests, n_requests - n_labeled


def _ratio_rows(
    ctx: _Context,
    mc: MetricConfig,
    ratio: float,
    n_requests: int,
    n_degenerate: int,
    notes: list[str],
) -> list[MetricResult]:
    """Emit a ratio row (1 is fair) plus its log2 row (0 is fair)."""
    rows = [MetricResult(mc.label, ctx.system, ratio, n_requests, n_degenerate,
                         Direction.ONE_IS_FAIR)]
    if ratio > 0:
        rows.append(MetricResult(f"log{mc.label}", ctx.system, math.log2(ratio),
                                 n_requests, n_degenerate, Direction.ZERO_IS_FAIR))
    else:
        notes.append(f"{mc.label}: ratio is zero; log row omitted")
    return rows


class _MissingInput(FairRankError):
    """An optional input needed by this metric was not supplied."""


def _eval_metric(ctx: _Context, mc: MetricConfig, notes: list[str]) -> list[MetricResult]:
    cfg = ctx.config
    model = WeightModel(mc.weight_model, mc.gamma)

    base = ctx.labels["base"]
    if mc.name == "prefd":
        target = None if mc.target == "composition" else ctx.target_vector(mc)
        scores = prefd_scores(base.rows, base.dense, ctx.groups, target, mc.dist, mc.step,
                              cfg.threshold)
        return [_per_draw(ctx, scores, mc, notes)]

    if mc.name == "awrf":
        target = ctx.target_vector(mc)
        eps, count = ctx.ranking_exposures(model, "base")
        scores = awrf_scores(eps, count, ctx.groups, target, mc.dist, mc.signed)
        return [_per_draw(ctx, scores, mc, notes)]

    if mc.name == "fair":
        p_hat = ctx.scalar_phat(mc)
        if not 0 < p_hat < 1:
            raise Degenerate(f"target protected probability {p_hat:.6g} outside (0, 1)")
        scores = fair_scores(base.rows, base.dense, ctx.groups.require_protected(), p_hat,
                             cfg.threshold)
        return [_per_draw(ctx, scores, mc, notes)]

    if mc.name == "dp":
        eps, n_req, n_deg = _sequence_exposure(ctx, ctx.exposures(model, binarized=True))
        ratio = demographic_parity(eps, ctx.bin_groups)
        return _ratio_rows(ctx, mc, ratio, n_req, n_deg, notes)

    if mc.name == "eed":
        eps, n_req, n_deg = _sequence_exposure(ctx, ctx.exposures(model, binarized=False))
        return [MetricResult(mc.label, ctx.system, eed(eps), n_req, n_deg,
                             Direction.ZERO_IS_FAIR)]

    if mc.name == "eur":
        eps, n_req, n_deg = _sequence_exposure(ctx, ctx.exposures(model, binarized=True))
        ratio = eur(eps, ctx.utility(mc.pool), ctx.bin_groups)
        return _ratio_rows(ctx, mc, ratio, n_req, n_deg, notes)

    if mc.name == "rur":
        gamma_disc = discounted_utility_of(ctx.view, ctx.labels["bin"], ctx.bin_groups,
                                           ctx.weights(model))
        ratio = rur(gamma_disc, ctx.utility(mc.pool), ctx.bin_groups)
        n_req = len(ctx.seq.requests())
        return _ratio_rows(ctx, mc, ratio, n_req, 0, notes)

    if mc.name == "eel":
        res = exposure_loss_of(ctx.view, ctx.labels["ext"], ctx.ext_groups, model,
                               resolve_stop(model, ctx.qrels),
                               ctx.exposures(model, binarized=False).eps, mc.pool)
        eer_label = "EER" if mc.label == "EEL" else f"{mc.label}_EER"
        return [
            MetricResult(mc.label, ctx.system, res.eel, res.n_requests, res.n_skipped,
                         Direction.ZERO_IS_FAIR),
            MetricResult(eer_label, ctx.system, res.eer, res.n_requests, res.n_skipped,
                         Direction.HIGHER_IS_BETTER),
        ]

    if mc.name == "iaa":
        if not ctx.scores:
            raise _MissingInput("system score file not provided")
        exposures = ctx.exposures(model, binarized=False)
        utils, has = predicted_utility_of(ctx.view, ctx.labels["ext"])
        both = exposures.labeled & has
        if not both.any():
            raise AllDegenerate("no request has both exposure and predicted utility")
        w = ctx.view.weight[both]
        value = iaa(weighted_mean(exposures.eps[both], w), weighted_mean(utils[both], w))
        n_req = len(ctx.seq.requests())
        return [MetricResult(mc.label, ctx.system, value, n_req,
                             n_req - int(np.count_nonzero(both)), Direction.ZERO_IS_FAIR)]

    if mc.name == "pair":
        if not ctx.scores:
            raise _MissingInput("system score file not provided")
        sample = sample_pairs(ctx.view, ctx.labels["base"], ctx.groups, mc.n_negatives,
                              cfg.seed, cfg.threshold)
        if sample.n_fallback:
            notes.append(f"{mc.label}: {sample.n_fallback} requests used the "
                         "whole negative pool (smaller than n_negatives)")
        table = accuracy_table(sample.pairs)
        intra, inter = intra_inter(table)
        n_req = len(ctx.scores)
        return [
            MetricResult("IntraAcc", ctx.system, intra, n_req, sample.n_skipped,
                         Direction.ZERO_IS_FAIR),
            MetricResult("InterAcc", ctx.system, inter, n_req, sample.n_skipped,
                         Direction.ZERO_IS_FAIR),
        ]

    raise FairRankError(f"unhandled metric {mc.name!r}")


def evaluate_system(
    system: str,
    run: RunFile,
    seq: RankingSequence,
    qrels: RelevanceTable,
    alignment: AlignmentMatrix,
    groups: GroupSpace,
    config: EvalConfig,
    scores: Mapping[str, Mapping[str, float]] | None = None,
) -> SystemEvaluation:
    """Evaluate every configured metric for one system.

    Degenerate metrics are skipped with a note; when the config listed its
    metrics explicitly, such skips are additionally recorded as failures so
    the CLI can exit non-zero.
    """
    ctx = _Context(system, run, seq, qrels, alignment, groups, config, scores)
    out = SystemEvaluation(system)
    for mc in config.metrics:
        try:
            out.results.extend(_eval_metric(ctx, mc, out.notes))
        except _MissingInput as exc:
            out.notes.append(f"{mc.label}: skipped ({exc})")
        except (Degenerate, AllDegenerate) as exc:
            reason = getattr(exc, "reason", None) or str(exc)
            out.notes.append(f"{mc.label}: degenerate ({reason})")
            if config.explicit_metrics:
                out.failures.append(mc.label)
    return out
