"""Per-system metric evaluation: binds ingestion outputs to the metric modules.

Given one system's run (and its draw sequence), the relevance table, and the
group alignment, this evaluates every configured metric and returns table
rows plus human-readable notes about skipped or degenerate computations.
Single-ranking metrics are computed per draw, averaged per request, then
averaged over requests; sequence metrics aggregate exposure with the
empirical request-arrival distribution first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Mapping

import numpy as np

from .compiled import CompiledSystem, Labels
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
# request_exposure, awrf, pref_fairness, group_utility, discounted_group_utility
# and expected_exposure are the per-ranking wrappers over the kernels used
# here; they stay importable under this module's name for perfbench/tracer.py.
from .exposure import (
    WeightModel,
    compiled_weights,
    mean_over_draws,
    ranking_exposures,
    request_exposure,
    resolve_stop,
    system_exposure,
)
from .ingest import EvalConfig, MetricConfig, RunFile
from .metrics_multi import demographic_parity, eed
from .metrics_single import awrf, awrf_of, fair_score, pref_fairness, prefd_of
from .opportunity import (
    discounted_group_utility,
    discounted_utility_of,
    eur,
    expected_exposure,
    exposure_loss_of,
    group_utility,
    iaa,
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
        self.rho = self.view.rho
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
        self._ranking_eps: dict[tuple[str, WeightModel], list] = {}
        self._exposures: dict[tuple[bool, WeightModel], dict[str, np.ndarray]] = {}
        self._utilities: dict[str, np.ndarray] = {}

    def weights(self, model: WeightModel) -> np.ndarray:
        if model not in self._weights:
            self._weights[model] = compiled_weights(self.view, model, self.qrels)
        return self._weights[model]

    def ranking_exposures(self, model: WeightModel, variant: str) -> list:
        """Group exposure of every distinct ranking on one variant, once per model."""
        key = (variant, model)
        if key not in self._ranking_eps:
            self._ranking_eps[key] = ranking_exposures(self.weights(model), self.labels[variant])
        return self._ranking_eps[key]

    def labeled(self, r: int) -> np.ndarray:
        """Base alignment rows of ranking r's labeled documents, in rank order."""
        rows = self.labels["base"].rows[r]
        return self.alignment.dense()[rows[rows >= 0]]

    def exposures(self, model: WeightModel, binarized: bool) -> dict[str, np.ndarray]:
        """Per-request exposure on one alignment variant; degenerate requests are absent.

        Computed once per (variant, model) and shared by DP, EUR, EED, EEL and IAA.
        """
        key = (binarized, model)
        if key not in self._exposures:
            per_ranking = self.ranking_exposures(model, "bin" if binarized else "ext")
            per_request: dict[str, np.ndarray] = {}
            for q, draws in zip(self.view.requests, self.view.draws):
                try:
                    per_request[q] = mean_over_draws(per_ranking, draws)
                except Degenerate:
                    pass
            self._exposures[key] = per_request
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
            return float(np.asarray(mc.custom_target)[p])
        raise FairRankError(f"target mode {mc.target!r} has no scalar form")


def _per_draw(
    ctx: _Context,
    fn: Callable,
    mc: MetricConfig,
    notes: list[str],
) -> MetricResult:
    """Evaluate a single-ranking metric over every draw and aggregate.

    ``fn`` runs once per distinct ranking, given its index in the compiled
    view, and its outcome counts for every draw of that ranking.  A draw
    returning NaN (or raising a degenerate error) is excluded; draws scored
    by convention (short lists, undefined normalizer) keep their value but
    are noted.  A request is degenerate when all its draws are.
    """
    outcomes = []
    for r in range(len(ctx.view.rankings)):
        try:
            outcomes.append(fn(r))
        except Degenerate as exc:
            outcomes.append(exc)
    values: dict[str, float] = {}
    flags: dict[str, str] = {}
    conventions = 0
    direction = None
    for q, draws in zip(ctx.view.requests, ctx.view.draws):
        draw_vals = []
        draw_flags = []
        for res in (outcomes[r] for r in draws):
            if isinstance(res, Degenerate):
                draw_flags.append(res.reason)
                continue
            direction = res.direction
            if res.degenerate is not None and math.isnan(res.value):
                draw_flags.append(res.degenerate)
                continue
            if res.degenerate is not None:
                conventions += 1
            draw_vals.append(res.value)
        if draw_vals:
            values[q] = float(np.mean(draw_vals))
        else:
            flags[q] = draw_flags[0] if draw_flags else "no draws"
    if conventions:
        notes.append(f"{mc.label}: {conventions} draws scored by edge-case convention")
    if direction is None:
        direction = Direction.ZERO_IS_FAIR
    return aggregate(values, flags, mc.label, ctx.system, direction)


def _sequence_exposure(
    ctx: _Context,
    per_request: Mapping[str, np.ndarray],
) -> tuple[np.ndarray, int, int]:
    """System expected exposure (raw), with request and degenerate counts."""
    if not per_request:
        raise AllDegenerate("no request has any labeled exposure")
    n_requests = len(ctx.seq.requests())
    return system_exposure(per_request, ctx.rho), n_requests, n_requests - len(per_request)


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


def _predicted_utility(ctx: _Context, q: str, labels: Labels) -> np.ndarray | None:
    """Per-group predicted-utility mass for one request's scored documents.

    System scores have arbitrary affine scale, so they are shifted by the
    per-request minimum and sum-normalized; a constant score list carries no
    ordering information and falls back to uniform.
    """
    scored = ctx.view.scored_docs(q)
    if scored is None:
        return None
    ids, scores, _ = scored
    rows = labels.row_of[ids]
    kept = np.flatnonzero(rows >= 0)
    if not kept.size:
        return None
    raw = scores[kept]
    shifted = raw - raw.min()
    total = float(shifted.sum())
    util = shifted / total if total > 0 else np.full(kept.size, 1.0 / kept.size)
    return labels.dense[rows[kept]].T @ util


class _MissingInput(FairRankError):
    """An optional input needed by this metric was not supplied."""


def _eval_metric(ctx: _Context, mc: MetricConfig, notes: list[str]) -> list[MetricResult]:
    cfg = ctx.config
    model = WeightModel(mc.weight_model, mc.gamma)

    if mc.name == "prefd":
        target = None if mc.target == "composition" else ctx.target_vector(mc)
        return [_per_draw(
            ctx,
            lambda r: prefd_of(ctx.labeled(r), ctx.groups, target, mc.dist, mc.step,
                               cfg.threshold),
            mc, notes)]

    if mc.name == "awrf":
        target = ctx.target_vector(mc)
        eps = ctx.ranking_exposures(model, "base")
        return [_per_draw(
            ctx, lambda r: awrf_of(eps[r], ctx.groups, target, mc.dist, mc.signed), mc, notes)]

    if mc.name == "fair":
        p_hat = ctx.scalar_phat(mc)
        if not 0 < p_hat < 1:
            raise Degenerate(f"target protected probability {p_hat:.6g} outside (0, 1)")
        p = ctx.groups.require_protected()
        return [_per_draw(
            ctx, lambda r: fair_score(ctx.labeled(r)[:, p] >= cfg.threshold, p_hat), mc, notes)]

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
                               ctx.exposures(model, binarized=False), mc.pool)
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
        per_request: dict[str, np.ndarray] = {}
        utils: dict[str, np.ndarray] = {}
        for q, eps in ctx.exposures(model, binarized=False).items():
            util = _predicted_utility(ctx, q, ctx.labels["ext"])
            if util is not None:
                per_request[q], utils[q] = eps, util
        if not per_request:
            raise AllDegenerate("no request has both exposure and predicted utility")
        value = iaa(system_exposure(per_request, ctx.rho), system_exposure(utils, ctx.rho))
        n_req = len(ctx.seq.requests())
        return [MetricResult(mc.label, ctx.system, value, n_req, n_req - len(per_request),
                             Direction.ZERO_IS_FAIR)]

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
