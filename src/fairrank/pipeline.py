"""Per-system metric evaluation: binds ingestion outputs to the metric modules.

Given one system's compiled view and the inputs every system shares (the
corpus, the relevance table, the group alignment and its variants, built
once per evaluate), this evaluates every configured metric and returns table
rows plus human-readable notes about skipped or degenerate computations.
Each metric family is one array pass over the system's view: its kernel
scores every distinct ranking (or request) at once, grouped by labeled length
or draw count, into one column per request, its draws averaged (``request_means``),
and a mask of the requests that count.  ``compiled.reduce_requests`` combines the
requests as the family's ``MetricSpec.request_weighting`` declares (PAIR pools its
pair counts instead), and a finalizer per family turns the sums into its rows.
Nothing here loops over rankings or requests.
"""

from __future__ import annotations

import math

import numpy as np

from .compiled import CompiledSystem, Corpus
from .core import (
    AlignmentMatrix,
    AllDegenerate,
    Degenerate,
    GroupSpace,
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
    request_means,
    resolve_stop,
)
from .ingest import EvalConfig, MetricConfig
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
    exposure_loss,
    exposure_loss_of,
    group_utility,
    iaa,
    mean_utility,
    predicted_utility_of,
    rur,
    utility_of,
)
from .pairwise import accuracy_table, intra_inter, sample_pairs_of
from .record import Record
from .registry import FAMILIES
from .report import MetricResult

# perfbench/tracer.py times pair sampling, and counts its pairs, as this
# module's sample_pairs, so the kernel is called under that name here.
sample_pairs = sample_pairs_of


class SystemEvaluation(Record):
    """One system's rows, notes and the explicitly requested metrics that degenerated.
    It is filled in as the metrics run, so unlike other records it is mutable and
    unhashable; each list left out starts empty."""

    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, system: str, results: list[MetricResult] | None = None,
                 notes: list[str] | None = None, failures: list[str] | None = None):
        self._set(system, [] if results is None else results, [] if notes is None else notes,
                  [] if failures is None else failures)


class SharedInputs:
    """What every system of one evaluate shares: the corpus, the judgments, the groups and
    each alignment variant read through the corpus's document numbers."""

    def __init__(self, corpus: Corpus, qrels: RelevanceTable, alignment: AlignmentMatrix,
                 groups: GroupSpace, config: EvalConfig):
        self.corpus = corpus
        self.qrels = qrels
        self.alignment = alignment
        self.groups = groups
        self.config = config
        config.check_targets(groups)
        # "group" extends the space for the multinomial-capable sequence metrics
        # (EED/EEL/IAA) with a row for every unlabeled document of the corpus;
        # rows no system ranks, judges or scores are never read.  "error" rejects
        # a system's unlabeled docs outright, so it is checked per system.
        self.ext_alignment, self.ext_groups = apply_unknown_policy(
            alignment, groups, corpus.docs if config.unknown_policy == "group" else (),
            config.unknown_policy, unknown_label=config.unknown or "unknown",
        )
        self.bin_alignment, self.bin_groups = binarize(alignment, groups, config.threshold)
        # binarize keeps the row order and apply_unknown_policy only appends
        # rows, so the extended variant's row indices below len(alignment)
        # serve the base and binarized variants as well
        self.row_of = np.append(self.ext_alignment.indices(corpus.docs), -1)
        self.base_row_of = np.where(self.row_of < len(alignment), self.row_of, -1)
        self._catalog: TargetDistribution | None = None

    def catalog(self) -> TargetDistribution:
        if self._catalog is None:
            vec = self.alignment.mean_row()
            self._catalog = TargetDistribution(vec / vec.sum())
        return self._catalog


class _Context:
    """Evaluation state for one system: its compiled view, the inputs every system shares
    and memos."""

    def __init__(self, system: str, view: CompiledSystem, shared: SharedInputs):
        self.system = system
        self.view = view
        self.qrels, self.config, self.catalog = shared.qrels, shared.config, shared.catalog
        self.alignment, self.groups = shared.alignment, shared.groups
        self.ext_alignment, self.ext_groups = shared.ext_alignment, shared.ext_groups
        self.bin_alignment, self.bin_groups = shared.bin_alignment, shared.bin_groups
        if self.config.unknown_policy == "error":
            apply_unknown_policy(self.alignment, self.groups,
                                 view.unlabeled(shared.base_row_of), "error")
        self.labels = {"ext": view.labels(self.ext_alignment, shared.row_of),
                       "base": view.labels(self.alignment, shared.base_row_of),
                       "bin": view.labels(self.bin_alignment, shared.base_row_of)}
        self._weights: dict[WeightModel, np.ndarray] = {}
        self._ranking_eps: dict[tuple[str, WeightModel], tuple[np.ndarray, ...]] = {}
        self._exposures: dict[tuple[bool, WeightModel], RequestExposure] = {}
        self._utilities: dict[str, tuple[np.ndarray, np.ndarray]] = {}

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

    def utility(self, pool: str, rule: str) -> np.ndarray:
        """Binarized per-group mean relevance, its requests weighted by ``rule``; each
        request's means are computed once per pool (EUR, RUR)."""
        if pool not in self._utilities:
            self._utilities[pool] = utility_of(self.view, self.labels["bin"], pool)
        return mean_utility(*self.view.reduce(rule, *self._utilities[pool]), self.bin_groups)

    def target_vector(self, mc: MetricConfig) -> TargetDistribution:
        if mc.target == "catalog":
            return self.catalog()
        if mc.target == "equal":
            return TargetDistribution.equal(self.groups.g)
        return TargetDistribution(mc.custom_target)  # only prefD reads composition, per list

    def target_of(self, mc: MetricConfig) -> np.ndarray | None:
        """Target probabilities of the columns ``mc``'s kernel reads; None for composition."""
        if mc.target == "composition":
            return None
        probs = self.target_vector(mc).probs
        return probs if mc.dist == "kl" else probs[[self.groups.require_protected()]]


def _per_draw(ctx: _Context, scores: ListScores, mc: MetricConfig,
              notes: list[str]) -> tuple[float, int, int]:
    """(value, n_requests, n_degenerate) of a single-ranking metric over every draw.

    A ranking's outcome counts for every draw of it.  A draw without a
    score (NaN with a degenerate reason) is excluded; draws scored by
    convention (short lists, undefined normalizer) keep their value but are
    noted.  A request's value is the mean over its other draws, which
    ``request_means`` adds as ``np.mean`` over them alone does; a request is
    degenerate when all its draws are.  The others are combined as ``mc``'s
    family declares.
    """
    view = ctx.view
    flagged = scores.reasons.astype(bool)
    scored = ~(flagged & np.isnan(scores.values))
    conventions = int(np.count_nonzero((flagged & scored)[view.draw_of]))
    means, n_scored = request_means(scores.values, view, scored)
    if conventions:
        notes.append(f"{mc.label}: {conventions} draws scored by edge-case convention")
    value, *counts = view.mean(FAMILIES[mc.name].request_weighting, means, n_scored > 0,
                               f"every request degenerate for {mc.label}")
    return float(value), *counts


def _ratio_rows(mc: MetricConfig, ratio: float, counts: list[int], notes: list[str]) -> list:
    """A ratio row and its log2 row, which a zero ratio leaves out."""
    if ratio <= 0:
        notes.append(f"{mc.label}: ratio is zero; log row omitted")
    return [(ratio, *counts), (math.log2(ratio), *counts) if ratio > 0 else None]


def _family_rows(ctx: _Context, mc: MetricConfig,
                 notes: list[str]) -> list[tuple[float, int, int] | None]:
    """(value, n_requests, n_degenerate) of each row ``mc``'s family declares, or None for
    a row it leaves out."""
    rule = FAMILIES[mc.name].request_weighting
    model = mc.weight_model and WeightModel(mc.weight_model, mc.gamma)

    binary = ctx.labels["bin"]
    if mc.name == "prefd":
        labels = ctx.labels["base"] if mc.dist == "kl" else binary
        return [_per_draw(ctx, prefd_scores(labels.rows, labels.dense, ctx.target_of(mc),
                                            mc.dist, mc.step), mc, notes)]

    if mc.name == "awrf":
        eps, count = ctx.ranking_exposures(model, "base")
        scores = awrf_scores(eps, count, ctx.groups, ctx.target_vector(mc), mc.dist, mc.signed)
        return [_per_draw(ctx, scores, mc, notes)]

    if mc.name == "fair":
        p_hat, = ctx.target_of(mc)
        if not 0 < p_hat < 1:
            raise Degenerate(f"target protected probability {p_hat:.6g} outside (0, 1)")
        return [_per_draw(ctx, fair_scores(binary.rows, binary.dense, p_hat), mc, notes)]

    if mc.name in ("dp", "eed", "eur"):
        exposures = ctx.exposures(model, binarized=mc.name != "eed")
        eps, *counts = ctx.view.mean(rule, exposures.eps, exposures.labeled,
                                     "no request has any labeled exposure")
        if mc.name == "eed":
            return [(eed(eps), *counts)]
        ratio = (demographic_parity(eps, ctx.bin_groups) if mc.name == "dp" else
                 eur(eps, ctx.utility(mc.pool, rule), ctx.bin_groups))
        return _ratio_rows(mc, ratio, counts, notes)

    if mc.name == "rur":
        gamma_disc, _ = ctx.view.reduce(rule, *discounted_utility_of(
            ctx.view, binary, ctx.weights(model)))
        ratio = rur(gamma_disc, ctx.utility(mc.pool, rule), ctx.bin_groups)
        return _ratio_rows(mc, ratio, [len(ctx.view.requests), 0], notes)

    if mc.name == "eel":
        res = exposure_loss(ctx.view, rule, *exposure_loss_of(
            ctx.view, ctx.labels["ext"], model, resolve_stop(model, ctx.qrels),
            ctx.exposures(model, binarized=False).eps, mc.pool))
        return [(res.eel, res.n_requests, res.n_skipped), (res.eer, res.n_requests, res.n_skipped)]

    if mc.name == "iaa":
        exposures = ctx.exposures(model, binarized=False)
        utils, has = predicted_utility_of(ctx.view, ctx.labels["ext"])
        (eps, util), *counts = ctx.view.mean(rule, np.stack((exposures.eps, utils), axis=1),
                                             exposures.labeled & has,
                                             "no request has both exposure and predicted utility")
        return [(iaa(eps, util), *counts)]

    if mc.name == "pair":
        sample = sample_pairs(ctx.view, binary, mc.n_negatives)
        table = accuracy_table(sample.pairs)
        intra, inter = intra_inter(table)
        n_req = len(ctx.view.scored)
        return [(intra, n_req, sample.n_skipped), (inter, n_req, sample.n_skipped)]


def _eval_metric(ctx: _Context, mc: MetricConfig, notes: list[str]) -> list[MetricResult]:
    """``mc``'s rows, named and directed as its family's ``MetricSpec`` declares."""
    spec = FAMILIES[mc.name]
    if spec.needs_scores and not ctx.view.scored:
        notes.append(f"{mc.label}: skipped (system score file not provided)")
        return []
    named = zip(spec.row_names(mc.label), spec.rows, _family_rows(ctx, mc, notes), strict=True)
    return [MetricResult(name, ctx.system, *row, direction)
            for name, (_, direction), row in named if row is not None]


def evaluate_system(system: str, view: CompiledSystem, shared: SharedInputs) -> SystemEvaluation:
    """Evaluate every configured metric for one compiled system.

    Degenerate metrics are skipped with a note; when the config listed its
    metrics explicitly, such skips are additionally recorded as failures so
    the CLI can exit non-zero.
    """
    ctx = _Context(system, view, shared)
    out = SystemEvaluation(system)
    config = shared.config
    for mc in config.metrics:
        try:
            out.results.extend(_eval_metric(ctx, mc, out.notes))
        except (Degenerate, AllDegenerate) as exc:
            reason = getattr(exc, "reason", None) or str(exc)
            out.notes.append(f"{mc.label}: degenerate ({reason})")
            if config.explicit_metrics:
                out.failures.append(mc.label)
    return out
