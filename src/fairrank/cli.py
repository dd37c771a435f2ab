"""Command-line front end: evaluate runs, compare systems, generate fixtures.

Exit codes: 0 success; 2 parse or configuration error; 3 a metric named
explicitly in the config was degenerate for every request; 4 compare was
given fewer than two systems.  Logs go to stderr, data to files only.

Only ``evaluate`` loads the array stack (``ingest``, ``pipeline`` and numpy):
its names bind on first use, so ``compare`` starts without it.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import sys
from pathlib import Path

from .errors import ConfigError, FairRankError, ParseError
from .report import correlation_matrix, emit_tables, read_metrics_table

# Module of each name only evaluate uses.  They stay attributes of this
# module, so a caller may read or replace them before ``main`` runs.
_EVALUATE_NAMES = {
    "GroupSpace": "core", "evaluate_system": "pipeline",
    **dict.fromkeys(("EvalConfig", "fallback_sequence", "load_config", "parse_alignment",
                     "parse_qrels", "parse_run", "parse_scores", "parse_sequence"), "ingest"),
}

log = logging.getLogger("fairrank")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_TOO_FEW_SYSTEMS = 4


def __getattr__(name: str):
    module = _EVALUATE_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _bind_evaluate_names() -> None:
    """Bind each evaluate-only name not bound yet; one already set is kept."""
    for name in _EVALUATE_NAMES:
        if name not in globals():
            __getattr__(name)


def _resolve_groups(groups: GroupSpace, config: EvalConfig) -> GroupSpace:
    """Attach protected/unknown indices from config labels (default: first group)."""
    protected = config.protected if config.protected is not None else groups.names[0]
    p = groups.index_of(protected)
    u = groups.index_of(config.unknown) if config.unknown is not None else None
    if u == p:
        raise ConfigError("protected and unknown labels coincide", "unknown")
    return GroupSpace(groups.names, protected_index=p, unknown_index=u)


def _sniff_tag(path: Path) -> str | None:
    """Tag field of the first data line, without parsing the whole run."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            return parts[5] if len(parts) == 6 else None
    return None


def _system_names(run_paths: list[Path]) -> list[str]:
    """Run tags when present and unique, else file stems, which must then be unique."""
    tags = [_sniff_tag(p) for p in run_paths]
    if all(tags) and len(set(tags)) == len(tags):
        return tags  # type: ignore[return-value]
    first: dict[str, Path] = {}
    for path in run_paths:
        other = first.setdefault(path.stem, path)
        if other is not path:
            raise ConfigError(f"runs {other} and {path} both resolve to system name {path.stem!r}")
    return [p.stem for p in run_paths]


def cmd_evaluate(args: argparse.Namespace) -> int:
    _bind_evaluate_names()
    run_paths = [Path(p) for p in args.run]
    systems = _system_names(run_paths)
    config = load_config(args.config)
    qrels = parse_qrels(args.qrels)
    alignment, groups = parse_alignment(args.alignment)
    groups = _resolve_groups(groups, config)

    score_paths = [Path(p) for p in args.scores] if args.scores else []
    if score_paths and len(score_paths) not in (1, len(run_paths)):
        raise ConfigError(
            f"got {len(score_paths)} score files for {len(run_paths)} runs; pass "
            "one shared file or one per run")
    shared_scores = parse_scores(score_paths[0]) if len(score_paths) == 1 else None

    def job(idx: int):
        # runs are parsed per job so only the systems being evaluated are resident
        run = parse_run(run_paths[idx])
        seq = parse_sequence(args.sequence, run) if args.sequence else fallback_sequence(run)
        scores = None
        if score_paths:
            scores = shared_scores if shared_scores is not None else parse_scores(score_paths[idx])
        return evaluate_system(systems[idx], run, seq, qrels, alignment, groups,
                               config, scores)

    results = []
    failed = False
    for ev in map(job, range(len(run_paths))):
        results.extend(ev.results)
        for note in ev.notes:
            log.warning("%s: %s", ev.system, note)
        for r in ev.results:
            if r.n_degenerate:
                log.warning("%s: %s had %d degenerate requests (of %d)",
                            ev.system, r.metric, r.n_degenerate, r.n_requests)
        for name in ev.failures:
            log.error("%s: required metric %s is degenerate", ev.system, name)
            failed = True
    if not results:
        log.error("no metric produced a value")
        return EXIT_DEGENERATE
    paths = emit_tables(results, None, args.out)
    log.info("wrote %s", ", ".join(str(p) for p in paths))
    return EXIT_DEGENERATE if failed else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    metrics_path = Path(args.results) / "metrics.csv"
    if not metrics_path.exists():
        raise ParseError(f"{metrics_path} not found; run evaluate first")
    results = read_metrics_table(metrics_path)
    systems = {r.system for r in results}
    if len(systems) < 2:
        log.error("need at least 2 systems to compare, found %d", len(systems))
        return EXIT_TOO_FEW_SYSTEMS
    matrix = correlation_matrix(results, magnitude=not args.signed)
    out_dir = Path(args.out) if args.out else Path(args.results)
    emit_tables(results, matrix, out_dir, long_format=args.long)
    log.info("wrote correlation matrix over %d metrics", len(matrix.metrics))
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthSpec, generate  # evaluate and compare never load it

    spec = SynthSpec(
        n_docs=args.docs,
        n_requests=args.requests,
        n_groups=args.groups,
        n_systems=args.systems,
        depth=args.depth,
        pool_size=args.pool_size,
        seed=args.seed,
        protected_fraction=args.protected_frac,
        unlabeled_fraction=args.unlabeled_frac,
        soft_fraction=args.soft_frac,
        exposure_skew=args.exposure_skew,
        relevance_skew=args.relevance_skew,
        max_draws=args.max_draws,
        empty_protected=args.empty_protected,
        zero_relevance_group=args.zero_relevance_group,
    )
    paths = generate(spec, args.out)
    log.info("generated %d systems under %s", len(paths["systems"]), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairrank",
        description="Group fairness metrics for ranked retrieval and recommendation outputs.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="compute configured metrics for one or more runs")
    ev.add_argument("--run", action="append", required=True,
                    help="run file (repeat for multiple systems)")
    ev.add_argument("--qrels", required=True, help="relevance judgments file")
    ev.add_argument("--alignment", required=True, help="group alignment CSV")
    ev.add_argument("--sequence", help="draw sequence CSV (default: one draw per request)")
    ev.add_argument("--scores", action="append",
                    help="system score CSV; one shared file or one per run "
                         "(enables the pairwise and predicted-utility metrics)")
    ev.add_argument("--config", help="YAML evaluation config")
    ev.add_argument("--out", required=True, help="output directory")
    ev.set_defaults(func=cmd_evaluate)

    cp = sub.add_parser("compare", help="correlate metric orderings across systems")
    cp.add_argument("--results", required=True, help="directory holding metrics.csv")
    cp.add_argument("--out", help="output directory (default: the results directory)")
    cp.add_argument("--signed", action="store_true",
                    help="correlate signed values instead of magnitudes")
    cp.add_argument("--long", action="store_true",
                    help="also write the matrix in long (plot-ready) format")
    cp.set_defaults(func=cmd_compare)

    sy = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    sy.add_argument("--out", required=True)
    sy.add_argument("--docs", type=int, default=500)
    sy.add_argument("--requests", type=int, default=50)
    sy.add_argument("--groups", type=int, default=2)
    sy.add_argument("--systems", type=int, default=1)
    sy.add_argument("--depth", type=int, default=20)
    sy.add_argument("--pool-size", type=int, default=None)
    sy.add_argument("--seed", type=int, default=42)
    sy.add_argument("--protected-frac", type=float, default=0.5)
    sy.add_argument("--unlabeled-frac", type=float, default=0.0)
    sy.add_argument("--soft-frac", type=float, default=0.0)
    sy.add_argument("--exposure-skew", type=float, default=0.0)
    sy.add_argument("--relevance-skew", type=float, default=0.0)
    sy.add_argument("--max-draws", type=int, default=1)
    sy.add_argument("--empty-protected", action="store_true")
    sy.add_argument("--zero-relevance-group", action="store_true")
    sy.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (ParseError, ConfigError) as exc:
        log.error("%s", exc)
        return EXIT_PARSE
    except FairRankError as exc:
        log.error("%s", exc)
        return EXIT_PARSE
    except OSError as exc:
        log.error("%s: %s", getattr(exc, "filename", "i/o error"), exc.strerror or exc)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
