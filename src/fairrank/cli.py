"""Command-line front end: evaluate runs, compare systems, generate fixtures.

Exit codes: 0 success; 2 parse or configuration error; 3 a metric named
explicitly in the config was degenerate for every request; 4 compare was
given fewer than two systems.  Data goes to files only; messages go to stderr,
one ``LEVEL message`` line each (``INFO``, ``WARNING`` or ``ERROR``), and an
input file's repeated key (``InputWarning``) prints as ``WARNING <message>``
when it is read.

Only ``evaluate`` loads the array stack (``ingest``, ``pipeline`` and numpy):
its names bind on first use, so ``compare`` starts without it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
import warnings
from pathlib import Path

from .errors import ConfigError, FairRankError, InputWarning, ParseError
from .report import correlation_matrix, emit_correlations, emit_tables, read_metrics_table

# Module of each name only evaluate uses.  They stay attributes of this
# module, so a caller may read or replace them before ``main`` runs.
_EVALUATE_NAMES = {
    "CompiledSystem": "compiled", "Corpus": "compiled",
    **dict.fromkeys(("GroupSpace", "single_draw_order"), "core"),
    **dict.fromkeys(("SharedInputs", "evaluate_system"), "pipeline"),
    **dict.fromkeys(("EvalConfig", "load_config", "parse_alignment", "parse_qrels",
                     "parse_run", "parse_scores", "parse_sequence", "read_draws"), "ingest"),
}

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


def _say(level: str, message: object) -> None:
    """Write one ``LEVEL message`` line to stderr."""
    sys.stderr.write(f"{level} {message}\n")


def _bind_evaluate_names() -> None:
    """Bind each evaluate-only name not bound yet; one already set is kept."""
    for name in _EVALUATE_NAMES:
        if name not in globals():
            __getattr__(name)


def _resolve_groups(groups: GroupSpace, config: EvalConfig) -> GroupSpace:
    """Attach protected/unknown indices from config labels (default: first group)."""
    for key, label in (("protected", config.protected), ("unknown", config.unknown)):
        if label is not None and label not in groups.names:
            raise ConfigError(f"unknown group label {label!r}", key)
    p = groups.index_of(config.protected if config.protected is not None else groups.names[0])
    u = groups.index_of(config.unknown) if config.unknown is not None else None
    if u == p:
        raise ConfigError("protected and unknown labels coincide", "unknown")
    return GroupSpace(groups.names, protected_index=p, unknown_index=u)


def _system_names(run_paths: list[Path], tags: list[str | None]) -> list[str]:
    """Run tags when present and unique, else file stems, which must then be unique."""
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
    config = load_config(args.config)
    qrels = parse_qrels(args.qrels)
    alignment, groups = parse_alignment(args.alignment)
    if groups.g < 2:  # every metric compares groups, so each would read a constant
        raise ParseError(f"{args.alignment}: line 1: alignment header names one group; "
                         "evaluate needs at least 2")
    groups = _resolve_groups(groups, config)
    config.check_targets(groups)

    run_paths = [Path(p) for p in args.run]
    score_paths = [Path(p) for p in args.scores] if args.scores else []
    if score_paths and len(score_paths) not in (1, len(run_paths)):
        raise ConfigError(
            f"got {len(score_paths)} score files for {len(run_paths)} runs; pass "
            "one shared file or one per run")
    # The corpus compile: each input is parsed once into flat columns (of a run, only its
    # ranking table and tag are kept), every document is numbered and each score file
    # sorted once, and each system is then a view of lookups into that corpus.
    runs = [(run.table, run.tag) for run in map(parse_run, run_paths)]
    systems = _system_names(run_paths, [tag for _, tag in runs])
    draws = read_draws(args.sequence) if args.sequence else None
    scores = [parse_scores(p) for p in score_paths]
    corpus = Corpus([*(table.docs for table, _ in runs), *(s.docs for s in scores)], qrels)
    scores = list(map(corpus.scored, scores))
    shared = SharedInputs(corpus, qrels, alignment, groups, config)

    def job(idx: int):
        table = runs[idx][0]
        index = (draws.resolve(table.requests) if draws is not None
                 else single_draw_order(table.requests))
        view = CompiledSystem(corpus, table, index, scores[idx % len(scores)] if scores else None)
        return evaluate_system(systems[idx], view, shared)

    results = []
    failed = False
    for ev in map(job, range(len(run_paths))):
        results.extend(ev.results)
        for note in ev.notes:
            _say("WARNING", f"{ev.system}: {note}")
        for r in ev.results:
            if r.n_degenerate:
                _say("WARNING", f"{ev.system}: {r.metric} had {r.n_degenerate} degenerate "
                                f"requests (of {r.n_requests})")
        for name in ev.failures:
            _say("ERROR", f"{ev.system}: required metric {name} is degenerate")
            failed = True
    if not results:
        _say("ERROR", "no metric produced a value")
        return EXIT_DEGENERATE
    _say("INFO", f"wrote {emit_tables(results, args.out)}")
    return EXIT_DEGENERATE if failed else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    metrics_path = Path(args.results) / "metrics.csv"
    if not metrics_path.exists():
        raise ParseError(f"{metrics_path} not found; run evaluate first")
    results = read_metrics_table(metrics_path)
    systems = {r.system for r in results}
    if len(systems) < 2:
        _say("ERROR", f"need at least 2 systems to compare, found {len(systems)}")
        return EXIT_TOO_FEW_SYSTEMS
    matrix = correlation_matrix(results, magnitude=not args.signed)
    emit_correlations(matrix, args.out or args.results, long_format=args.long)
    _say("INFO", f"wrote correlation matrix over {len(matrix.metrics)} metrics")
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
    _say("INFO", f"generated {len(paths['systems'])} systems under {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairrank",
        description="Group fairness metrics for ranked retrieval and recommendation outputs.",
    )
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
    with warnings.catch_warnings():  # restores the filters and the display on return
        warnings.simplefilter("always", InputWarning)
        show = warnings.showwarning

        def show_input_warning(message, category, *where):
            if issubclass(category, InputWarning):
                _say("WARNING", message)
            else:
                show(message, category, *where)

        warnings.showwarning = show_input_warning
        try:
            return args.func(args)
        except FairRankError as exc:
            _say("ERROR", exc)
            return EXIT_PARSE
        except OSError as exc:
            where = "i/o error" if exc.filename is None else exc.filename
            _say("ERROR", f"{where}: {exc.strerror or exc}")
            return EXIT_PARSE


def script() -> None:
    """The ``fairrank`` command and ``python -m fairrank.cli``: ``main`` in a process of its
    own, which exits with its code.

    There, evaluate's array stack lives until exit: it loads with the cyclic
    collector off and is then frozen, so that no collection scans those tens of
    thousands of objects again.  It also loads with one BLAS/OpenMP thread unless
    ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS`` says
    otherwise: every product it asks BLAS for is far too small to be split, so
    a thread pool would only sit idle beside the main thread.  ``main`` itself
    leaves the collector and the environment alone for callers that run it in
    their own process.
    """
    if next((arg for arg in sys.argv[1:] if not arg.startswith("-")), None) == "evaluate":
        os.environ.setdefault("OMP_NUM_THREADS", "1")  # read once, when numpy loads
        gc.disable()
        _bind_evaluate_names()
        gc.freeze()
        gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    script()
