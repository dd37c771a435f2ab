"""End-to-end benchmark of ``fairrank evaluate`` and ``fairrank compare --long``.

Run from the repository root:

    python3 perfbench/run.py --workload c10-scores --seed 0 --seconds 55 --trace 0

For one workload it generates the corpus with ``fairrank.synth.generate``
(timed as ``setup_s``), reads it once untimed, then runs the CLI the way a
user does: one ``evaluate`` process over the whole corpus, then one
``compare --long`` process on its output, repeated in a closed loop with a
single client for as many repetitions as fit into ``--seconds``.  Every
other repetition first generates the corpus once more, for another
``setup_s`` sample.  Timings are scaled by a host-speed probe (``probe``).
Every invocation's output is checked (``checks.py``).  ``--trace 1`` instead
makes one untraced and one traced evaluate (``tracer.py``) and reports
per-layer numbers.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every check passed.

``--workload all`` runs every measured workload in turn.
``--write-references`` stores the evaluate output of both corpus seeds as the
reference tables the checks compare against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
from checks import check_compare, check_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"
DEFAULT_SECONDS = 55
IMPORT_REPS = 3
DEADLINE_S = 170.0  # a run must end well within 180 s
# The host's CPU speed drifts by tens of percent over minutes, on CPU time as
# much as on wall time, so every timing is scaled by PROBE_REF_S over the
# median of a fixed probe timed through the run (see README.md).  PROBE_REF_S
# is the probe's typical time on the 2-core Xeon VM the benchmark was written
# on, so scaled timings stay close to wall times there.
PROBE_REF_S = 0.030
PROBE_LAPS = 7

# Per-layer metrics reported with --trace 1, in BENCHMARK.json order.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("ingest.parse_run_s", "s"), ("ingest.parse_run_records", "count"),
    ("ingest.parse_scores_s", "s"), ("ingest.parse_scores_records", "count"),
    ("ingest.parse_sequence_s", "s"), ("ingest.parse_qrels_s", "s"),
    ("ingest.parse_alignment_s", "s"),
    ("core.gather_s", "s"), ("core.gather_calls", "count"), ("core.gather_docs", "count"),
    ("core.draws_for_s", "s"), ("core.draws_for_calls", "count"),
    ("core.max_grade_s", "s"), ("core.max_grade_calls", "count"),
    ("core.binarize_calls", "count"), ("core.apply_unknown_policy_calls", "count"),
    ("core.context_s", "s"),
    ("exposure.position_weights_s", "s"), ("exposure.position_weights_calls", "count"),
    ("exposure.request_exposure_s", "s"), ("exposure.request_exposure_calls", "count"),
    ("exposure.target_exposure_s", "s"),
    ("metrics_single.pref_fairness_s", "s"), ("metrics_single.pref_fairness_calls", "count"),
    ("metrics_single.awrf_s", "s"), ("metrics_single.awrf_calls", "count"),
    ("metrics_single.fair_score_s", "s"), ("metrics_single.fair_score_calls", "count"),
    ("metrics_multi.s", "s"),
    ("opportunity.group_utility_s", "s"), ("opportunity.discounted_group_utility_s", "s"),
    ("opportunity.expected_exposure_s", "s"), ("opportunity.iaa_s", "s"),
    ("pairwise.sample_pairs_s", "s"), ("pairwise.accuracy_table_s", "s"),
    ("pairwise.pairs", "count"), ("pairwise.n_fallback", "count"),
    ("pipeline.evaluate_system_s", "s"), ("pipeline.evaluate_system_max_s", "s"),
    ("pipeline.evaluate_system_calls", "count"), ("pipeline.self_s", "s"),
    ("pipeline.degenerate_share", "ratio"),
    ("report.emit_tables_s", "s"), ("report.read_metrics_table_s", "s"),
    ("report.correlation_matrix_s", "s"),
    ("trace.evaluate_wall_s", "s"), ("trace.unwrapped_s", "s"), ("trace.overhead_s", "s"),
]

# Spans reported under their own name: `<name>_s` is self time, `<name>_calls` a count.
_TIMED = ["ingest.parse_run", "ingest.parse_scores", "ingest.parse_sequence",
          "ingest.parse_qrels", "ingest.parse_alignment", "core.gather", "core.draws_for",
          "core.max_grade", "exposure.position_weights", "exposure.request_exposure",
          "exposure.target_exposure", "metrics_single.pref_fairness", "metrics_single.awrf",
          "metrics_single.fair_score", "opportunity.group_utility",
          "opportunity.discounted_group_utility", "opportunity.expected_exposure",
          "opportunity.iaa", "pairwise.sample_pairs", "pairwise.accuracy_table",
          "core.binarize", "core.apply_unknown_policy"]


class Bench:
    """One benchmark run: a work directory, child processes and their checks."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.corpus_seed = workload.corpus_seed(seed)
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        env = {k: v for k, v in os.environ.items() if k != "FAIRRANK_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        self.env = env
        self.corpus: dict | None = None
        self.digests: dict[str, str] = {}

    # -- processes ---------------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str]) -> tuple[float, float, int]:
        """Run one child; return its wall time (s), peak RSS (MB) and exit code.

        ``os.wait4`` on the child's pid gives the peak RSS of that child alone.
        """
        with open(self.work / "children.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=log, stderr=log)
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "fairrank.cli", *args]

    def traced(self, prefix: Path, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "tracer.py"), str(prefix), *args]

    def evaluate_args(self, out: Path) -> list[str]:
        c = self.corpus
        args = ["evaluate"]
        for p in c["runs"]:
            args += ["--run", str(p)]
        if self.workload.scores:
            for p in c["scores"]:
                args += ["--scores", str(p)]
        args += ["--qrels", str(c["qrels"]), "--alignment", str(c["alignment"]),
                 "--sequence", str(c["sequence"]), "--out", str(out)]
        if self.workload.config is not None:
            args += ["--config", str(self.work / "config.yaml")]
        return args

    # -- checks ------------------------------------------------------------

    def record(self, what: str, code: int, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}", *problems]
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def check_evaluate(self, what: str, code: int, out: Path) -> None:
        reference = REFERENCES / f"{self.workload.name}-seed{self.corpus_seed}.csv"
        problems = [] if code != 0 else check_metrics(
            out / "metrics.csv", self.corpus["systems"], self.workload.metrics, reference)
        self.record(what, code, problems)

    def check_compare(self, what: str, code: int, out: Path) -> None:
        self.record(what, code, [] if code != 0 else check_compare(out))

    # -- phases ------------------------------------------------------------

    def _generate(self, out: Path) -> tuple[float, dict, dict[str, str]]:
        from fairrank.synth import SynthSpec, generate

        start = time.perf_counter()
        paths = generate(SynthSpec(seed=self.corpus_seed, **self.workload.synth), out)
        elapsed = time.perf_counter() - start
        return elapsed, paths, sha256_tree(out)  # hashing is also the untimed warm-up read

    def setup(self) -> float:
        """Generate the corpus the run evaluates; return the time it took."""
        elapsed, self.corpus, self.digests = self._generate(self.work / "corpus")
        if self.workload.config is not None:
            (self.work / "config.yaml").write_text(self.workload.config, encoding="utf-8")
        return elapsed

    def setup_again(self) -> float:
        """Generate the corpus once more, check it is byte-identical, delete it."""
        out = self.work / "again"
        elapsed, _, digests = self._generate(out)
        shutil.rmtree(out)
        if digests != self.digests:
            self.problems.append("setup: synth output differs between repetitions")
        return elapsed

    def import_times(self, reps: int) -> list[float]:
        """``import fairrank.cli`` in fresh processes, timed inside each."""
        code = ("import time; t = time.perf_counter(); import fairrank.cli; "
                "print(time.perf_counter() - t)")
        out = []
        for _ in range(reps):
            proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=60, check=True)
            out.append(float(proc.stdout))
        return out

    def measure(self, seconds: float) -> dict:
        setup = [self.setup()]
        self.import_times(1)  # warm-up: byte-compile and page in the libraries
        evals, rss, compares = [], [], []
        laps, probes = [], [probe()]
        start = time.perf_counter()
        while True:
            out = self.work / f"out{len(evals)}"
            lap = time.perf_counter()
            # a set-up repetition every other lap spreads them over the whole window
            if len(evals) % 2 == 1:
                setup.append(self.setup_again())
            wall, peak, code = self.spawn(self.cli(*self.evaluate_args(out)))
            self.check_evaluate("evaluate", code, out)
            evals.append(wall)
            rss.append(peak)
            if code == 0:
                wall, _, code = self.spawn(self.cli("compare", "--results", str(out), "--long"))
                self.check_compare("compare", code, out)
                compares.append(wall)
            shutil.rmtree(out, ignore_errors=True)
            probes.append(probe())
            now = time.perf_counter()
            laps.append(now - lap)
            # stop before a typical lap would run past the window, or a slow one
            # past the deadline
            if (now - start + statistics.median(laps) > seconds
                    or self.remaining() < 1.5 * max(laps)):
                break
        host = statistics.median(probes)
        scale = PROBE_REF_S / host
        unscaled = ", ".join(f"{name} {statistics.median(values):.6g} s" for name, values in
                             (("evaluate", evals), ("compare", compares), ("setup", setup))
                             if values)
        print(f"{self.workload.name} host probe = {host:.6g} s (median of {len(probes)}); "
              f"timings are wall times x {scale:.4g}; unscaled medians: {unscaled}")
        return {
            "evaluate_s": ([t * scale for t in evals], "s"),
            "peak_rss_mb": (rss, "MB"),
            "compare_s": ([t * scale for t in compares], "s"),
            "setup_s": ([t * scale for t in setup], "s"),
        }

    def trace(self) -> dict:
        self.setup()
        imports = self.import_times(IMPORT_REPS)
        plain = self.work / "plain"
        untraced, _, code = self.spawn(self.cli(*self.evaluate_args(plain)))
        self.check_evaluate("evaluate", code, plain)
        out = self.work / "traced"
        ev_prefix, cp_prefix = self.work / "trace_evaluate", self.work / "trace_compare"
        traced, _, code = self.spawn(self.traced(ev_prefix, *self.evaluate_args(out)))
        self.check_evaluate("traced evaluate", code, out)
        _, _, cp_code = self.spawn(self.traced(cp_prefix, "compare", "--results", str(out),
                                               "--long"))
        self.check_compare("traced compare", cp_code, out)
        if code != 0 or cp_code != 0:
            return {}
        ev, cp = tracer.summarize(str(ev_prefix)), tracer.summarize(str(cp_prefix))
        for what, summary in (("evaluate", ev), ("compare", cp)):
            residual = summary["self_sum_s"] - summary["wall_s"]
            if abs(residual) > 1e-6 * max(1.0, summary["wall_s"]) or summary["min_self_s"] < -1e-6:
                self.problems.append(f"trace of {what}: self times do not add up "
                                     f"(residual {residual:.3g} s)")
        return layer_metrics(ev, cp, imports, traced - untraced)


def probe() -> float:
    """Host speed: the median time of a fixed pure-Python loop, in s."""
    laps = []
    for _ in range(PROBE_LAPS):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        laps.append(time.perf_counter() - start)
    return statistics.median(laps)


def layer_metrics(ev: dict, cp: dict, imports: list[float], overhead: float) -> dict:
    """Per-layer numbers from the evaluate and compare traces."""
    def self_s(name: str, summary: dict = ev) -> float:
        return summary["self_s"].get(name, 0.0)

    values: dict[str, float] = {"cli.import_s": statistics.median(imports)}
    for name in _TIMED:
        values[f"{name}_s"] = self_s(name)
        values[f"{name}_calls"] = ev["calls"].get(name, 0)
    for name in ("ingest.parse_run_records", "ingest.parse_scores_records", "core.gather_docs",
                 "pairwise.pairs", "pairwise.n_fallback"):
        values[name] = ev["counts"].get(name, 0)
    values["core.context_s"] = self_s("core.binarize") + self_s("core.apply_unknown_policy")
    values["metrics_multi.s"] = (self_s("metrics_multi.demographic_parity")
                                 + self_s("metrics_multi.eed"))
    per_system = ev["evaluate_system_s"]
    values["pipeline.evaluate_system_s"] = statistics.median(per_system)
    values["pipeline.evaluate_system_max_s"] = max(per_system)
    values["pipeline.evaluate_system_calls"] = len(per_system)
    values["pipeline.self_s"] = self_s("pipeline.evaluate_system")
    values["pipeline.degenerate_share"] = (ev["counts"].get("pipeline.requests_degenerate", 0)
                                           / ev["counts"]["pipeline.requests_scored"])
    for name in ("report.emit_tables", "report.read_metrics_table",
                 "report.correlation_matrix"):
        values[f"{name}_s"] = self_s(name) + self_s(name, cp)
    values["trace.evaluate_wall_s"] = ev["wall_s"]
    values["trace.unwrapped_s"] = ev["unwrapped_s"]
    values["trace.overhead_s"] = overhead
    return {name: ([values[name]], unit) for name, unit in PER_LAYER}


def sha256_tree(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def metadata(root: Path, bench: Bench, trace: bool) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": bench.workload.name, "corpus_seed": bench.corpus_seed, "trace": trace,
        "commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
        "corpus_sha256": bench.digests,
    }


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, workload, seed, work)
    try:
        samples = bench.trace() if trace else bench.measure(seconds)
        print("meta " + json.dumps(metadata(root, bench, trace), sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {}
    for name, (values, unit) in samples.items():
        if not values:
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        spread = "" if trace else (f" (median of {len(values)}, min {min(values):.6g}, "
                                   f"max {max(values):.6g})")
        print(f"{workload.name} {name} = {value:.6g} {unit}{spread}")
    failed_frac = bench.failed / max(1, bench.attempted)
    print(f"{workload.name} failed_frac = {failed_frac:.6g} ratio "
          f"({bench.failed} of {bench.attempted} invocations)")
    return {
        "correct": not bench.problems and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def write_references(root: Path, workload: Workload) -> None:
    REFERENCES.mkdir(exist_ok=True)
    for seed in range(len(workload.corpus_seeds)):
        work = root / ".perfbench_work" / f"reference-{workload.name}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        bench = Bench(root, workload, seed, work)
        try:
            bench.setup()
            _, _, code = bench.spawn(bench.cli(*bench.evaluate_args(work / "out")))
            if code != 0:
                raise SystemExit(f"evaluate failed with exit code {code}")
            target = REFERENCES / f"{workload.name}-seed{bench.corpus_seed}.csv"
            shutil.copyfile(work / "out" / "metrics.csv", target)
            print(f"wrote {target}")
        finally:
            shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "fairrank" / "cli.py").is_file():
        print(f"error: {root} has no src/fairrank; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = [n for n, w in WORKLOADS.items() if w.measured] if args.workload == "all" \
        else [args.workload]
    if args.write_references:
        for name in names:
            write_references(root, WORKLOADS[name])
        return 0
    ok = True
    for name in names:
        result = run_workload(root, WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
