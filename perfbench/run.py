"""Benchmark of the ``pacc`` CLI: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark takes ``pacc`` from the checkout's ``src`` directory and runs
real CLI commands in child processes, one after another (a closed loop with
one client). It repeats the workload's commands, one "pass" at a time, until
the next pass would end after ``--seconds``, and reports medians over the
passes. Every pass of a run uses the same seed, so their outputs must be
byte-identical. Every child runs with BLAS pinned to one thread, so compute
threads never exceed the two cores of the machine this was sized on.

Workloads in ``BENCHMARK.json`` (the seed becomes every command's ``--seed``):

- ``sccs_sweep``: ``pacc sweep --threads 2`` on ``configs/sccs_sweep.json``,
  8 trials at each of its three grid points (50,000 cases each). The SCCS
  generator and its case-series redraws do almost all the work.
- ``ps_bound``: ``pacc verify --threads 2`` of the propensity pipeline at
  the full-scale acceptance parameters (N1 = 1,173,514), 8 trials. Logistic
  fit and generation dominate, and two workers hold about 420 MiB.
- ``iv_many``: ``pacc verify --threads 2`` on ``configs/iv_verify.json`` at
  its own sample size (N = 1,280) with 5,000 trials. The kernels are cheap,
  so harness per-trial cost, stream set-up, thread contention and report
  rendering take the time; SCCS and propensity kernel changes should leave
  it unchanged. A pass lasts about 2 s, so a run takes the median of about
  ten: thread contention makes single passes differ by a tenth or more.
  Interpreter-bound code follows the shared VM's speed, which drifts by a
  third within minutes, so over ten seeds its quartile spread was 0.15-0.20
  of the median (sccs_sweep 0.06, ps_bound 0.10), close to its 0.25 bound.

``dataset_io`` runs the same way but is left out of ``BENCHMARK.json``,
whose workloads must not fail: ``pacc generate --out`` then ``pacc decide``
for each file format (a 200,000-row IV CSV, a 153,941-row propensity CSV and
a 24,570-patient SCCS JSON), the only workload on the dataset writers and
readers. Its check compares each decision with the in-process pipeline bit
for bit, and on the IV CSV that check fails: ``IvDataset.from_csv`` keeps
strided column views, so 2SLS sums in another order and the statistic
differs in the last bits. It stays runnable to reproduce that defect and to
measure the dataset layers (``--trace 1`` prints their metrics). Its
throughput also spread 25-29% over ten seeds, beyond the largest bound.

End-to-end metrics (``--trace 0``):

- ``wall_s``: launch to exit of every command of a pass, summed.
- ``setup_s``: wall time of a fresh process that only imports the CLI,
  loads the workload's verify config, builds its ``TrialSpec`` and resolves
  the sample size (``child.py --setup``). One probe runs before each pass.
- ``trials_per_s``: trials over the time ``pacc.cli.main`` ran (config load,
  trials, report rendering; not the import). For ``dataset_io`` a trial is
  one generate-then-decide chain, over the pass's wall time.
- ``peak_rss_mb``: the largest peak resident set of any one child process,
  taken per child from ``wait4``.
- ``records_per_s`` (``dataset_io`` only): records written plus records
  parsed over the pass's wall time. On the verify workloads records are a
  fixed multiple of trials, so it would repeat ``trials_per_s``.
- ``fail_share``: failed commands over commands run. It is printed but not a
  ``BENCHMARK.json`` metric, because it is 0 when all is well; the result's
  ``failed`` and ``attempted`` fields carry it.

``--trace 1`` runs rounds of three passes until ``--seconds`` is spent, at
least two of them: an untraced pass, an untraced pass at the other
thread count (verify workloads), and a traced pass in which ``tracing.py``
wraps the public functions of each layer (``core``, ``harness``, ``sccs``,
``propensity``, ``iv2sls``, ``_jsonio`` as ``jsonio.*``, ``cli``). It reports
per-layer metrics with their sample counts. The tracing overhead and the
thread speedup compare medians of passes that alternate within the run, so
both sides sample the same stretches of a machine whose speed drifts; their
counts read ``n=A/B``, the passes on each side. A layer metric that the
workload never reaches reads 0 with 0 samples.

Every result set, with the environment it ran in, is also written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from checks import (  # noqa: E402
    check_decision,
    check_report,
    check_roundtrip,
    expected_decision,
)

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
NPROC = os.cpu_count() or 1
SETUP_PROBES = 5  # at least; one runs before each pass
TRACE_ROUNDS = 2  # at least, so that the traced ratios compare medians
RUN_BUDGET_S = 170.0  # the whole run, so a hung child cannot hold it past 180 s
MIB = 2**20

SCCS_SWEEP_TRIALS = 8
PS_BOUND_TRIALS = 8
IV_MANY_TRIALS = 5_000
IV_ROWS = 200_000
PS_ROWS = 153_941  # N1 + N2 of configs/ps_verify_fast.json
SCCS_CASES = 24_570  # the bound of configs/sccs_verify.json

# Sample sizes the reports must carry: explicit in the two committed configs,
# and the propensity bound N1 + N2 = 1,173,514 + 1,173 for ps_bound.
SCCS_SWEEP_SIZE = 50_000
IV_SIZE = 1_280
PS_BOUND_SIZE = 1_174_687

PS_FULL_GENERATOR = {
    "n_covariates": 5,
    "treat_weights": [0.5] * 5,
    "treat_bias": -1.25,
    "positivity_floor": 0.2,
    "outcome_base": 0.1,
    "confound_weights": [0.07] * 5,
}
PS_FAST_GENERATOR = {
    **PS_FULL_GENERATOR,
    "outcome_base": 0.05,
    "confound_weights": [0.02] * 5,
}
SCCS_DESIGN = {"total_days": 250, "exposure_days": 21}

# Only dataset_io moves these, and BENCHMARK.json leaves dataset_io out, so
# they are printed with the traced run but not part of its result line.
DATASET_LAYER_METRICS = (
    "sccs.to_dict_ms", "sccs.from_dict_ms", "propensity.to_csv_ms",
    "propensity.from_csv_ms", "iv2sls.to_csv_ms", "iv2sls.from_csv_ms",
    "jsonio.dataset_dumps_ms", "cli.dataset_mb",
)


@dataclass
class Command:
    label: str
    argv: list[str]
    output: Path | None = None


@dataclass
class Result:
    command: Command
    exit: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    import_s: float | None
    main_s: float | None
    stdout: Path
    spans: Path | None
    problems: list[str] = field(default_factory=list)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class VerifyWorkload:
    """A ``pacc verify`` or ``pacc sweep`` command on one config."""

    def __init__(self, command, config, trials, points, sample_size,
                 epsilon, setup_config, threads, extra=()):
        self.command = command
        self.threads = threads
        self.config = config
        self.trials = trials * points
        self.points = points
        self.per_point = trials
        self.sample_size = sample_size
        self.epsilon = epsilon
        self.setup_config = setup_config
        self.extra = list(extra)
        self._checked: dict[str, list[str]] = {}
        self._first: str | None = None

    def commands(self, pass_dir: Path, seed: int, threads: int) -> list[Command]:
        report = pass_dir / "report.json"
        argv = [self.command, "--config", str(self.config), *self.extra,
                "--seed", str(seed), "--threads", str(threads), "--out", str(report)]
        return [Command(self.command, argv, report)]

    def phase_s(self, results: list[Result]) -> float:
        return results[0].main_s

    def check(self, result: Result) -> list[str]:
        if result.exit not in (0, 1):
            return [f"{result.command.label} exited {result.exit}"]
        if result.main_s is None or not result.command.output.is_file():
            return [f"{result.command.label} wrote no timing or no report"]
        digest = _digest(result.command.output)
        if digest not in self._checked:
            kind = "sweep" if self.command == "sweep" else "verification"
            self._checked[digest] = check_report(
                result.command.output, kind, self.points, self.per_point,
                self.sample_size, self.epsilon)
        problems = list(self._checked[digest])
        self._first = self._first or digest
        if digest != self._first:
            problems.append("report differs from the run's first report (same seed)")
        return problems


class DatasetWorkload:
    """``pacc generate --out`` then ``pacc decide`` for each dataset format."""

    threads = None

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.setup_config = ROOT / "configs" / "ps_verify_fast.json"
        self.formats = (
            ("iv2sls", "iv.csv", IV_ROWS,
             {"alpha": 1.0, "beta": 0.5, "conf_z": 1.0, "conf_y": 1.0},
             {"delta": 0.5}),
            ("propensity", "ps.csv", PS_ROWS, {**PS_FAST_GENERATOR, "effect": 0.0},
             {"delta": 0.8, "epsilon": 0.2}),
            ("sccs", "sccs.json", SCCS_CASES,
             {"design": SCCS_DESIGN,
              "params": {"phi_law": {"kind": "point", "value": math.log(0.05)},
                         "beta": math.log(2.0), "lambda_floor": 0.05}},
             {"delta": 2.0}),
        )
        self.configs = work / "configs"
        self.configs.mkdir(parents=True, exist_ok=True)
        for method, _, count, params, _ in self.formats:
            _write_json(self.configs / f"generate_{method}.json",
                        {"method": method, "count": count, "master_seed": 0,
                         "generator": params})
        self.trials = len(self.formats)
        self.records = 2 * sum(count for _, _, count, _, _ in self.formats)
        self._expected: dict[str, object] = {}
        self._checked: dict[str, list[str]] = {}
        self._first: dict[str, str] = {}

    def commands(self, pass_dir: Path, seed: int, threads: int) -> list[Command]:
        out = []
        for method, filename, _, _, decide in self.formats:
            data = pass_dir / filename
            config = pass_dir / f"decide_{method}.json"
            _write_json(config, {"method": method, "input": str(data),
                                 "master_seed": 0, **decide})
            out.append(Command(f"generate {method}",
                               ["generate", "--config",
                                str(self.configs / f"generate_{method}.json"),
                                "--seed", str(seed), "--out", str(data)], data))
            out.append(Command(f"decide {method}",
                               ["decide", "--config", str(config), "--seed", str(seed)]))
        return out

    def phase_s(self, results: list[Result]) -> float:
        return sum(r.wall_s for r in results)

    def check(self, result: Result) -> list[str]:
        kind, method = result.command.label.split()
        if kind == "decide":
            if method not in self._expected:
                _, _, count, params, decide = next(f for f in self.formats if f[0] == method)
                self._expected[method] = expected_decision(
                    method, params, count, self.seed, decide)
            return check_decision(result.exit, result.stdout.read_text(),
                                  self._expected[method])
        if result.exit != 0:
            return [f"{result.command.label} exited {result.exit}"]
        digest = _digest(result.command.output)
        if digest not in self._checked:
            self._checked[digest] = check_roundtrip(method, result.command.output.read_text())
        problems = list(self._checked[digest])
        first = self._first.setdefault(method, digest)
        if digest != first:
            problems.append(f"{method} dataset differs from the run's first (same seed)")
        return problems


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1))


def build_workload(name: str, work: Path, seed: int):
    configs = ROOT / "configs"
    if name == "sccs_sweep":
        sweep = json.loads((configs / "sccs_sweep.json").read_text())
        probe = {k: v for k, v in sweep.items() if k != "grid"}
        probe["generator"] = sweep["grid"][0]
        _write_json(work / "setup_sccs_sweep.json", probe)
        return VerifyWorkload(
            "sweep", configs / "sccs_sweep.json", SCCS_SWEEP_TRIALS,
            len(sweep["grid"]), SCCS_SWEEP_SIZE, 0.1, work / "setup_sccs_sweep.json", 2,
            extra=("--set", f"trials={SCCS_SWEEP_TRIALS}"))
    if name == "ps_bound":
        config = work / "ps_bound.json"
        _write_json(config, {
            "method": "propensity", "truth": "M1", "epsilon": 0.1,
            "concept": {"delta": 0.5}, "generator": PS_FULL_GENERATOR,
            "sample_size": "auto", "trials": PS_BOUND_TRIALS, "master_seed": 0})
        return VerifyWorkload("verify", config, PS_BOUND_TRIALS, 1,
                              PS_BOUND_SIZE, 0.1, config, 2)
    if name == "iv_many":
        config = configs / "iv_verify.json"
        return VerifyWorkload("verify", config, IV_MANY_TRIALS, 1, IV_SIZE,
                              0.1, config, 2, extra=("--set", f"trials={IV_MANY_TRIALS}"))
    return DatasetWorkload(work, seed)


class Runner:
    """Starts children one at a time and measures each with ``wait4``."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.setup_walls: list[float] = []
        self.setup_problems: list[str] = []

    def spawn(self, argv: list[str], stem: Path) -> tuple[int, float, float, float]:
        """Run one child to completion: (exit code, wall s, CPU s, peak RSS MiB)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, f"{stem}.out", flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, f"{stem}.err", flags, 0o644),
        ]
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            if not poller.poll(timeout * 1000):
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
        cpu = usage.ru_utime + usage.ru_stime
        return os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss / 1024.0

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.deadline

    def run_pass(self, workload, tag: str, seed: int, threads: int, trace: bool):
        pass_dir = self.work / tag
        pass_dir.mkdir(parents=True, exist_ok=True)
        results = []
        for i, command in enumerate(workload.commands(pass_dir, seed, threads)):
            stem = pass_dir / f"{i}"
            timing = Path(f"{stem}.timing.json")
            spans = Path(f"{stem}.spans.json") if trace else None
            argv = [str(BENCH / "child.py"), "--timing", str(timing)]
            if spans:
                argv += ["--trace", str(spans)]
            code, wall, cpu, rss = self.spawn(argv + ["--", *command.argv], stem)
            try:
                timed = json.loads(timing.read_text())
            except (OSError, ValueError):
                timed = {}
            results.append(Result(command, code, wall, cpu, rss, timed.get("import_s"),
                                  timed.get("main_s"), Path(f"{stem}.out"), spans))
            if self.out_of_time():
                break
        return results

    def setup_probe(self, config: Path) -> None:
        stem = self.work / f"setup{len(self.setup_walls)}"
        code, wall, _, _ = self.spawn([str(BENCH / "child.py"), "--setup", str(config)], stem)
        self.setup_walls.append(wall)
        if code != 0:
            self.setup_problems.append(f"set-up probe exited {code}")

    def import_breakdown(self) -> tuple[float, float]:
        """(import of pacc.cli, its scipy part), seconds, from ``-X importtime``."""
        stem = self.work / "importtime"
        self.spawn(["-X", "importtime", "-c", "import pacc.cli"], stem)
        return parse_importtime(Path(f"{stem}.err").read_text())


def parse_importtime(text: str) -> tuple[float, float]:
    """Sum the top-level ``pacc`` imports and the outermost ``scipy`` ones."""
    stack: list[tuple[int, str, int, list]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name[1:]
        level = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > level:
            children.insert(0, stack.pop())
        stack.append((level, name.strip(), int(cumulative), children))

    def scipy_us(node) -> int:
        _, name, cum, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cum
        return sum(scipy_us(c) for c in children)

    tops = [n for n in stack if n[1] == "pacc" or n[1].startswith("pacc.")]
    return sum(n[2] for n in tops) / 1e6, sum(scipy_us(n) for n in tops) / 1e6


def run_loop(runner: Runner, workload, seed: int, seconds: float):
    """Untraced passes until the next one would end after ``seconds``; at least one.

    Each pass follows a set-up probe, so that probes and passes sample the
    same stretches of a machine whose speed drifts.
    """
    start = time.perf_counter()
    passes = []
    while True:
        runner.setup_probe(workload.setup_config)
        p = runner.run_pass(workload, f"pass{len(passes)}", seed, workload.threads, False)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed + sum(r.wall_s for r in p) > seconds or runner.out_of_time():
            return passes


def trace_rounds(runner: Runner, workload, seed: int, seconds: float):
    """Rounds of untraced, other-thread-count and traced passes.

    Rounds repeat until the next would end after ``seconds``, and at least
    ``TRACE_ROUNDS`` run. Returns the three lists of passes.
    """
    start = time.perf_counter()
    ref, other, traced = [], [], []
    while True:
        k = len(traced)
        round_start = time.perf_counter()
        ref.append(runner.run_pass(workload, f"reference{k}", seed, workload.threads, False))
        if workload.threads:
            other.append(runner.run_pass(workload, f"other_threads{k}", seed,
                                         3 - workload.threads, False))
        traced.append(runner.run_pass(workload, f"traced{k}", seed, workload.threads, True))
        now = time.perf_counter()
        if runner.out_of_time() or (
                len(traced) >= TRACE_ROUNDS and now - round_start + now - start > seconds):
            return ref, other, traced


def check_all(workload, passes) -> tuple[int, int]:
    attempted = failed = 0
    for results in passes:
        for r in results:
            r.problems = workload.check(r)
            attempted += 1
            failed += bool(r.problems)
    return attempted, failed


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload, passes, setup_walls) -> dict:
    phases = [workload.phase_s(p) for p in passes]
    metrics = {
        "wall_s": (_median([sum(r.wall_s for r in p) for p in passes]), "s", len(passes)),
        "setup_s": (_median(setup_walls), "s", len(setup_walls)),
        "trials_per_s": (_median([workload.trials / t for t in phases if t]), "1/s",
                         len(phases)),
        "peak_rss_mb": (max(r.rss_mib for p in passes for r in p), "MiB",
                        sum(len(p) for p in passes)),
    }
    if isinstance(workload, DatasetWorkload):
        metrics["records_per_s"] = (_median([workload.records / t for t in phases if t]),
                                    "1/s", len(phases))
    return metrics


class Span(NamedTuple):
    proc: int
    name: str
    start: float
    end: float
    id: int
    parent: int
    error: str | None
    info: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _load_spans(passes) -> list[Span]:
    """Spans of every traced command, tagged with the index of its process."""
    spans = []
    paths = [r.spans for results in passes for r in results if r.spans and r.spans.exists()]
    for proc, path in enumerate(paths):
        spans += [Span(proc, *item) for item in json.loads(path.read_text())]
    return spans


def layer_metrics(workload, ref, other, traced, import_total, import_scipy) -> dict:
    """Per-layer metrics; ``ref`` and ``other`` are the untraced passes at the
    workload's and the other thread count, ``traced`` the traced ones."""
    spans = _load_spans(traced)
    npass = len(traced)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ok(name) -> list[Span]:
        return [s for s in by_name.get(name, []) if s.error is None]

    def dur(name, scale) -> list[float]:
        return [s.seconds * scale for s in ok(name)]

    def med(values, unit):
        return (_median(values), unit, len(values))

    def per_pass(count):
        return (count / npass if npass else 0.0, "count", npass)

    child_time: dict[tuple[int, int], float] = {}
    for s in spans:
        if s.parent:
            child_time[(s.proc, s.parent)] = child_time.get((s.proc, s.parent), 0.0) + s.seconds
    trials = ok("harness.run_trial")
    trial_ms = [s.seconds * 1e3 for s in trials]
    self_ms = [(s.seconds - child_time.get((s.proc, s.id), 0.0)) * 1e3 for s in trials]
    p90_ms = statistics.quantiles(trial_ms, n=10, method="inclusive")[8] \
        if len(trial_ms) > 1 else _median(trial_ms)
    efficiency = []
    for v in ok("harness.verify"):
        busy = sum(s.seconds for s in trials
                   if s.proc == v.proc and v.start <= s.start and s.end <= v.end)
        efficiency.append(busy / (v.seconds * v.info["workers"]))

    generates = ok("sccs.generate")
    cases = sum(s.info["cases"] for s in generates)
    draws = sum(s.info["draws"] for s in ok("sccs.law_draw"))
    rejects = ok("propensity.reject")
    fits = ok("propensity.fit")
    dumps = ok("jsonio.dumps")
    reports = [s for s in dumps if s.info["kind"] == "report"]
    datasets = [s for s in dumps if s.info["kind"] == "dataset"]

    ref_walls = [sum(r.wall_s for r in p) for p in ref]
    traced_walls = [sum(r.wall_s for r in p) for p in traced]
    cpu_util = [sum(r.cpu_s for r in p) / (wall * NPROC) for p, wall in zip(ref, ref_walls)]
    speedup = (0.0, "ratio", "0/0")
    if other:
        phases = {workload.threads: [workload.phase_s(p) for p in ref],
                  3 - workload.threads: [workload.phase_s(p) for p in other]}
        if all(phases[1]) and all(phases[2]):
            speedup = (_median(phases[1]) / _median(phases[2]), "ratio",
                       f"{len(phases[1])}/{len(phases[2])}")
    written = [r.command.output for r in ref[0] if r.command.label.startswith("generate")]
    imports = [r.import_s for p in [*ref, *other, *traced] for r in p
               if r.import_s is not None]

    return {
        "core.stream_setup_us": med(dur("core.stream_setup", 1e6), "us"),
        "harness.trial_p50_ms": med(trial_ms, "ms"),
        "harness.trial_p90_ms": (p90_ms, "ms", len(trial_ms)),
        "harness.trial_self_ms": med(self_ms, "ms"),
        "harness.parallel_eff": med(efficiency, "share"),
        "harness.speedup_t2_t1": speedup,
        "harness.cpu_util": med(cpu_util, "share"),
        "harness.failed_trials": per_pass(sum(1 for s in trials if s.info["failed"])),
        "sccs.generate_ms": med(dur("sccs.generate", 1e3), "ms"),
        "sccs.decide_us": med(dur("sccs.decide", 1e6), "us"),
        "sccs.events_per_trial": med([s.info["events"] for s in generates], "count"),
        "sccs.redraw_ratio": (draws / cases if cases else 0.0, "ratio", len(generates)),
        "sccs.to_dict_ms": med(dur("sccs.to_dict", 1e3), "ms"),
        "sccs.from_dict_ms": med(dur("sccs.from_dict", 1e3), "ms"),
        "propensity.generate_ms": med(dur("propensity.generate", 1e3), "ms"),
        "propensity.fit_ms": med(dur("propensity.fit", 1e3), "ms"),
        "propensity.fit_capped": per_pass(sum(1 for s in fits if s.info["capped"])),
        "propensity.reject_ms": med(dur("propensity.reject", 1e3), "ms"),
        "propensity.survivor_ratio": med(
            [s.info["kept"] / s.info["offered"] for s in rejects], "ratio"),
        "propensity.halts": per_pass(sum(
            1 for s in by_name.get("propensity.pipeline", [])
            if s.error == "PipelineFailureError")),
        "propensity.ate_us": med(dur("propensity.ate", 1e6), "us"),
        "propensity.design_mb": med(
            [s.info["rows"] * s.info["cols"] * 8 / MIB for s in fits], "MiB"),
        "propensity.to_csv_ms": med(dur("propensity.to_csv", 1e3), "ms"),
        "propensity.from_csv_ms": med(dur("propensity.from_csv", 1e3), "ms"),
        "iv2sls.generate_us": med(dur("iv2sls.generate", 1e6), "us"),
        "iv2sls.decide_us": med(dur("iv2sls.decide", 1e6), "us"),
        "iv2sls.to_csv_ms": med(dur("iv2sls.to_csv", 1e3), "ms"),
        "iv2sls.from_csv_ms": med(dur("iv2sls.from_csv", 1e3), "ms"),
        "jsonio.report_dumps_ms": med([s.seconds * 1e3 for s in reports], "ms"),
        "jsonio.report_mb": med([s.info["bytes"] / MIB for s in reports], "MiB"),
        "jsonio.dataset_dumps_ms": med([s.seconds * 1e3 for s in datasets], "ms"),
        "cli.import_s": med(imports, "s"),
        "cli.import_scipy_share": (import_scipy / import_total if import_total else 0.0,
                                   "share", 1),
        "cli.config_load_ms": med(dur("cli.config_load", 1e3), "ms"),
        "cli.dataset_mb": (sum(p.stat().st_size for p in written if p.exists()) / MIB,
                           "MiB", len(written)),
        "trace.overhead_share": (_median(traced_walls) / _median(ref_walls) - 1.0, "share",
                                 f"{len(traced_walls)}/{len(ref_walls)}"),
    }


def environment(args, workload) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("openblas configuration") \
            or config["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "threads": workload.threads,
        "trials_per_pass": workload.trials,
        "records_per_pass": getattr(workload, "records", None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sccs_sweep", "ps_bound", "iv_many", "dataset_io"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "pacc" / "cli.py", ROOT / "configs" / "sccs_sweep.json",
              ROOT / "configs" / "iv_verify.json", ROOT / "configs" / "ps_verify_fast.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"not a pacc checkout (missing {', '.join(missing)}); "
                         "run from the repository root\n")
        return 2
    if not 0 <= args.seed < 2**64:
        sys.stderr.write("--seed must fit in an unsigned 64-bit word\n")
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = build_workload(args.workload, work, args.seed)
    runner = Runner(work, deadline)

    if args.trace == 0:
        passes = run_loop(runner, workload, args.seed, args.seconds)
        while len(runner.setup_walls) < SETUP_PROBES and not runner.out_of_time():
            runner.setup_probe(workload.setup_config)
        attempted, failed = check_all(workload, passes)
        metrics = end_to_end(workload, passes, runner.setup_walls)
        shown = dict(metrics)
        shown["fail_share"] = (failed / attempted, "share", attempted)
    else:
        ref, other, traced = trace_rounds(runner, workload, args.seed, args.seconds)
        passes = ref + other + traced
        attempted, failed = check_all(workload, passes)
        import_total, import_scipy = runner.import_breakdown()
        shown = layer_metrics(workload, ref, other, traced, import_total, import_scipy)
        metrics = {k: v for k, v in shown.items() if k not in DATASET_LAYER_METRICS}

    problems = runner.setup_problems + [f"{r.command.label}: {p}" for results in passes
                                 for r in results for p in r.problems]
    if runner.out_of_time():
        problems.append(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
    correct = not problems

    env = environment(args, workload)
    print(f"# pacc benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for name, (value, unit, n) in shown.items():
        print(f"{name:34s} {value:>12.6g} {unit:6s} n={n}")
    for p in problems:
        print(f"# PROBLEM {p}")

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in shown.items()},
        "problems": problems,
        "commands": [
            {"label": r.command.label, "exit": r.exit, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "peak_rss_mib": r.rss_mib, "import_s": r.import_s, "main_s": r.main_s}
            for results in passes for r in results
        ],
    }
    (results_dir / f"{work.name}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
