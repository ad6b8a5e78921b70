"""Workloads, outcome checks and metrics of the ffcbf benchmark.

Every workload is a closed loop: the next trial starts when the previous one
ends.  Its inputs come from the seed alone: the seed goes into
``ffcbf.scenario.default_config`` and trial indices run 0, 1, 2, ... over the
workload's cells (barrier kind x scenario) in round-robin order.  The first
``rounds`` indices of every cell form the *outcome set*; its outcome fractions
and digests depend only on the seed.  An end-to-end run keeps starting new
trials after the outcome set until ``seconds`` have passed.

Only the public API is driven (``default_config``, ``run_trial``,
``ffcbf.cli.main``).  The one piece of instrumentation in an end-to-end run is
a boundary timer around each controller call; the traced run (``tracing``)
is separate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import pickle
import resource
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from ffcbf import cli, scenario
from ffcbf.scenario import BatchSummary, default_config

from .tracing import Tracer, patched, summarize, traced_layers

KINDS = ("zero", "ff", "rff")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    scenarios: tuple
    rounds: int                  # trials per cell in the outcome set
    e2e_via_cli: bool = False    # untraced run through ``ffcbf compare`` and its pool
    trace_via_cli: bool = False  # traced run through ``ffcbf compare`` (1 worker)


WORKLOADS = {w.name: w for w in (
    # The paper's main case; cost spread over QP build/solve, rows, RK4 and the loop.
    Workload("central-straight", "centralized", ("all_straight",), 6),
    # The only centralized case with infeasible ticks, fallback braking and
    # collisions.  Its traced run goes through ``ffcbf compare`` on the same
    # trials, which adds the CLI writes, the pool speedup and the check of
    # the CLI's outputs against the in-process outcomes.
    Workload("central-left-turn", "centralized", ("one_left_turn",), 6, trace_via_cli=True),
    # Not in BENCHMARK.json (too unsteady from run to run, see README.md);
    # run by hand.  n one-variable QPs per tick, phase-1 LP heavy, long and
    # deadlock-prone trials.
    Workload("decentral-mixed", "decentralized", ("all_straight", "one_left_turn"), 1),
    # Not in BENCHMARK.json (see README.md); run by hand.  The user-facing
    # command through the process pool, on the central-left-turn trials.
    Workload("cli-compare", "centralized", ("one_left_turn",), 6,
             e2e_via_cli=True, trace_via_cli=True),
)}

# Metric name -> unit.  END_TO_END is what an untraced run reports, PER_LAYER
# what a traced run reports; BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": "s",
    "ticks_per_s": "1/s",
    "tick_p50_us": "us",
    "tick_p999_us": "us",
    "peak_rss_mb": "MB",
}
# Printed by every untraced run next to END_TO_END but not gated: outcome
# fractions can be 0; trials_per_s swings with the seed's mix of short
# successes and long deadlocks; p99 sits where the phase-1 tail starts on the
# left turn (1-2% of ticks) and jumps between about 1.2 and 3 ms by seed.
OUTCOMES = {
    "trials_per_s": "1/s",
    "safe_success_frac": "ratio",
    "unsafe_frac": "ratio",
    "error_frac": "ratio",
}
REPORTED = {"tick_p99_us": "us", **OUTCOMES}
PER_LAYER = {
    "dynamics.step.us": "us",
    "dynamics.step.calls": "count",
    "barriers.constraint_row.us": "us",
    "barriers.constraint_row.calls": "count",
    "barriers.h_speed.us": "us",
    "controllers.nominal_control.us": "us",
    "controllers.step.self_us": "us",
    "controllers.fallback_ticks": "count",
    "qp.build.us": "us",
    "qp.build.calls": "count",
    "qp.solve.self_us": "us",
    "qp.solve.calls": "count",
    "qp.active_set_iters": "count",
    "qp.infeasible": "count",
    "qp.iteration_limited": "count",
    "qp.fast_path_ratio": "ratio",
    "qp.phase1.calls": "count",
    "qp.phase1.us": "us",
    "qp.phase1.wall_frac": "ratio",
    "scenario.reference.us": "us",
    "scenario.is_exited.us": "us",
    "scenario.h0.us": "us",
    "scenario.run_trial.self_us": "us",
    "scenario.deadlock_trials": "count",
    "scenario.timeout_trials": "count",
    "scenario.infeasible_trials": "count",
    "cli.write_trajectory_csv.us": "us",
    "cli.write_trajectory_csv.bytes": "B",
    "cli.write_manifest.us": "us",
    "cli.write_summary.us": "us",
    "pool.speedup": "x",
    "trace.overhead_frac": "ratio",
    "trace.wall_us": "us",
    "trace.unwrapped_us": "us",
    "trace.ticks": "count",
    **OUTCOMES,
}


def build_configs(workload: str, seed: int, t_max: float | None = None):
    """[(cell label, ScenarioConfig)] of one workload, in round-robin order."""
    w = WORKLOADS[workload]
    overrides = {} if t_max is None else {"t_max": t_max}
    return [(f"{scen}/{kind}", default_config(kind, w.mode, scen, seed=seed, **overrides))
            for scen in w.scenarios for kind in KINDS]


# ---------------------------------------------------------------------------
# trials and outcome checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    label: str
    index: int
    result: scenario.TrialResult | None
    error: str | None = None      # "<ExceptionType>: <message>" when the trial raised
    wall_s: float = 0.0
    ticks: float = 0.0            # counted by a TickTimer, when one is installed


def run_one(label: str, config, index: int) -> TrialRecord:
    """One trial through ``ffcbf.scenario.run_trial``; exceptions are recorded.

    A resampling ScenarioError (a ValueError), a phase-1 RuntimeError and a
    slip-angle ValueError count toward error_frac instead of ending the run.
    """
    try:
        return TrialRecord(label, index, scenario.run_trial(config, index))
    except (RuntimeError, ValueError) as exc:
        return TrialRecord(label, index, None, f"{type(exc).__name__}: {exc}")


def closed_loop(configs, rounds: int, seconds: float, timer: TickTimer | None = None):
    """Run trials round-robin over the cells: the full outcome set, then more
    until ``seconds`` have passed.  Returns (records, wall seconds)."""
    records = []
    t0 = time.perf_counter()
    index = 0
    while True:
        for label, config in configs:
            start = time.perf_counter()
            if index >= rounds and start - t0 >= seconds:
                return records, start - t0
            ticks = timer.ticks if timer else 0.0
            rec = run_one(label, config, index)
            records.append(replace(rec, wall_s=time.perf_counter() - start,
                                   ticks=(timer.ticks - ticks) if timer else 0.0))
        index += 1


def round_rates(records, cells: int) -> list[float]:
    """Ticks per second of each complete round (one trial of every cell)."""
    rounds: dict[int, list] = {}
    for rec in records:
        rounds.setdefault(rec.index, []).append(rec)
    return [sum(r.ticks for r in recs) / sum(r.wall_s for r in recs)
            for recs in rounds.values() if len(recs) == cells]


def warm_up(configs) -> None:
    """Run half a simulated second of trial 0 in every cell, untimed, so that
    first-call costs (lazy imports, the HiGHS set-up) stay out of the timings."""
    for _, config in configs:
        run_one("warm-up", replace(config, t_max=min(config.t_max, 0.5)), 0)


def invariant_problems(records) -> list[str]:
    """Per-trial invariants of a TrialResult."""
    problems = []
    for rec in records:
        r = rec.result
        if r is None:
            continue
        where = f"{rec.label} trial {rec.index}"
        if int(r.success) + int(r.deadlock) + int(r.timeout) != 1:
            problems.append(f"{where}: not exactly one of success/deadlock/timeout")
        if r.unsafe != (r.min_h0 < 0.0):
            problems.append(f"{where}: unsafe={r.unsafe} but min_h0={r.min_h0!r}")
        if (r.completion_time is not None) != r.success:
            problems.append(f"{where}: completion_time={r.completion_time!r}, success={r.success}")
        if r.trial_index != rec.index:
            problems.append(f"{where}: result carries trial index {r.trial_index}")
    return problems


def _outcome_line(rec: TrialRecord) -> str:
    r = rec.result
    if r is None:
        return f"{rec.index}|error|{rec.error.split(':', 1)[0]}"
    flags = "".join(str(int(f)) for f in r.flags().values())
    return f"{r.trial_index}|{flags}|{r.min_h0!r}|{r.completion_time!r}"


def digests(records) -> dict:
    """Per-cell sha256 over (index, flags, repr(min_h0), completion time)."""
    lines: dict[str, list[str]] = {}
    for rec in records:
        lines.setdefault(rec.label, []).append(_outcome_line(rec))
    return {label: hashlib.sha256("\n".join(ls).encode()).hexdigest()[:16]
            for label, ls in lines.items()}


def outcome_fractions(records) -> dict:
    n = len(records)
    done = [rec.result for rec in records if rec.result is not None]
    return {
        "safe_success_frac": sum(r.success and r.min_h0 >= 0.0 for r in done) / n,
        "unsafe_frac": sum(r.min_h0 < 0.0 for r in done) / n,
        "error_frac": (n - len(done)) / n,
    }


def _trial_counts(records) -> dict:
    done = [rec.result for rec in records if rec.result is not None]
    return {
        "scenario.deadlock_trials": sum(r.deadlock for r in done),
        "scenario.timeout_trials": sum(r.timeout for r in done),
        "scenario.infeasible_trials": sum(not r.always_feasible for r in done),
    }


# ---------------------------------------------------------------------------
# tick latency (the only instrumentation of an untraced run)
# ---------------------------------------------------------------------------

class TickTimer:
    """Times each controller call at its boundary from outside.

    A tick advances every vehicle by dt: one ``centralized_step`` call, or
    ``num_vehicles`` calls of ``decentralized_step`` (one per ego).  The
    latency sample is one call, since each vehicle computes its own input.
    """

    def __init__(self):
        self.samples_ns: list[int] = []
        self.ticks = 0.0

    def _timed(self, fn, decentralized: bool):
        samples = self.samples_ns

        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            samples.append(time.perf_counter_ns() - t0)
            self.ticks += 1.0 / len(args[1]) if decentralized else 1.0
            return result

        return timed

    def _dumping(self, fn, dump_dir: str):
        # Pool workers are forked with this wrapper in place; each trial's
        # latency samples and outcome go to a file that the parent reads back.
        def run_trial(config, trial_index, *args, **kwargs):
            self.samples_ns.clear()
            result = None
            try:
                result = fn(config, trial_index, *args, **kwargs)
                return result
            finally:
                label = f"{config.scenario}/{config.controller.cbf_kind}"
                outcome = None if result is None else replace(result, trajectory=None)
                name = f"{label.replace('/', '-')}-{trial_index}-{os.getpid()}.pkl"
                with open(os.path.join(dump_dir, name), "wb") as fh:
                    pickle.dump((label, trial_index, array("q", self.samples_ns), outcome), fh)

        return run_trial

    @contextlib.contextmanager
    def installed(self, dump_dir: str | None = None):
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(
                scenario, "centralized_step", self._timed(scenario.centralized_step, False)))
            stack.enter_context(patched(
                scenario, "decentralized_step", self._timed(scenario.decentralized_step, True)))
            if dump_dir is not None:
                stack.enter_context(patched(
                    scenario, "run_trial", self._dumping(scenario.run_trial, dump_dir)))
            yield self


def _load_dumps(dump_dir: str):
    """(latency samples, TrialRecords sorted by cell and index) of a dump dir."""
    samples, records = [], []
    for name in os.listdir(dump_dir):
        with open(os.path.join(dump_dir, name), "rb") as fh:
            label, index, got, result = pickle.load(fh)
        samples += got
        records.append(TrialRecord(label, index, result, None if result else "raised in worker"))
    records.sort(key=lambda rec: (rec.label, rec.index))
    return samples, records


def _tick_metrics(samples_ns, rates) -> dict:
    """Latency percentiles over every call; ticks_per_s is the median rate of
    the run's rounds, so that one round with a long infeasible stretch does
    not move it."""
    p50, p99, p999 = np.percentile(np.asarray(samples_ns, dtype=float), [50, 99, 99.9]) / 1e3
    return {"ticks_per_s": float(np.median(rates)), "tick_p50_us": float(p50),
            "tick_p99_us": float(p99), "tick_p999_us": float(p999)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Report:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)      # digests, errors, span files


def _check_records(report: Report, records, outcome_set) -> None:
    """Count the trials, check their invariants and note errors and digests."""
    report.attempted += len(records)
    report.failed += sum(rec.result is None for rec in records)
    report.problems += invariant_problems(records)
    report.notes += [f"error {rec.label} trial {rec.index}: {rec.error}"
                     for rec in records if rec.error is not None]
    report.notes += [f"digest {label} {d}" for label, d in digests(outcome_set).items()]


def _layer_metrics(table: dict, counters, wall_ns: int) -> dict:
    def us(name, key="total_ns"):
        return table.get(name, {}).get(key, 0) / 1e3

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    solves = calls("qp.solve")
    return {
        "dynamics.step.us": us("dynamics.step"),
        "dynamics.step.calls": calls("dynamics.step"),
        "barriers.constraint_row.us": us("barriers.constraint_row"),
        "barriers.constraint_row.calls": calls("barriers.constraint_row"),
        "barriers.h_speed.us": us("barriers.h_speed"),
        "controllers.nominal_control.us": us("controllers.nominal_control"),
        "controllers.step.self_us": us("controllers.step", "self_ns"),
        "controllers.fallback_ticks": counters["controllers.fallback_ticks"],
        "qp.build.us": us("qp.build"),
        "qp.build.calls": calls("qp.build"),
        "qp.solve.self_us": us("qp.solve", "self_ns"),
        "qp.solve.calls": solves,
        "qp.active_set_iters": counters["qp.active_set_iters"],
        "qp.infeasible": counters["qp.infeasible"],
        "qp.iteration_limited": counters["qp.iteration_limited"],
        "qp.fast_path_ratio": counters["qp.fast_path"] / solves if solves else 0.0,
        "qp.phase1.calls": calls("qp.phase1"),
        "qp.phase1.us": us("qp.phase1"),
        "qp.phase1.wall_frac": us("qp.phase1") * 1e3 / wall_ns,
        "scenario.reference.us": us("scenario.reference"),
        "scenario.is_exited.us": us("scenario.is_exited"),
        "scenario.h0.us": us("scenario.h0"),
        "scenario.run_trial.self_us": us("scenario.run_trial", "self_ns"),
        "cli.write_trajectory_csv.us": us("cli.write_trajectory_csv"),
        "cli.write_trajectory_csv.bytes": counters["cli.write_trajectory_csv.bytes"],
        "cli.write_manifest.us": us("cli.write_manifest"),
        "cli.write_summary.us": us("cli.write_summary"),
        "trace.wall_us": wall_ns / 1e3,
        "trace.unwrapped_us": table["_unwrapped_ns"] / 1e3,
    }


def _traced_summary(report: Report, tracer: Tracer, wall_ns: int, ticks: float,
                    spans_path: str) -> dict:
    table, problems = summarize(tracer, wall_ns)
    report.problems += [f"trace accounting: {p}" for p in problems]
    tracer.write(spans_path)
    report.notes.append(f"spans {len(tracer.start)} written to {spans_path}")
    return {**_layer_metrics(table, tracer.counters, wall_ns), "trace.ticks": ticks}


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def run_in_process(w: Workload, seed: int, seconds: float, trace: bool, workdir: str,
                   t_max: float | None = None, rounds: int | None = None) -> Report:
    configs = build_configs(w.name, seed, t_max)
    rounds = w.rounds if rounds is None else rounds
    report = Report()
    warm_up(configs)
    timer = TickTimer()
    if not trace:
        with timer.installed():
            records, wall = closed_loop(configs, rounds, seconds, timer)
        fixed = records[:rounds * len(configs)]
        _check_records(report, records, fixed)
        report.metrics.update(_tick_metrics(timer.samples_ns, round_rates(records, len(configs))))
        report.metrics["peak_rss_mb"] = peak_rss_mb()
        report.metrics["trials_per_s"] = len(records) / wall
        report.metrics.update(outcome_fractions(fixed))
        return report

    # Each trial of the outcome set runs untraced, then traced, so that a
    # drift in machine speed during the run hits both walls alike.
    tracer = Tracer()
    records, traced = [], []
    untraced_ns = wall_ns = 0
    for index in range(rounds):
        for label, config in configs:
            t0 = time.perf_counter_ns()
            with timer.installed():
                records.append(run_one(label, config, index))
            t1 = time.perf_counter_ns()
            with traced_layers(tracer):
                traced.append(run_one(label, config, index))
            wall_ns += time.perf_counter_ns() - t1
            untraced_ns += t1 - t0
    _check_records(report, records, records)
    _check_records(report, traced, ())
    if digests(traced) != digests(records):
        report.problems.append("traced outcome digest differs from the untraced one")
    # the traced trials repeat the untraced ones tick for tick (same digest)
    m = _traced_summary(report, tracer, wall_ns, timer.ticks,
                        os.path.join(workdir, f"spans-{w.name}.npz"))
    m.update(_trial_counts(records))
    m["trials_per_s"] = len(records) / (untraced_ns / 1e9)
    m.update(outcome_fractions(records))
    m["pool.speedup"] = 1.0   # one worker: no pool
    m["trace.overhead_frac"] = wall_ns / untraced_ns - 1.0
    report.metrics = m
    return report


# ---------------------------------------------------------------------------
# cli-compare
# ---------------------------------------------------------------------------

def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _cli_argv(seed: int, trials: int, workers: int, out: str, config_path: str | None):
    argv = ["compare", "--mode", "centralized", "--scenario", "left-turn",
            "--workers", str(workers), "--log-trajectories", "failures",
            "--trials", str(trials), "--seed", str(seed), "--out", out]
    if config_path is not None:
        argv += ["--config", config_path]
    return argv


def _check_cli_outputs(out: str, records) -> list[str]:
    """summary.json rates and the set of trial CSVs must match per-trial outcomes."""
    problems = []
    for kind in KINDS:
        results = [rec.result for rec in records if rec.label.endswith("/" + kind)]
        if not results or None in results:
            problems.append(f"cli {kind}: missing or failed trials; cannot compare")
            continue
        expected = cli.summary_to_dict(BatchSummary.from_results(results), kind)
        got = cli.read_summary(os.path.join(out, kind, "summary.json"))
        if got != expected:
            problems.append(f"cli {kind}: summary {got} != per-trial outcomes {expected}")
        want_csv = {r.trial_index for r in results
                    if not (r.success and r.always_feasible and not r.unsafe)}
        trials_dir = os.path.join(out, kind, "trials")
        have_csv = {int(name[len("trial_"):-len(".csv")])
                    for name in (os.listdir(trials_dir) if os.path.isdir(trials_dir) else ())}
        if have_csv != want_csv:
            problems.append(f"cli {kind}: trial CSVs {sorted(have_csv)} != {sorted(want_csv)}")
    return problems


def run_cli_compare(w: Workload, seed: int, seconds: float, trace: bool, workdir: str,
                    t_max: float | None = None, rounds: int | None = None) -> Report:
    """``ffcbf compare --trials <rounds>`` on the central-left-turn cells.

    The in-process outcome set (the same trials as central-left-turn) is the
    reference.  Every invocation's summary.json and trial CSVs are checked
    against the outcomes its pool workers report, and the invocation with
    ``--seed <seed>`` against the reference.  An untraced run invokes the
    command with config seeds seed, seed*1000+1, seed*1000+2, ... until
    ``seconds`` have passed, so that it covers many distinct trials; a traced
    run times ``--seed <seed>`` at nproc and at 1 worker, then traces the
    1-worker run.
    """
    configs = build_configs(w.name, seed, t_max)
    rounds = w.rounds if rounds is None else rounds
    report = Report()
    os.makedirs(workdir, exist_ok=True)
    config_path = None
    if t_max is not None:
        config_path = os.path.join(workdir, "cli-config.json")
        with open(config_path, "w") as fh:
            json.dump(cli.config_to_dict(configs[0][1]), fh)

    warm_up(configs)
    reference, _ = closed_loop(configs, rounds, 0.0)
    _check_records(report, reference, reference)
    want = digests(reference)

    def invoke(workers: int, cli_seed: int = seed, main=cli.main):
        """One ``ffcbf compare`` into a fresh directory; returns (wall ns, tick samples)."""
        tmp = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        try:
            out = os.path.join(tmp, "out")
            dump_dir = os.path.join(tmp, "ticks")
            os.makedirs(dump_dir)
            argv = _cli_argv(cli_seed, rounds, workers, out, config_path)
            with TickTimer().installed(dump_dir), contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter_ns()
                code = main(argv)
                wall = time.perf_counter_ns() - t0
            samples, records = _load_dumps(dump_dir)
            report.attempted += rounds * len(KINDS)
            report.problems += invariant_problems(records)
            if code != 0:
                report.problems.append(f"ffcbf {' '.join(argv)} exited {code}")
            else:
                report.problems += _check_cli_outputs(out, records)
            if cli_seed == seed and digests(records) != want:
                report.problems.append(f"cli at {workers} workers: outcome digest "
                                       f"{digests(records)} differs from in-process {want}")
            return wall, samples
        finally:
            shutil.rmtree(tmp)

    nproc = available_cpus()
    if not trace:
        walls, samples, rates = 0, [], []
        for k in itertools.count():
            if k and walls >= seconds * 1e9:
                break
            wall, got = invoke(nproc, seed * 1000 + k if k else seed)
            walls += wall
            samples += got
            rates.append(len(got) / (wall / 1e9))   # centralized: one call per tick
        walls /= 1e9
        report.metrics.update(_tick_metrics(samples, rates))
        report.metrics["peak_rss_mb"] = peak_rss_mb()
        report.metrics["trials_per_s"] = report.attempted / walls
        report.metrics.update(outcome_fractions(reference))
        return report

    # Symmetric order (nproc, 1, traced 1, 1, nproc), so that a linear drift
    # in machine speed cancels out of the speedup and the overhead.
    wall_n, _ = invoke(nproc)
    wall_1, _ = invoke(1)
    tracer = Tracer()
    with traced_layers(tracer):
        wall_t, samples = invoke(1, main=tracer.wrap("cli.main", cli.main))
    wall_1 += invoke(1)[0]
    wall_n += invoke(nproc)[0]
    m = _traced_summary(report, tracer, wall_t, len(samples),
                        os.path.join(workdir, f"spans-{w.name}.npz"))
    m.update(_trial_counts(reference))
    m["trials_per_s"] = 2 * rounds * len(KINDS) / (wall_n / 1e9)
    m.update(outcome_fractions(reference))
    m["pool.speedup"] = wall_1 / wall_n
    m["trace.overhead_frac"] = 2 * wall_t / wall_1 - 1.0
    report.metrics = m
    return report


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 t_max: float | None = None, rounds: int | None = None) -> Report:
    w = WORKLOADS[name]
    via_cli = w.trace_via_cli if trace else w.e2e_via_cli
    runner = run_cli_compare if via_cli else run_in_process
    return runner(w, seed, seconds, trace, workdir, t_max, rounds)
