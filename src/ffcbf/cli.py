"""Command-line front end: batch execution, persistence, comparison, replay.

Everything written here is designed to be reproducible byte-for-byte: the
config, summary and comparison documents are canonical JSON (sorted keys,
fixed indentation, repr-exact floats), and a run manifest records the config
snapshot, which re-runs the batch exactly because every trial is seeded from
(config.seed, trial index).
Trajectory logs are one CSV per trial with floats at 9 significant digits.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from . import __version__
from .scenario import (
    BatchSummary,
    ScenarioConfig,
    ScenarioError,
    TrajectoryLog,
    run_batch,
)

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "read_config",
    "write_summary",
    "read_summary",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_replay_csv",
    "cmd_run",
    "cmd_compare",
    "cmd_replay",
    "main",
]

_SCENARIO_FLAGS = {"straight": "all_straight", "left-turn": "one_left_turn"}


# ---------------------------------------------------------------------------
# configuration documents
# ---------------------------------------------------------------------------

def config_to_dict(config) -> dict:
    """The config dataclass tree as nested dicts, one key per field."""
    return asdict(config)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Strict inverse of config_to_dict: missing keys take the dataclass
    defaults; unknown keys and bad values are ScenarioErrors."""
    return _from_dict(ScenarioConfig, data, "config")


def _from_dict(cls, data, section: str):
    if not isinstance(data, dict):
        raise ScenarioError(f"{section} must be a JSON object, got {data!r}")
    base = cls()
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ScenarioError(f"unknown {section} keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        default = getattr(base, name)
        if is_dataclass(default):
            value = _from_dict(type(default), value, f"{section}.{name}")
        elif type(default) is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise ScenarioError(f"{section}.{name} is too large for a float") from None
        elif type(value) is not type(default):
            raise ScenarioError(
                f"{section}.{name} must be a {type(default).__name__}, got {value!r}")
        kwargs[name] = value
    # A bad value is a configuration error, reported like an unknown key,
    # not a traceback from deep inside a parameter class.
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid config value: {exc}") from exc


def read_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON, or an integer too long to parse
            raise ScenarioError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# summaries and manifests
# ---------------------------------------------------------------------------

def summary_to_dict(summary: BatchSummary, cbf_kind: str) -> dict:
    return {"cbf": cbf_kind, **asdict(summary)}


def write_summary(path: str, summary: BatchSummary, cbf_kind: str) -> None:
    _write_text(path, _canonical_json(summary_to_dict(summary, cbf_kind)))


def read_summary(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_manifest(path, config, n_trials, started, finished, outputs) -> None:
    """Everything needed to reproduce a batch bit-for-bit."""
    _write_text(path, _canonical_json({
        "config": config_to_dict(config),
        "version": __version__,
        "started": started,
        "finished": finished,
        "n_trials": n_trials,
        "outputs": outputs,
    }))


# ---------------------------------------------------------------------------
# trajectory logs and replay
# ---------------------------------------------------------------------------

def trajectory_header(n_vehicles: int, pairs) -> list:
    cols = ["t"]
    for i in range(n_vehicles):
        cols += [f"v{i}_{f}" for f in ("x", "y", "psi", "beta", "v", "omega", "a")]
    for i, j in pairs:
        cols += [f"pair{i}{j}_hb", f"pair{i}{j}_h0"]
    cols.append("feasible")
    return cols


def _trajectory_table(log: TrajectoryLog) -> np.ndarray:
    """One row per sample, in trajectory_header's column order."""
    n, n_vehicles = log.states.shape[:2]
    return np.concatenate([
        log.t[:, None],
        np.concatenate([log.states, log.inputs], axis=2).reshape(n, 7 * n_vehicles),
        np.stack([log.barrier, log.h0], axis=2).reshape(n, 2 * len(log.pairs)),
        log.feasible[:, None],
    ], axis=1)


def _write_csv(path: str, header: list, table: np.ndarray) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savetxt(path, table, fmt="%.9g", delimiter=",", header=",".join(header), comments="")


def write_trajectory_csv(path: str, log: TrajectoryLog) -> None:
    header = trajectory_header(log.states.shape[1], log.pairs)
    _write_csv(path, header, _trajectory_table(log))


def read_trajectory_csv(path: str) -> TrajectoryLog:
    """Parse a trial log written by write_trajectory_csv.  A file whose
    header is not a trial log's, with no sample rows, or with a row that is
    short or holds a non-number (as a file cut off mid-write does), is a
    ScenarioError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = [(k, line.strip().split(",")) for k, line in enumerate(fh, 2) if line.strip()]
    n_vehicles = sum(1 for c in header if c.endswith("_x") and c.startswith("v"))
    pairs = tuple(
        (int(c[4]), int(c[5])) for c in header
        if c.startswith("pair") and c.endswith("_hb") and c[4:6].isdigit()
    )
    if header != trajectory_header(n_vehicles, pairs):
        raise ScenarioError(f"{path} is not a trial log: its header does not match")
    if not lines:
        raise ScenarioError(f"trajectory log {path} has no samples")
    rows = []
    for k, values in lines:
        try:
            if len(values) != len(header):
                raise ValueError(f"{len(values)} fields, the header has {len(header)}")
            rows.append([float(x) for x in values])
        except ValueError as exc:
            raise ScenarioError(f"trajectory log {path} line {k}: {exc}") from None
    # the inverse of _trajectory_table
    data = np.array(rows)
    split = 1 + 7 * n_vehicles
    vehicles = data[:, 1:split].reshape(len(data), n_vehicles, 7)
    pair_terms = data[:, split:-1].reshape(len(data), len(pairs), 2)
    return TrajectoryLog(
        t=data[:, 0],
        states=vehicles[:, :, :5],
        inputs=vehicles[:, :, 5:],
        barrier=pair_terms[:, :, 0],
        h0=pair_terms[:, :, 1],
        feasible=data[:, -1] > 0.5,
        pairs=pairs,
    )


def write_replay_csv(path: str, log: TrajectoryLog) -> None:
    """Plot-ready columns: the trial log's without the slip angles and the
    feasibility flag, with each pair's barrier (active kind) as _H."""
    header = trajectory_header(log.states.shape[1], log.pairs)
    keep = [k for k, c in enumerate(header) if not c.endswith("_beta") and c != "feasible"]
    _write_csv(path, [header[k].replace("_hb", "_H") for k in keep],
               _trajectory_table(log)[:, keep])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _apply_flags(config: ScenarioConfig, args, cbf_kind: str | None) -> ScenarioConfig:
    data = config_to_dict(config)
    if cbf_kind is not None:
        data["controller"]["cbf_kind"] = cbf_kind
    if args.scenario is not None:
        data["scenario"] = _SCENARIO_FLAGS[args.scenario]
    if args.mode is not None:
        data["controller"]["mode"] = args.mode
    if args.seed is not None:
        data["seed"] = args.seed
    return config_from_dict(data)


def _load_base_config(args) -> ScenarioConfig:
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ScenarioError(f"config file not found: {args.config}")
        return read_config(args.config)
    return ScenarioConfig()


def _run_one(config, n_trials, out_dir, log_policy, workers):
    started = _now()
    summary, results = run_batch(config, n_trials, workers=workers, log_policy=log_policy)
    finished = _now()
    outputs = {"summary": "summary.json", "trials": []}
    for r in results:
        if r.trajectory is not None:
            rel = os.path.join("trials", f"trial_{r.trial_index:05d}.csv")
            write_trajectory_csv(os.path.join(out_dir, rel), r.trajectory)
            outputs["trials"].append(rel)
    write_summary(os.path.join(out_dir, "summary.json"),
                  summary, config.controller.cbf_kind)
    write_manifest(os.path.join(out_dir, "manifest.json"), config, n_trials,
                   started, finished, outputs)
    return summary, results


_TABLE_HEADER = f"{'CBF':6s} {'Success':>8s} {'Feas.':>8s} {'DLock':>8s} {'Unsafe':>8s} {'Avg.Time':>9s}"


def _table_row(kind: str, s: BatchSummary) -> str:
    avg = f"{s.avg_time:.2f}" if s.avg_time is not None else "n/a"
    return (f"{kind:6s} {s.success_rate:8.3f} {s.feas_rate:8.3f} "
            f"{s.deadlock_rate:8.3f} {s.unsafe_rate:8.3f} {avg:>9s}")


def cmd_run(args) -> int:
    config = _apply_flags(_load_base_config(args), args, args.cbf)
    if args.trials < 1:
        raise ScenarioError("--trials must be >= 1")
    summary, _ = _run_one(config, args.trials, args.out, args.log_trajectories,
                          args.workers)
    print(_TABLE_HEADER)
    print(_table_row(config.controller.cbf_kind, summary))
    print(f"outputs written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    config = _load_base_config(args)
    if args.cbf is not None:
        raise ScenarioError("compare runs every CBF kind; drop --cbf")
    if args.trials < 1:
        raise ScenarioError("--trials must be >= 1")
    rows = []
    print(_TABLE_HEADER)
    for kind in ("zero", "ff", "rff"):
        cfg = _apply_flags(config, args, kind)
        summary, _ = _run_one(cfg, args.trials, os.path.join(args.out, kind),
                              args.log_trajectories, args.workers)
        rows.append(summary_to_dict(summary, kind))
        print(_table_row(kind, summary))
    _write_text(os.path.join(args.out, "compare.json"), _canonical_json({"rows": rows}))
    print(f"outputs written to {args.out}")
    return 0


def cmd_replay(args) -> int:
    if not os.path.exists(args.trial_log):
        raise ScenarioError(f"trajectory log not found: {args.trial_log}")
    log = read_trajectory_csv(args.trial_log)
    write_replay_csv(args.out, log)
    print(f"replay written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffcbf",
        description="Safe intersection-crossing benchmark with future-focused CBF controllers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults used when omitted)")
        p.add_argument("--cbf", choices=["zero", "ff", "rff"], help="barrier kind")
        p.add_argument("--scenario", choices=sorted(_SCENARIO_FLAGS))
        p.add_argument("--mode", choices=["centralized", "decentralized"])
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--log-trajectories", choices=["none", "failures", "all"],
                       default="failures")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: all cores)")

    p_run = sub.add_parser("run", help="run one batch")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run all three barrier kinds on paired seeds")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("replay", help="emit plot-ready columns from a trajectory log")
    p_rep.add_argument("--trial-log", required=True)
    p_rep.add_argument("--out", default="replay.csv")
    p_rep.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
