"""Command-line front end: batch execution, persistence, comparison, replay.

Everything written here is designed to be reproducible byte-for-byte: the
config, summary and comparison documents are canonical JSON (sorted keys,
fixed indentation, repr-exact floats), and a run manifest records the config
snapshot plus per-trial seed material so any batch can be re-run exactly.
Trajectory logs are one CSV per trial with floats at 9 significant digits.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .barriers import FfParams, RffParams
from .controllers import ControllerConfig
from .dynamics import VehicleParams
from .scenario import (
    BatchSummary,
    ScenarioConfig,
    ScenarioError,
    TrajectoryLog,
    resolve_workers,
    run_batch,
    trial_rng,
)

__all__ = [
    "RunManifest",
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

_SCENARIO_KEYS = (
    "scenario", "num_vehicles", "d0", "delta_d", "s0", "delta_s", "v_max",
    "dt", "t_max", "seed", "lane_width", "box_half", "R", "turn_speed",
    "ref_accel", "exit_lateral_tol", "stop_speed", "deadlock_window",
    "max_resamples",
)
_CONTROLLER_KEYS = (
    "cbf_kind", "mode", "alpha_gain", "speed_alpha", "omega_bar", "a_bar", "lqr_q_pos",
    "lqr_q_vel", "lqr_r", "hocbf_gain", "zero_margin", "beta_max", "omega_v_ref", "v_eps", "decentral_eps",
)
_VEHICLE_KEYS = ("lr", "lf")
_BARRIER_KEYS = ("tau_bar", "k", "epsilon", "k0_scale", "k0_floor")


def config_to_dict(config: ScenarioConfig) -> dict:
    ctrl = config.controller
    return {
        **{k: getattr(config, k) for k in _SCENARIO_KEYS},
        "controller": {k: getattr(ctrl, k) for k in _CONTROLLER_KEYS},
        "vehicle": {k: getattr(ctrl.vehicle, k) for k in _VEHICLE_KEYS},
        "barrier": {
            "tau_bar": ctrl.rff.ff.tau_bar, "k": ctrl.rff.ff.k,
            "epsilon": ctrl.rff.ff.epsilon, "k0_scale": ctrl.rff.k0_scale,
            "k0_floor": ctrl.rff.k0_floor,
        },
    }


def _check_keys(section: str, data: dict, allowed) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown {section} config keys: {sorted(unknown)}")


def config_from_dict(data: dict) -> ScenarioConfig:
    """Strict inverse of config_to_dict; unknown keys are errors."""
    data = dict(data)
    ctrl_d = dict(data.pop("controller", {}))
    veh_d = dict(data.pop("vehicle", {}))
    bar_d = dict(data.pop("barrier", {}))
    _check_keys("scenario", data, _SCENARIO_KEYS)
    _check_keys("controller", ctrl_d, _CONTROLLER_KEYS)
    _check_keys("vehicle", veh_d, _VEHICLE_KEYS)
    _check_keys("barrier", bar_d, _BARRIER_KEYS)
    base = ScenarioConfig()
    scen = {k: data.get(k, getattr(base, k)) for k in _SCENARIO_KEYS}
    # A bad value is a configuration error, reported like an unknown key,
    # not a traceback from deep inside a parameter class.
    try:
        R = float(scen["R"])
        ff = FfParams(
            tau_bar=float(bar_d.get("tau_bar", 5.0)), k=float(bar_d.get("k", 1000.0)),
            epsilon=float(bar_d.get("epsilon", 1e-9)), R=R,
        )
        rff = RffParams(
            ff=ff, k0_scale=float(bar_d.get("k0_scale", 0.1)),
            k0_floor=float(bar_d.get("k0_floor", 0.001)),
        )
        vehicle = VehicleParams(
            lr=float(veh_d.get("lr", 1.0)), lf=float(veh_d.get("lf", 1.0)), R=R
        )
        ctrl_base = ControllerConfig()
        ctrl_kwargs = {k: ctrl_d.get(k, getattr(ctrl_base, k)) for k in _CONTROLLER_KEYS}
        controller = ControllerConfig(
            vehicle=vehicle, rff=rff, v_max=float(scen["v_max"]), **ctrl_kwargs
        )
        return ScenarioConfig(controller=controller, **scen)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid config value: {exc}") from exc


def read_config(path: str) -> ScenarioConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


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
    return {
        "cbf": cbf_kind,
        "n_trials": summary.n_trials,
        "success_rate": summary.success_rate,
        "feas_rate": summary.feas_rate,
        "deadlock_rate": summary.deadlock_rate,
        "unsafe_rate": summary.unsafe_rate,
        "avg_time": summary.avg_time,
        "n_timeout": summary.n_timeout,
    }


def write_summary(path: str, summary: BatchSummary, cbf_kind: str) -> None:
    _write_text(path, _canonical_json(summary_to_dict(summary, cbf_kind)))


def read_summary(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@dataclass
class RunManifest:
    """Everything needed to reproduce a batch bit-for-bit."""

    config: dict
    version: str
    started: str
    finished: str
    n_trials: int
    trial_seeds: list
    outputs: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config, "version": self.version,
            "started": self.started, "finished": self.finished,
            "n_trials": self.n_trials, "trial_seeds": self.trial_seeds,
            "outputs": self.outputs,
        }


def _trial_seed_material(config: ScenarioConfig, n_trials: int) -> list:
    # Derived integers identifying each trial's RNG stream.
    return [int(trial_rng(config, i).integers(0, 2**63)) for i in range(n_trials)]


def write_manifest(path, config, n_trials, started, finished, outputs) -> RunManifest:
    manifest = RunManifest(
        config=config_to_dict(config),
        version=__version__,
        started=started,
        finished=finished,
        n_trials=n_trials,
        trial_seeds=_trial_seed_material(config, n_trials),
        outputs=outputs,
    )
    _write_text(path, _canonical_json(manifest.to_dict()))
    return manifest


# ---------------------------------------------------------------------------
# trajectory logs and replay
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.9g}"


def trajectory_header(n_vehicles: int, pairs) -> list:
    cols = ["t"]
    for i in range(n_vehicles):
        cols += [f"v{i}_{f}" for f in ("x", "y", "psi", "beta", "v", "omega", "a")]
    for i, j in pairs:
        cols += [f"pair{i}{j}_hb", f"pair{i}{j}_h0"]
    cols.append("feasible")
    return cols


def write_trajectory_csv(path: str, log: TrajectoryLog) -> None:
    n_vehicles = log.states.shape[1]
    lines = [",".join(trajectory_header(n_vehicles, log.pairs))]
    for k in range(log.t.shape[0]):
        row = [_fmt(log.t[k])]
        for i in range(n_vehicles):
            row += [_fmt(v) for v in log.states[k, i]]
            row += [_fmt(v) for v in log.inputs[k, i]]
        for p in range(len(log.pairs)):
            row += [_fmt(log.barrier[k, p]), _fmt(log.h0[k, p])]
        row.append("1" if log.feasible[k] else "0")
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: str) -> TrajectoryLog:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(x) for x in line.strip().split(",")]
                         for line in fh if line.strip()])
    n_vehicles = sum(1 for c in header if c.endswith("_x") and c.startswith("v"))
    pairs = tuple(
        (int(c[4]), int(c[5])) for c in header if c.startswith("pair") and c.endswith("_hb")
    )
    n_pairs = len(pairs)
    t = data[:, 0]
    blk = data[:, 1:1 + 7 * n_vehicles].reshape(-1, n_vehicles, 7)
    pair_blk = data[:, 1 + 7 * n_vehicles:1 + 7 * n_vehicles + 2 * n_pairs]
    return TrajectoryLog(
        t=t,
        states=blk[:, :, :5],
        inputs=blk[:, :, 5:7],
        barrier=pair_blk[:, 0::2],
        h0=pair_blk[:, 1::2],
        feasible=data[:, -1] > 0.5,
        pairs=pairs,
    )


def write_replay_csv(path: str, log: TrajectoryLog) -> None:
    """Plot-ready columns: per-vehicle x, y, psi, v, omega, a; per-pair
    barrier (active kind) and physical-distance series."""
    n_vehicles = log.states.shape[1]
    cols = ["t"]
    for i in range(n_vehicles):
        cols += [f"v{i}_{f}" for f in ("x", "y", "psi", "v", "omega", "a")]
    for i, j in log.pairs:
        cols += [f"pair{i}{j}_H", f"pair{i}{j}_h0"]
    lines = [",".join(cols)]
    for k in range(log.t.shape[0]):
        row = [_fmt(log.t[k])]
        for i in range(n_vehicles):
            x, y, psi, _, v = log.states[k, i]
            omega, a = log.inputs[k, i]
            row += [_fmt(x), _fmt(y), _fmt(psi), _fmt(v), _fmt(omega), _fmt(a)]
        for p in range(len(log.pairs)):
            row += [_fmt(log.barrier[k, p]), _fmt(log.h0[k, p])]
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _apply_flags(config: ScenarioConfig, args) -> ScenarioConfig:
    data = config_to_dict(config)
    if args.cbf is not None:
        data["controller"]["cbf_kind"] = args.cbf
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
    config = _apply_flags(_load_base_config(args), args)
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
    args_cbf = args.cbf
    if args_cbf is not None:
        raise ScenarioError("compare runs every CBF kind; drop --cbf")
    if args.trials < 1:
        raise ScenarioError("--trials must be >= 1")
    rows = []
    print(_TABLE_HEADER)
    for kind in ("zero", "ff", "rff"):
        args.cbf = kind
        cfg = _apply_flags(config, args)
        summary, _ = _run_one(cfg, args.trials, os.path.join(args.out, kind),
                              args.log_trajectories, args.workers)
        rows.append(summary_to_dict(summary, kind))
        print(_table_row(kind, summary))
    args.cbf = args_cbf
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
                       help="worker processes (default: FFCBF_THREADS or all cores)")

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
