"""Four-way unsignaled intersection benchmark.

Two perpendicular two-lane roads meet at the origin; the intersection box is
2*box_half on a side and lane centerlines sit lane_width/2 from the road
axis (right-hand traffic).  One vehicle approaches per lane, placed d_i
meters before the box with speed s_i, both drawn uniformly per trial.
Straight vehicles track their lane centerline at constant reference speed;
in the left-turn scenario vehicle 0 follows lane -> quarter-circle arc
(radius box_half + lane_width/2) -> exit lane, slowing to a constant arc
speed with ramps so the reference speed stays continuous.

A trial first rejection-samples initial conditions until the constant
velocity forecast keeps every pair at least 2R apart over the look-ahead
horizon, then alternates controller ticks with RK4 integration until all
vehicles exit at their designated lane (success), every moving vehicle has
been stopped for 3 s (deadlock), or the time cap is hit (timeout); each
tick's h0 and barrier values are read from the controller step's TickFrame.
Batches aggregate the Success / Feas / DLock / Unsafe / Avg-Time metrics
over deterministically seeded trials.

Lane geometry, references and exit checks are plain floats, as they run on
every tick; numpy holds the per-trial RNG, the trajectory log and the batch
statistics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

# Not called: ffcbf_bench/tracing.py hooks scenario.h0 by name (it reads 0).
from .barriers import h0
from .controllers import ControllerConfig, NominalTarget, centralized_step, decentralized_step
from .dynamics import VehicleState, planar_velocity, step

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "TrialResult",
    "TrajectoryLog",
    "BatchSummary",
    "World",
    "randomize_initial",
    "check_assumption1",
    "run_trial",
    "run_batch",
    "default_config",
    "resolve_workers",
]


class ScenarioError(ValueError):
    """Configuration or sampling problem that prevents running a trial."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one benchmark setup (world, sampling, controller).

    Each parameter has one home: the speed limit is controller.v_max and the
    safety radius is controller.rff.ff.R.  The tree is frozen and validated
    at construction, so a config that exists is a valid one;
    dataclasses.replace makes a changed copy.
    """

    scenario: str = "all_straight"        # all_straight | one_left_turn
    num_vehicles: int = 4
    d0: float = 12.0                      # initial-distance center (m, from the box)
    delta_d: float = 5.0                  # initial-distance half-width (m)
    s0: float = 6.0                       # initial-speed center (m/s)
    delta_s: float = 3.0                  # initial-speed half-width (m/s)
    dt: float = 0.01                      # integration/control timestep (s)
    t_max: float = 30.0                   # trial cap (s)
    seed: int = 0
    lane_width: float = 2.7               # m
    box_half: float = 2.7                 # half-size of the intersection box (m)
    turn_speed: float = 3.0               # reference speed on the left-turn arc (m/s)
    ref_accel: float = 6.0                # reference speed ramp magnitude (m/s^2)
    exit_lateral_tol: float = 0.5         # m from the exit centerline
    stop_speed: float = 0.01              # deadlock stop threshold (m/s)
    deadlock_window: float = 3.0          # s
    max_resamples: int = 100
    controller: ControllerConfig = field(default_factory=ControllerConfig)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"{f.name} must be finite, got {value}")
        if self.scenario not in ("all_straight", "one_left_turn"):
            raise ScenarioError(f"unknown scenario {self.scenario!r}")
        if not 1 <= self.num_vehicles <= 4:
            raise ScenarioError("num_vehicles must be in 1..4 (one vehicle per lane)")
        if not (self.d0 > self.delta_d >= 0.0):
            raise ScenarioError("need d0 > delta_d >= 0")
        if not (self.s0 > self.delta_s >= 0.0):
            raise ScenarioError("need s0 > delta_s >= 0")
        if not (self.dt > 0 and self.t_max > 0):
            raise ScenarioError("dt and t_max must be positive")
        if self.seed < 0:
            raise ScenarioError("seed must be nonnegative")
        if not (self.lane_width > 0 and self.box_half > 0):
            raise ScenarioError("geometry lengths must be positive")
        if self.lane_width / 2.0 > self.box_half:
            raise ScenarioError("lane centerlines must fall inside the box")
        if not (self.turn_speed > 0 and self.ref_accel > 0):
            raise ScenarioError("turn_speed and ref_accel must be positive")
        if not (self.exit_lateral_tol > 0 and self.stop_speed > 0 and self.deadlock_window > 0):
            raise ScenarioError("exit_lateral_tol, stop_speed and deadlock_window must be positive")
        if not self.max_resamples >= 0:
            raise ScenarioError("max_resamples must be nonnegative")
        # opposing lanes are lane_width apart: at 2R >= lane_width two
        # opposing vehicles could never pass each other safely
        if 2.0 * self.controller.rff.ff.R >= self.lane_width:
            raise ScenarioError("need 2 * controller.rff.ff.R < lane_width")


def default_config(
    cbf_kind: str = "rff",
    mode: str = "centralized",
    scenario: str = "all_straight",
    seed: int = 0,
    **overrides,
) -> ScenarioConfig:
    """Benchmark defaults for one cell; overrides name ScenarioConfig fields."""
    return ScenarioConfig(
        scenario=scenario, seed=seed,
        controller=ControllerConfig(cbf_kind=cbf_kind, mode=mode), **overrides,
    )


# ---------------------------------------------------------------------------
# world geometry and reference trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lane:
    """One approach lane and the route a vehicle on it drives: the centerline
    up to the box edge, the quarter-circle left-turn arc if the lane turns,
    then the exit line from the exit point.

    Points and directions are (x, y) float pairs; the lane's left normal is
    direction rotated left, (-dy, dx).
    """

    entry: tuple        # point where the centerline meets the box edge
    direction: tuple    # unit travel direction
    psi: float          # heading angle
    exit_point: tuple   # where the route leaves the box
    exit_dir: tuple     # unit travel direction after exit_point
    turn: tuple | None  # None (straight), or the arc's (center, radius, theta0)

    @property
    def arc_len(self) -> float:
        """Length of the turning lane's quarter-circle arc."""
        return self.turn[1] * math.pi / 2.0


def _build_lane(entry: tuple, direction: tuple, psi: float, across: float,
                radius: float | None) -> Lane:
    """The lane that enters the box at entry and crosses it straight (across
    meters to the far edge) or, given a radius, turns left: the arc's center
    lies radius along the left normal, and the exit point and direction are
    the entry point (about the center) and the travel direction, rotated
    left."""
    (ex, ey), (dx, dy) = entry, direction
    if radius is None:
        return Lane(entry, direction, psi, (ex + dx * across, ey + dy * across), direction, None)
    cx, cy = ex - dy * radius, ey + dx * radius
    rx, ry = ex - cx, ey - cy
    return Lane(entry, direction, psi, (cx - ry, cy + rx), (-dy, dx),
                ((cx, cy), radius, math.atan2(ry, rx)))


class _SpeedProfile:
    """Piecewise constant-acceleration arclength profile sigma(t)."""

    def __init__(self, segments):
        # segments: list of (t_start, sigma_start, speed_start, accel); the
        # last segment extends forever.
        self._first = segments[0]
        self._rest = tuple(segments[1:])

    @staticmethod
    def constant(speed: float) -> "_SpeedProfile":
        return _SpeedProfile([(0.0, 0.0, speed, 0.0)])

    @staticmethod
    def turn(cruise: float, arc_speed: float, ramp: float,
             approach_len: float, arc_len: float) -> "_SpeedProfile":
        if arc_speed >= cruise:
            return _SpeedProfile.constant(cruise)
        brake_dist = (cruise * cruise - arc_speed * arc_speed) / (2.0 * ramp)
        brake_at = max(0.0, approach_len - brake_dist)
        segs = []
        t = s = 0.0
        if brake_at > 0.0:
            segs.append((t, s, cruise, 0.0))
            t += brake_at / cruise
            s = brake_at
        segs.append((t, s, cruise, -ramp))
        t += (cruise - arc_speed) / ramp
        s += brake_dist
        arc_end = approach_len + arc_len
        if s < arc_end:
            segs.append((t, s, arc_speed, 0.0))
            t += (arc_end - s) / arc_speed
            s = arc_end
        segs.append((t, s, arc_speed, ramp))
        t += (cruise - arc_speed) / ramp
        s += brake_dist
        segs.append((t, s, cruise, 0.0))
        return _SpeedProfile(segs)

    def __call__(self, t: float) -> tuple[float, float]:
        seg = self._first
        for cand in self._rest:
            if cand[0] > t:
                break
            seg = cand
        t0, s0, v0, a = seg
        dt = t - t0
        return s0 + v0 * dt + 0.5 * a * dt * dt, v0 + a * dt


def _behind(lane: Lane, d: float) -> tuple:
    """The centerline point d meters before the lane's entry point."""
    (ex, ey), (dx, dy) = lane.entry, lane.direction
    return ex - dx * d, ey - dy * d


class _Reference:
    """A lane's route driven from d_i meters before the box at the arclength
    profile's pace.  A straight lane's approach never ends."""

    def __init__(self, lane: Lane, d_i: float, profile: _SpeedProfile):
        self._start = _behind(lane, d_i)
        self._dir = lane.direction
        self._profile = profile
        if lane.turn is None:
            self._approach = math.inf
        else:
            self._approach = d_i
            self._center, self._radius, self._theta0 = lane.turn
            self._exit_point, self._exit_dir = lane.exit_point, lane.exit_dir
            self._arc_len = lane.arc_len
            self._arc_end = d_i + self._arc_len

    def __call__(self, t: float) -> NominalTarget:
        sigma, spd = self._profile(t)
        if sigma <= self._approach:
            (sx, sy), (dx, dy) = self._start, self._dir
            return NominalTarget((sx + dx * sigma, sy + dy * sigma, dx * spd, dy * spd))
        if sigma <= self._arc_end:
            theta = self._theta0 + (sigma - self._approach) / self._radius
            c, s = math.cos(theta), math.sin(theta)
            cx, cy = self._center
            r = self._radius
            return NominalTarget((cx + r * c, cy + r * s, -s * spd, c * spd))
        (ex, ey), (dx, dy) = self._exit_point, self._exit_dir
        run = sigma - self._approach - self._arc_len
        return NominalTarget((ex + dx * run, ey + dy * run, dx * spd, dy * spd))


class World:
    """The four lanes' routes, reference-trajectory factories and exit
    predicates."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        half = config.lane_width / 2.0
        b = config.box_half
        self.turn_radius = b + half
        self.turn_vehicle = 0 if config.scenario == "one_left_turn" else None
        approaches = (
            ((half, -b), (0.0, 1.0), math.pi / 2),     # from south, north-bound
            ((-half, b), (0.0, -1.0), -math.pi / 2),   # from north, south-bound
            ((b, half), (-1.0, 0.0), math.pi),         # from east, west-bound
            ((-b, -half), (1.0, 0.0), 0.0),            # from west, east-bound
        )
        self.lanes = tuple(
            _build_lane(entry, direction, psi, 2.0 * b,
                        self.turn_radius if index == self.turn_vehicle else None)
            for index, (entry, direction, psi) in enumerate(approaches)
        )

    def reference(self, index: int, d_i: float, s_i: float):
        """Time-parameterized NominalTarget generator for one vehicle."""
        lane = self.lanes[index]
        if lane.turn is None:
            profile = _SpeedProfile.constant(s_i)
        else:
            profile = _SpeedProfile.turn(s_i, self.config.turn_speed, self.config.ref_accel,
                                         d_i, lane.arc_len)
        return _Reference(lane, d_i, profile)

    def is_exited(self, index: int, state: VehicleState) -> bool:
        """Past the intersection box and within the exit-lane lateral band."""
        lane = self.lanes[index]
        (x0, y0), (dx, dy) = lane.exit_point, lane.exit_dir
        px, py = state.x - x0, state.y - y0
        along = px * dx + py * dy
        lateral = abs(-px * dy + py * dx)
        return along >= 0.0 and lateral <= self.config.exit_lateral_tol


def randomize_initial(config: ScenarioConfig, rng: np.random.Generator):
    """Per-vehicle uniform draws d_i, s_i placed on the lane centerlines."""
    world = World(config)
    states = []
    for i in range(config.num_vehicles):
        d_i = config.d0 + rng.uniform(-config.delta_d, config.delta_d)
        s_i = config.s0 + rng.uniform(-config.delta_s, config.delta_s)
        lane = world.lanes[i]
        states.append(VehicleState(*_behind(lane, d_i), lane.psi, 0.0, s_i))
    return states


def check_assumption1(states, tau_bar: float, R: float) -> bool:
    """Accept iff every pair stays >= 2R apart under the constant-velocity
    forecast over [0, tau_bar] (closed-form clamped minimizer of the
    quadratic predicted squared distance)."""
    limit = 4.0 * R * R
    n = len(states)
    vels = [planar_velocity(s) for s in states]
    for i in range(n):
        for j in range(i + 1, n):
            xi_x = states[i].x - states[j].x
            xi_y = states[i].y - states[j].y
            nu_x = vels[i][0] - vels[j][0]
            nu_y = vels[i][1] - vels[j][1]
            q = nu_x * nu_x + nu_y * nu_y
            if q > 0.0:
                tau = min(max(-(xi_x * nu_x + xi_y * nu_y) / q, 0.0), tau_bar)
            else:
                tau = 0.0
            dx = xi_x + nu_x * tau
            dy = xi_y + nu_y * tau
            if dx * dx + dy * dy < limit:
                return False
    return True


class _StopClock:
    """The deadlock rule: fires once consecutive stopped samples, dt apart,
    span window seconds."""

    def __init__(self, dt: float, window: float):
        self._dt = dt
        self._end = window - 1e-12
        self._run = 0

    def tick(self, stopped: bool) -> bool:
        if not stopped:
            self._run = 0
            return False
        self._run += 1
        return (self._run - 1) * self._dt >= self._end


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryLog:
    """Per-step record of one trial (states, inputs, barrier series)."""

    t: np.ndarray          # (T,)
    states: np.ndarray     # (T, A, 5)
    inputs: np.ndarray     # (T, A, 2)
    barrier: np.ndarray    # (T, P) active-kind barrier per pair, (i<j) lexicographic
    h0: np.ndarray         # (T, P) physical barrier per pair
    feasible: np.ndarray   # (T,) bool
    pairs: tuple           # ((i, j), ...)


@dataclass
class TrialResult:
    """Outcome flags and metrics of one trial."""

    trial_index: int
    success: bool
    always_feasible: bool
    deadlock: bool
    unsafe: bool
    timeout: bool
    completion_time: float | None
    min_h0: float
    # Smallest active-kind barrier value over the pairs at the first tick,
    # before any input is applied; inf without pairs or controller ticks.
    initial_barrier_min: float
    resamples: int
    trajectory: TrajectoryLog | None = None

    def flags(self) -> dict:
        return {
            "success": self.success,
            "always_feasible": self.always_feasible,
            "deadlock": self.deadlock,
            "unsafe": self.unsafe,
            "timeout": self.timeout,
        }


def trial_rng(config: ScenarioConfig, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((config.seed, trial_index)))


def run_trial(config: ScenarioConfig, trial_index: int,
              log_trajectory: bool = False) -> TrialResult:
    """Sample, screen, simulate and score a single trial."""
    rng = trial_rng(config, trial_index)
    ff = config.controller.rff.ff
    resamples = 0
    states = randomize_initial(config, rng)
    while not check_assumption1(states, ff.tau_bar, ff.R):
        resamples += 1
        if resamples > config.max_resamples:
            raise ScenarioError(
                f"trial {trial_index}: no safe initial condition after "
                f"{config.max_resamples} resamples"
            )
        states = randomize_initial(config, rng)

    world = World(config)
    refs = []
    for i, st in enumerate(states):
        # d_i projected back from the placed state, not the drawn d_i: the
        # two can differ in the last bit, which the reference would carry.
        (ex, ey), (dx, dy) = world.lanes[i].entry, world.lanes[i].direction
        d_i = (ex - st.x) * dx + (ey - st.y) * dy
        refs.append(world.reference(i, d_i, st.v))

    ctrl = config.controller
    n = config.num_vehicles
    params = ctrl.vehicle
    dt = config.dt

    exit_time = [None] * n  # None until the vehicle exits
    min_h0 = math.inf
    always_feasible = True
    deadlock = False
    clock = _StopClock(dt, config.deadlock_window)
    warm = [None] * n  # per program: one centralized, or one per ego

    initial_barrier_min = math.inf

    log = ([], [], [], [], []) if log_trajectory else None  # t, z, u, hb, h0

    t = 0.0
    completion_time = None
    max_steps = int(round(config.t_max / dt))
    t_end = config.t_max - 1e-12
    stop_speed = config.stop_speed
    centralized = ctrl.mode == "centralized"
    vehicles = range(n)
    for tick in range(max_steps + 1):
        for i in vehicles:
            if exit_time[i] is None and world.is_exited(i, states[i]):
                exit_time[i] = t
        if None not in exit_time:
            completion_time = max(exit_time)
            break
        if t >= t_end:
            break

        # The step comes first because its frame holds the tick's h0 and
        # barrier values.  On the deadlock tick its inputs go unused.
        targets = [ref(t) for ref in refs]
        if centralized:
            steps = [centralized_step(states, targets, ctrl, warm[0])]
        else:
            steps = []
            frame = None
            for i in vehicles:
                steps.append(decentralized_step(i, states, targets[i], ctrl, warm[i], frame))
                frame = steps[-1].frame
        # An infeasible verdict's active set is its certificate, not a warm start.
        warm = [s.solution.active_set if s.feasible else None for s in steps]
        inputs = [u for s in steps for u in s.inputs]
        feasible = all(s.feasible for s in steps)
        pairs_now = steps[0].frame.pairs

        h0_now = [pt.h0 for _, _, pt in pairs_now]
        if h0_now:
            min_h0 = min(min_h0, min(h0_now))
        if tick == 0:
            initial_barrier_min = min((pt.value for _, _, pt in pairs_now), default=math.inf)

        if clock.tick(all(exit_time[i] is not None or states[i].v < stop_speed
                          for i in vehicles)):
            deadlock = True
            break
        if not feasible:
            always_feasible = False

        if log is not None:
            log[0].append(t)
            log[1].append([(s.x, s.y, s.psi, s.beta, s.v) for s in states])
            log[2].append([(u.omega, u.a) for u in inputs])
            log[3].append([pt.value for _, _, pt in pairs_now])
            log[4].append((h0_now, feasible))

        states = [step(st, u, params, dt) for st, u in zip(states, inputs)]
        t += dt

    success = completion_time is not None
    trajectory = None
    if log is not None and log[0]:
        h0_arr = np.array([row[0] for row in log[4]])
        trajectory = TrajectoryLog(
            t=np.array(log[0]),
            states=np.array(log[1]),
            inputs=np.array(log[2]),
            barrier=np.array(log[3]),
            h0=h0_arr,
            feasible=np.array([row[1] for row in log[4]], dtype=bool),
            pairs=tuple((i, j) for i, j, _ in pairs_now),  # the tick frame's order
        )
    return TrialResult(
        trial_index=trial_index,
        success=success,
        always_feasible=always_feasible,
        deadlock=deadlock,
        unsafe=bool(min_h0 < 0.0),
        timeout=not success and not deadlock,
        completion_time=completion_time,
        min_h0=float(min_h0),
        initial_barrier_min=float(initial_barrier_min),
        resamples=resamples,
        trajectory=trajectory,
    )


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchSummary:
    """Aggregated Success / Feas / DLock / Unsafe / Avg-Time metrics."""

    n_trials: int
    success_rate: float
    feas_rate: float
    deadlock_rate: float
    unsafe_rate: float
    avg_time: float | None   # mean completion time over successful trials
    n_timeout: int = 0

    @staticmethod
    def from_results(results) -> "BatchSummary":
        n = len(results)
        if n == 0:
            raise ScenarioError("empty batch")
        times = [r.completion_time for r in results if r.success]
        return BatchSummary(
            n_trials=n,
            success_rate=sum(r.success for r in results) / n,
            feas_rate=sum(r.always_feasible for r in results) / n,
            deadlock_rate=sum(r.deadlock for r in results) / n,
            unsafe_rate=sum(r.unsafe for r in results) / n,
            avg_time=float(np.mean(times)) if times else None,
            n_timeout=sum(r.timeout for r in results),
        )


def resolve_workers(workers: int | None = None) -> int:
    """The pool size: workers if given (at least 1), else every core."""
    if workers is not None:
        return max(1, int(workers))
    return os.cpu_count() or 1


def _trial_task(args):
    config, index, log_policy = args
    keep_log = log_policy in ("failures", "all")
    result = run_trial(config, index, log_trajectory=keep_log)
    if log_policy == "failures" and result.success and result.always_feasible \
            and not result.unsafe:
        result = replace(result, trajectory=None)
    return result


def run_batch(config: ScenarioConfig, n_trials: int, workers: int | None = None,
              log_policy: str = "none"):
    """Run n_trials deterministic trials; returns (BatchSummary, results list).

    Trials are pure functions of (config, trial_index), so the outcome is
    identical for any worker count; workers defaults to every core.
    """
    if n_trials < 1:
        raise ScenarioError("n_trials must be >= 1")
    if log_policy not in ("none", "failures", "all"):
        raise ScenarioError(f"unknown log policy {log_policy!r}")
    nworkers = resolve_workers(workers)
    tasks = [(config, idx, log_policy) for idx in range(n_trials)]
    if nworkers > 1 and n_trials > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            results = list(pool.map(_trial_task, tasks, chunksize=max(1, n_trials // (4 * nworkers))))
    else:
        results = [_trial_task(t) for t in tasks]
    return BatchSummary.from_results(results), results
