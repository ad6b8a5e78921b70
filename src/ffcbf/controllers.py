"""Control laws: LQR nominal tracking plus CBF-QP safety filters.

The nominal controller tracks a desired planar trajectory q* = [x*, y*,
xdot*, ydot*] with an LQR gain for a per-axis double integrator, then maps
the commanded planar acceleration mu = -K (zeta - q*) into bicycle inputs

    [omega0, a0] = S^{-1} [mu_x + ydot*psidot, mu_y - xdot*psidot],

falling back to omega0 = 0, a0 = ||mu|| when |v| is below the S-matrix
singularity threshold.  The slip-angle rate is saturated to [-omega_bar,
omega_bar] before the QP; build_qp then filters the rear-wheel accelerations
of an information pattern's free vehicles through one strictly convex QP,
with box rows |a| <= a_bar, a speed-limit row per free vehicle and a
pairwise barrier row per unordered pair with a free vehicle (every slip
rate folded into the row drift).  A held vehicle's input is taken as zero:
its rows keep both drift terms but only the free gamma, so each is the
all-free row restricted to the free column.  Centralized mode frees every
vehicle in one program per tick; decentralized mode solves one program per
ego, which knows its neighbours' states but not their inputs.

The first controller call of a tick builds its TickFrame (tick_frame): every
vehicle's planar terms and every unordered pair's row terms, once.  It
returns the frame on its StepResult; the other egos of the tick take it as
an argument.  Each row goes to qp.QpProblem as its nonzero (index, coeff)
pairs and its lower bound: one pair per speed row and per row with a held
vehicle, two per other pair row.  The box is the same pair of tuples on
every tick, so qp takes its bounds and tolerances from its box cache.  Every
per-tick vector is plain floats: the target q*, the gain, the QP's target
and its answer.

An infeasible QP brakes every free vehicle as hard as its speed row allows.
The StepResult keeps the QP's solution either way, so an infeasible tick
carries the rows of its Farkas certificate in solution.active_set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from . import qp
from .barriers import PairTerms, RffParams, _vehicle_planar, constraint_row, h_speed, pair_row
from .dynamics import ControlInput, VehicleParams, VehicleState

__all__ = [
    "NominalTarget",
    "ControllerConfig",
    "StepResult",
    "TickFrame",
    "tick_frame",
    "lqr_gain",
    "nominal_control",
    "saturate_omega",
    "centralized_step",
    "decentralized_step",
    "build_qp",
]


@dataclass(frozen=True)
class NominalTarget:
    """Desired planar state [x*, y*, xdot*, ydot*] at the current time.

    q_star is any sequence of four finite numbers and is stored as a tuple
    of four floats.
    """

    q_star: tuple

    def __post_init__(self) -> None:
        try:
            x, y, xdot, ydot = self.q_star
            q = (float(x), float(y), float(xdot), float(ydot))
        except (TypeError, ValueError):  # scalar, wrong length, nested or non-numeric
            q = ()
        # Built for every vehicle on every tick: one check of the sum, and
        # per entry only when it fails (a finite overflow passes).
        if not (q and (math.isfinite(sum(q)) or all(map(math.isfinite, q)))):
            raise ValueError(f"q_star must be a finite 4-vector, got {self.q_star!r}")
        object.__setattr__(self, "q_star", q)


def lqr_gain(q_pos: float, q_vel: float, r: float) -> tuple:
    """2x4 LQR gain for the planar double integrator, block-diagonal over axes,
    as two rows of float tuples.

    Closed-form continuous-time Riccati solution per axis (state [pos, vel],
    dynamics posdot = vel, veldot = u, weights Q = diag(q_pos, q_vel), R = r):
    k1 = sqrt(q_pos / r), k2 = sqrt(q_vel / r + 2 k1).
    """
    if not (q_pos > 0 and q_vel > 0 and r > 0):
        raise ValueError("LQR weights must be positive")
    k1 = math.sqrt(q_pos / r)
    k2 = math.sqrt(q_vel / r + 2.0 * k1)
    return (k1, 0.0, k2, 0.0), (0.0, k1, 0.0, k2)


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of the safety-filtered controller (defaults per the benchmark).

    Frozen and validated at construction; dataclasses.replace makes a
    changed copy.  lqr_gain, the gain of the three LQR weights, is derived
    at construction too and is not a field.
    """

    cbf_kind: str = "rff"                 # zero | ff | rff
    mode: str = "centralized"             # centralized | decentralized
    alpha_gain: float = 10.0              # linear class-K slope for the pairwise rows
    speed_alpha: float = 30.0             # class-K slope of the speed-limit row
    omega_bar: float = math.pi / 2        # slip-angle rate bound (rad/s)
    a_bar: float = 9.81                   # acceleration bound (m/s^2)
    v_max: float = 10.0                   # speed limit (m/s)
    lqr_q_pos: float = 16.0
    lqr_q_vel: float = 8.0
    lqr_r: float = 1.0
    hocbf_gain: float = 2.1               # stage slope of the second-order distance row
    zero_margin: float = 0.05             # enforcement pad (m) on the distance row boundary
    beta_max: float = 1.45                # slip-angle envelope guard (rad), < pi/2
    omega_v_ref: float = 2.0              # speed (m/s) giving full slip-rate authority
    v_eps: float = 1e-3                   # S-matrix singular branch threshold (m/s)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    rff: RffParams = field(default_factory=RffParams)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.cbf_kind not in ("zero", "ff", "rff"):
            raise ValueError(f"unknown cbf_kind {self.cbf_kind!r}")
        if self.mode not in ("centralized", "decentralized"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (self.alpha_gain > 0 and self.omega_bar > 0 and self.a_bar > 0 and self.v_max > 0):
            raise ValueError("gains and bounds must be positive")
        if not self.omega_v_ref > 0:
            raise ValueError("omega_v_ref must be positive")
        if not (self.speed_alpha > 0 and self.hocbf_gain > 0 and self.v_eps > 0):
            raise ValueError("speed_alpha, hocbf_gain and v_eps must be positive")
        if not self.zero_margin >= 0:
            raise ValueError("zero_margin must be nonnegative")
        if not 0.0 < self.beta_max < math.pi / 2:
            raise ValueError("beta_max must lie in (0, pi/2)")
        # Read for every vehicle on every tick.  Not a functools.cached_property:
        # that writes the instance __dict__, after which every other attribute
        # read of the config takes about twice as long on CPython 3.11.
        object.__setattr__(self, "lqr_gain", lqr_gain(self.lqr_q_pos, self.lqr_q_vel, self.lqr_r))


def nominal_control(
    state: VehicleState,
    target: NominalTarget,
    gain: tuple,
    params: VehicleParams,
    v_eps: float,
) -> tuple[float, float]:
    """LQR planar acceleration mapped to (omega0, a0) through the S matrix."""
    xd, yd, tb, s12, s22, s11, s21 = state.trig
    qx, qy, qvx, qvy = target.q_star
    (k1x, _, k2x, _), (_, k1y, _, k2y) = gain
    ex, ey = state.x - qx, state.y - qy
    evx, evy = xd - qvx, yd - qvy
    mu_x = -(k1x * ex + k2x * evx)
    mu_y = -(k1y * ey + k2y * evy)
    if abs(state.v) < v_eps:
        return 0.0, math.hypot(mu_x, mu_y)
    psid = (state.v / params.lr) * tb
    rx = mu_x + yd * psid
    ry = mu_y - xd * psid
    det = s11 * s22 - s12 * s21  # = -v * sec^2(beta), nonzero here
    omega0 = (s22 * rx - s12 * ry) / det
    a0 = (-s21 * rx + s11 * ry) / det
    return omega0, a0


def saturate_omega(omega0: float, omega_bar: float) -> float:
    """Clamp the slip-angle rate to [-omega_bar, omega_bar]."""
    return min(max(omega0, -omega_bar), omega_bar)


class TickFrame(NamedTuple):
    """One tick's _vehicle_planar terms per vehicle, and (i, j, PairTerms) for
    every pair i < j in lexicographic order, which is the pair-row order."""

    planar: list
    pairs: list[tuple[int, int, PairTerms]]


def tick_frame(states, config: ControllerConfig) -> TickFrame:
    """Each vehicle's planar terms and each unordered pair's row terms, once."""
    lr = config.vehicle.lr
    planar = [_vehicle_planar(st, lr) for st in states]
    kind, alpha_gain, rff = config.cbf_kind, config.alpha_gain, config.rff
    hocbf_gain, zero_margin = config.hocbf_gain, config.zero_margin
    n = len(states)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append((i, j, constraint_row(kind, planar[i], planar[j], alpha_gain, rff,
                                               hocbf_gain, zero_margin)))
    return TickFrame(planar, pairs)


@dataclass(frozen=True)
class StepResult:
    """Filtered inputs for one tick, the QP's solution and the tick's
    TickFrame.  solution.active_set is the warm start for the next tick when
    the QP is feasible, and the Farkas certificate's rows when it is not."""

    inputs: tuple
    solution: qp.QpSolution
    frame: TickFrame

    @property
    def feasible(self) -> bool:
        return self.solution.status == "optimal"


def _nominals(states, targets, config):
    omegas = []
    accels = []
    for st, tg in zip(states, targets):
        w0, a0 = nominal_control(st, tg, config.lqr_gain, config.vehicle, config.v_eps)
        # Nominal slip-rate shaping: full authority at speed, attenuated at a
        # crawl (in-lane steering does nothing useful near standstill and its
        # lateral coupling needlessly disturbs the barrier rows of stopped
        # clusters).
        bar = config.omega_bar * min(1.0, abs(st.v) / config.omega_v_ref)
        w = saturate_omega(w0, bar)
        # slip-angle envelope: the bicycle model needs |beta| < pi/2, which
        # rate saturation alone cannot guarantee; stop steering outward near
        # the envelope (overshoot stays below omega_bar * dt)
        if (st.beta >= config.beta_max and w > 0.0) or (st.beta <= -config.beta_max and w < 0.0):
            w = 0.0
        omegas.append(w)
        accels.append(a0)
    return omegas, accels


def _max_braking(state: VehicleState, config: ControllerConfig) -> float:
    """Strongest deceleration that still respects the speed-limit row.

    Used as the fallback when the pairwise program is infeasible: brake as
    hard as possible without reversing (the speed barrier bounds
    a >= -speed_alpha * v near standstill, so v decays to zero instead of
    crossing it).
    """
    _, phi, gamma = h_speed(state, config.v_max, config.speed_alpha)
    if gamma > 0.0:
        return max(-config.a_bar, -phi / gamma)
    return -config.a_bar


def build_qp(states, frame: TickFrame, free, omegas, target, config: ControllerConfig):
    """CBF-QP whose column k is the acceleration of vehicle free[k] (ascending),
    with nominal target[k]; omegas are every vehicle's slip rates, 0 for a held
    vehicle, whose acceleration is 0 too.

    Row order is stable across ticks (speed rows, then pair rows in (i, j)
    lexicographic order) so active sets warm-start the next tick.
    """
    column = [None] * len(states)
    rows = []
    for k, v in enumerate(free):
        column[v] = k
        _, phi, gam = h_speed(states[v], config.v_max, config.speed_alpha)
        rows.append((((k, gam),), -phi))
    planar = frame.planar
    for i, j, terms in frame.pairs:
        ci, cj = column[i], column[j]
        if ci is None and cj is None:
            continue
        phi, gamma_i, gamma_j = pair_row(terms, planar[i], planar[j], omegas[i], omegas[j])
        if cj is None:
            rows.append((((ci, gamma_i),), -phi))
        elif ci is None:
            rows.append((((cj, gamma_j),), -phi))
        else:
            rows.append((((ci, gamma_i), (cj, gamma_j)), -phi))
    m = len(free)
    return qp.QpProblem(dim=m, target=target, rows=rows,
                        box=((-config.a_bar,) * m, (config.a_bar,) * m))


def _filtered_step(states, frame, free, omegas, target, config, warm_start) -> StepResult:
    """Solve build_qp's program; if it is infeasible, brake every free vehicle
    as hard as its speed row allows.  Slip rates are omegas either way."""
    sol = qp.solve(build_qp(states, frame, free, omegas, target, config), warm_start)
    if sol.status == "optimal":
        accels = sol.u
    else:
        accels = [_max_braking(states[v], config) for v in free]
    return StepResult(tuple(ControlInput(omegas[v], a) for v, a in zip(free, accels)), sol, frame)


def centralized_step(states, targets, config: ControllerConfig, warm_start=None) -> StepResult:
    """One tick of the centralized filter: every vehicle's acceleration is free."""
    frame = tick_frame(states, config)
    omegas, accels = _nominals(states, targets, config)
    return _filtered_step(states, frame, range(len(states)), omegas, accels, config, warm_start)


def decentralized_step(
    ego_index, states, target_ego, config: ControllerConfig, warm_start=None, frame=None
) -> StepResult:
    """One tick of the decentralized filter for a single ego vehicle, the only
    free one; frame is the tick's TickFrame from an earlier ego's StepResult,
    or None to build it."""
    if frame is None:
        frame = tick_frame(states, config)
    w0, a0 = nominal_control(states[ego_index], target_ego, config.lqr_gain, config.vehicle,
                             config.v_eps)
    # The ego knows its neighbors' states but not their inputs: they are held at 0.
    omegas = [0.0] * len(states)
    omegas[ego_index] = saturate_omega(w0, config.omega_bar)
    return _filtered_step(states, frame, (ego_index,), omegas, [a0], config, warm_start)
