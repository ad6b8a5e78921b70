"""Kinematic bicycle vehicle model.

State of one vehicle is z = [x, y, psi, beta, v]:

    xdot   = v * (cos(psi) - sin(psi) * tan(beta))
    ydot   = v * (sin(psi) + cos(psi) * tan(beta))
    psidot = (v / lr) * tan(beta)
    betadot = omega
    vdot   = a

with input u = [omega, a] (slip-angle rate, rear-wheel acceleration).
The slip angle must satisfy |beta| < pi/2.

Differentiating the position kinematics gives the planar acceleration

    [xddot, yddot] = [-ydot * psidot, xdot * psidot] + S @ [omega, a],
    S = [[-v sin(psi) sec^2(beta), cos(psi) - sin(psi) tan(beta)],
         [ v cos(psi) sec^2(beta), sin(psi) + cos(psi) tan(beta)]],

with det S = -v sec^2(beta), so S is invertible iff v != 0.  VehicleState.trig
holds the planar velocity and S, computed once, when the state is made: one
control tick reads them about a dozen times (nominal control, every pair
row, the first RK4 stage).  The RK4 step is unrolled in plain float math
with the same operations, in the same order, as the textbook stage-by-stage
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "VehicleState",
    "VehicleParams",
    "ControlInput",
    "step",
]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class VehicleState:
    """Pose, slip and speed of one vehicle: z = [x, y, psi, beta, v].

    trig = (xdot, ydot, tan(beta), S01, S11, S00, S10) is computed once, when
    the state is made.  S is the planar coupling matrix of the module docstring;
    its acceleration column [S01, S11] = [cos - sin tan, sin + cos tan] is the
    velocity direction, so (xdot, ydot) = v * (S01, S11).  The slip angle is
    not checked here; callers that need the domain check do it themselves.
    """

    x: float        # position east (m)
    y: float        # position north (m)
    psi: float      # heading angle (rad)
    beta: float     # slip angle (rad), |beta| < pi/2
    v: float        # rear-wheel speed (m/s)

    def __post_init__(self) -> None:
        c, s = math.cos(self.psi), math.sin(self.psi)
        tb = math.tan(self.beta)
        sec2 = 1.0 + tb * tb
        v = self.v
        sax = c - s * tb
        say = s + c * tb
        object.__setattr__(
            self, "trig", (v * sax, v * say, tb, sax, say, -v * s * sec2, v * c * sec2))


@dataclass(frozen=True)
class VehicleParams:
    """Geometry of the vehicle; the safety radius is barriers.FfParams.R."""

    lr: float = 1.0   # c.g. to rear axle (m)

    def __post_init__(self) -> None:
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self}")


@dataclass(frozen=True)
class ControlInput:
    """u = [omega, a]: slip-angle rate (rad/s) and rear-wheel acceleration (m/s^2)."""

    omega: float
    a: float


def _check_beta(beta: float) -> None:
    if not abs(beta) < _HALF_PI:
        raise ValueError(f"slip angle |beta|={abs(beta):.6f} outside (-pi/2, pi/2)")


def step(
    state: VehicleState, inp: ControlInput, params: VehicleParams, dt: float
) -> VehicleState:
    """One fixed-step RK4 integration with the input held constant over the step.

    Unrolled: the stage positions are never formed because the derivative
    does not depend on (x, y), and the first stage reuses state.trig.
    Stages 2 and 3 share the midpoint slip angle and speed, so its tan and
    its slip-angle check are computed once.  Each remaining value is
    computed as z0 + h * k_i and combined as
    z0 + dt/6 * (k1 + 2 k2 + 2 k3 + k4), the textbook order.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    omega, a, lr = inp.omega, inp.a, params.lr
    x, y, psi, beta, v = state.x, state.y, state.psi, state.beta, state.v
    half = 0.5 * dt
    _check_beta(beta)
    x1, y1, tb = state.trig[:3]
    p1 = (v / lr) * tb

    beta_s, v_s = beta + half * omega, v + half * a
    _check_beta(beta_s)
    tb = math.tan(beta_s)
    psi_s = psi + half * p1
    c, s = math.cos(psi_s), math.sin(psi_s)
    x2, y2, p2 = v_s * (c - s * tb), v_s * (s + c * tb), (v_s / lr) * tb

    psi_s = psi + half * p2
    c, s = math.cos(psi_s), math.sin(psi_s)
    x3, y3, p3 = v_s * (c - s * tb), v_s * (s + c * tb), (v_s / lr) * tb

    psi_s, beta_s, v_s = psi + dt * p3, beta + dt * omega, v + dt * a
    _check_beta(beta_s)
    c, s, tb = math.cos(psi_s), math.sin(psi_s), math.tan(beta_s)
    x4, y4, p4 = v_s * (c - s * tb), v_s * (s + c * tb), (v_s / lr) * tb

    sixth = dt / 6.0
    return VehicleState(
        x + sixth * (x1 + 2.0 * x2 + 2.0 * x3 + x4),
        y + sixth * (y1 + 2.0 * y2 + 2.0 * y3 + y4),
        psi + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
        beta + sixth * (omega + 2.0 * omega + 2.0 * omega + omega),
        v + sixth * (a + 2.0 * a + 2.0 * a + a),
    )


def planar_velocity(state: VehicleState) -> tuple[float, float]:
    """(xdot, ydot) of the c.g. at the current state."""
    _check_beta(state.beta)
    return state.trig[:2]
