"""Barrier functions and their QP constraint rows.

Four barriers are provided for a pair of bicycle-model vehicles i, j with
differential position xi = (x_i - x_j, y_i - y_j), velocity nu and
acceleration alpha:

* speed barrier      h_s  = (v_max - v) * v            (per vehicle)
* distance barrier   h_0  = ||xi||^2 - (2R)^2
* future-focused     h_ff = ||xi + nu*tau_hat||^2 - (2R)^2
* relaxed ff         H    = h_ff + k0(tau_hat) * h_0

tau_hat is a smooth clamp of the regularized minimizer of the predicted
squared distance under a zero-acceleration (constant velocity) forecast:

    tau_star_hat = -(xi . nu) / (||nu||^2 + eps)
    K_delta(s)   = 1/2 + 1/2 * tanh(k * (s - delta))
    tau_hat      = tau_star_hat * K_0 + (tau_bar - tau_star_hat) * K_tau_bar

Each barrier can be assembled into a QP row  phi + gamma_i*a_i + gamma_j*a_j >= 0
equivalent to hdot >= -alpha_gain * h.  constraint_row gives a pair's
omega-free terms once; pair_row folds in the slip-angle rates, which are
fixed before the QP (exogenous), so only the rear-wheel accelerations remain
as decision variables.  All derivatives are analytic; finite-difference
tests guard them.

The distance barrier h_0 has no acceleration term in its first derivative,
so its row ("zero" kind) is the second-order construction
    h_1 = h_0' + alpha_gain*h_0,   enforce  h_1' + alpha_gain*h_1 >= 0,
which is the standard treatment for relative-degree-2 distance constraints.

All functions are written in plain float math (they sit on the per-tick
control path) and take each vehicle's trig and planar velocity from
VehicleState.trig, which is computed once per state.  controllers.tick_frame
reads each vehicle's per-tick terms (position, velocity, S columns and drift)
once per tick with _vehicle_planar and each unordered pair's terms once with
constraint_row; h_ff and h_rff, the reference values the tests hold those
to, build the same tuples' leading (x, y, xdot, ydot) from the states, so
the pair formula (_pair_core) has one copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dynamics import VehicleState

__all__ = [
    "FfParams",
    "RffParams",
    "PairTerms",
    "h_speed",
    "h0",
    "tau_star_hat",
    "smooth_switch",
    "tau_hat",
    "h_ff",
    "h_rff",
    "constraint_row",
    "pair_row",
]


@dataclass(frozen=True)
class FfParams:
    """Future-focused barrier parameters and the vehicle safety radius R.

    This R is the only copy: the barrier rows enforce a 2R separation and
    the scenario scores h0 against the same R.
    """

    tau_bar: float = 5.0      # look-ahead horizon (s)
    k: float = 1000.0         # switch sharpness; k >= 1 keeps the ordering property
    epsilon: float = 1e-9     # regularizer in the tau_star_hat denominator
    R: float = 1.25           # safety radius (m); barrier boundary is 2R separation

    def __post_init__(self) -> None:
        if not (0 < self.tau_bar < math.inf and 1.0 <= self.k < math.inf
                and 0 < self.epsilon < 1 and 0 < self.R < math.inf):
            raise ValueError(f"invalid FfParams {self}")


@dataclass(frozen=True)
class RffParams:
    """Relaxation gain k0 = k0_scale * max(tau_hat - 1, k0_floor) on top of FfParams."""

    ff: FfParams = FfParams()
    k0_scale: float = 0.1
    k0_floor: float = 0.001

    def __post_init__(self) -> None:
        if not (0 < self.k0_scale < math.inf and 0 < self.k0_floor < math.inf):
            raise ValueError(f"invalid RffParams {self}")


class PairTerms(NamedTuple):
    """Omega-free row terms of a pair (i, j): c0 + c . alpha (+ class_k) >= 0.

    value is the active kind's barrier (h0 for "zero").  class_k is
    alpha_gain * value, or None for "zero", whose class-K terms sit in c0.
    For the pair (j, i), (cx, cy) change sign exactly; the rest is unchanged.
    """

    h0: float
    value: float
    c0: float
    cx: float
    cy: float
    class_k: float | None


def h_speed(state: VehicleState, v_max: float, alpha_gain: float):
    """Speed barrier (v_max - v) * v with its QP row.

    vdot = a exactly, so the drift Lie term vanishes and the row is
    phi + gamma * a >= 0 with gamma = v_max - 2v and phi = alpha_gain * h.
    Returns (value, phi, gamma).
    """
    if not v_max > 0:
        raise ValueError(f"v_max must be positive, got {v_max}")
    value = (v_max - state.v) * state.v
    gamma = v_max - 2.0 * state.v
    return value, alpha_gain * value, gamma


def h0(state_i: VehicleState, state_j: VehicleState, R: float) -> float:
    """Physical distance barrier: squared distance minus (2R)^2."""
    dx = state_i.x - state_j.x
    dy = state_i.y - state_j.y
    return dx * dx + dy * dy - 4.0 * R * R


def tau_star_hat(xi, nu, epsilon: float) -> float:
    """Regularized minimizer of predicted squared distance over future offset."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    p = xi[0] * nu[0] + xi[1] * nu[1]
    return -p / (nu[0] * nu[0] + nu[1] * nu[1] + epsilon)


def smooth_switch(s: float, delta: float, k: float) -> float:
    """Sigmoid switch K_delta(s) = 1/2 + 1/2 tanh(k (s - delta)), in (0, 1)."""
    return 0.5 + 0.5 * math.tanh(k * (s - delta))


def tau_hat(tau_star_hat: float, tau_bar: float, k: float) -> float:
    """Smooth clamp of tau_star_hat into approximately [0, tau_bar]."""
    if not tau_bar > 0:
        raise ValueError(f"tau_bar must be positive, got {tau_bar}")
    ts = tau_star_hat
    k0 = 0.5 + 0.5 * math.tanh(k * ts)
    kt = 0.5 + 0.5 * math.tanh(k * (ts - tau_bar))
    return ts * k0 + (tau_bar - ts) * kt


def _pair_core(pi, pj, ff: FfParams):
    """(xi_x, xi_y, nu_x, nu_y, p, q, D, ts, K0, Kt, th) for a vehicle pair
    whose terms pi, pj start with (x, y, xdot, ydot)."""
    xi_x = pi[0] - pj[0]
    xi_y = pi[1] - pj[1]
    nu_x = pi[2] - pj[2]
    nu_y = pi[3] - pj[3]
    p = xi_x * nu_x + xi_y * nu_y
    q = nu_x * nu_x + nu_y * nu_y
    D = q + ff.epsilon
    ts = -p / D
    k = ff.k
    K0 = 0.5 + 0.5 * math.tanh(k * ts)
    Kt = 0.5 + 0.5 * math.tanh(k * (ts - ff.tau_bar))
    th = ts * K0 + (ff.tau_bar - ts) * Kt
    return xi_x, xi_y, nu_x, nu_y, p, q, D, ts, K0, Kt, th


def _position_velocity(state: VehicleState):
    """(x, y, xdot, ydot) of a vehicle, the leading terms _pair_core reads."""
    return state.x, state.y, state.trig[0], state.trig[1]


def h_ff(state_i: VehicleState, state_j: VehicleState, ff: FfParams) -> float:
    """Future-focused barrier: predicted squared distance at tau_hat minus (2R)^2."""
    xi_x, xi_y, nu_x, nu_y, p, q, _, _, _, _, th = _pair_core(
        _position_velocity(state_i), _position_velocity(state_j), ff)
    base = xi_x * xi_x + xi_y * xi_y - 4.0 * ff.R * ff.R
    return base + 2.0 * th * p + th * th * q


def _k0_gain(th: float, rff: RffParams) -> float:
    return rff.k0_scale * max(th - 1.0, rff.k0_floor)


def h_rff(state_i: VehicleState, state_j: VehicleState, rff: RffParams) -> float:
    """Relaxed future-focused barrier H = h_ff + k0(tau_hat) * h_0."""
    ff = rff.ff
    xi_x, xi_y, nu_x, nu_y, p, q, _, _, _, _, th = _pair_core(
        _position_velocity(state_i), _position_velocity(state_j), ff)
    base = xi_x * xi_x + xi_y * xi_y - 4.0 * ff.R * ff.R
    return base + 2.0 * th * p + th * th * q + _k0_gain(th, rff) * base


def _vehicle_planar(state: VehicleState, lr: float):
    """Per-vehicle terms of the pair rows, computed once per vehicle per tick:
    (x, y, xd, yd, s_w columns, s_a columns, drift)."""
    xd, yd, tb, sax, say, swx, swy = state.trig
    psid = (state.v / lr) * tb
    return state.x, state.y, xd, yd, swx, swy, sax, say, -yd * psid, xd * psid


def _sech2(x: float) -> float:
    if abs(x) > 300.0:
        return 0.0
    c = math.cosh(x)
    return 1.0 / (c * c)


def constraint_row(
    kind: str,
    planar_i: tuple,
    planar_j: tuple,
    alpha_gain: float,
    rff: RffParams,
    hocbf_gain: float,
    zero_margin: float,
) -> PairTerms:
    """The omega-free row terms of a pairwise barrier for the pair (i, j).

    planar_i and planar_j are the two vehicles' _vehicle_planar terms.  kind
    selects the barrier: "zero" (second-order distance row), "ff", or
    "rff".  pair_row turns the terms into the pair's QP row.

    The distance barrier has relative degree two in the accelerations, so its
    row stacks two first-order conditions with slope hocbf_gain:
    2q + 2 xi.alpha + 4 g p + g^2 h0 >= 0, so c = 2 xi.  That slope
    is deliberately independent of alpha_gain: it must respect the braking
    authority a_bar or the program loses feasibility exactly when the
    constraint matters (the default respects a_bar at benchmark speeds).
    The enforced boundary is padded by zero_margin
    (meters of separation) because the condition only holds at sample times;
    without the pad, crawling standoffs graze h0 = 0 between samples.

    For ff/rff, hdot is affine in the differential acceleration alpha:
    hdot = c0 + c . alpha, with

        c0 = 2 M (1 + W A0),   c = 2 M W A + 2 tau_hat (xi + tau_hat nu),
        M  = p + tau_hat q,    A0 = -q / D,   A = -(xi + 2 tau_star_hat nu) / D,

    where W is the derivative of the smooth clamp at tau_star_hat.  The rff
    row adds d/dt [k0 h_0]; at the (measure-zero) kink of k0 the one-sided
    derivative of the floor branch is used.
    """
    ff = rff.ff
    xi_x, xi_y, nu_x, nu_y, p, q, D, ts, K0, Kt, th = _pair_core(planar_i, planar_j, ff)
    base = xi_x * xi_x + xi_y * xi_y - 4.0 * ff.R * ff.R

    if kind == "zero":
        # h1 = h0' + g*h0; row is h1' + g*h1 >= 0, on the padded boundary.
        g = hocbf_gain
        pad = 2.0 * ff.R + zero_margin
        padded = xi_x * xi_x + xi_y * xi_y - pad * pad
        c0 = 2.0 * q + 4.0 * g * p + g * g * padded
        return PairTerms(base, base, c0, 2.0 * xi_x, 2.0 * xi_y, None)

    if kind not in ("ff", "rff"):
        raise ValueError(f"unknown barrier kind {kind!r}")

    k = ff.k
    G0 = 0.5 * k * _sech2(k * ts)
    Gt = 0.5 * k * _sech2(k * (ts - ff.tau_bar))
    W = (K0 - Kt) + ts * (G0 - Gt) + ff.tau_bar * Gt
    A0 = -q / D
    Ax = -(xi_x + 2.0 * ts * nu_x) / D
    Ay = -(xi_y + 2.0 * ts * nu_y) / D
    M = p + th * q
    c0 = 2.0 * M * (1.0 + W * A0)
    mw = 2.0 * M * W
    cx = mw * Ax + 2.0 * th * (xi_x + th * nu_x)
    cy = mw * Ay + 2.0 * th * (xi_y + th * nu_y)

    value = base + 2.0 * th * p + th * th * q

    if kind == "rff":
        k0g = _k0_gain(th, rff)
        kd = rff.k0_scale if (th - 1.0) > rff.k0_floor else 0.0
        hw = base * kd * W
        c0 = c0 + 2.0 * k0g * p + hw * A0
        cx = cx + hw * Ax
        cy = cy + hw * Ay
        value = value + k0g * base

    return PairTerms(base, value, c0, cx, cy, alpha_gain * value)


def pair_row(terms: PairTerms, planar_i: tuple, planar_j: tuple,
             omega_i: float, omega_j: float):
    """(phi, gamma_i, gamma_j) of the row phi + gamma_i*a_i + gamma_j*a_j >= 0.

    terms are constraint_row's for the pair (i, j).  The fixed slip-angle
    rates enter the differential acceleration through the omega columns of
    each vehicle's S matrix, alpha = alpha0 + s_a_i a_i - s_a_j a_j with
    alpha0 = drift_i - drift_j + s_w_i omega_i - s_w_j omega_j, so
    phi = c0 + c . alpha0 (+ class_k), gamma_i = c . s_a_i, gamma_j = -c . s_a_j.
    """
    _, _, _, _, swxi, swyi, saxi, sayi, daxi, dayi = planar_i
    _, _, _, _, swxj, swyj, saxj, sayj, daxj, dayj = planar_j
    a0x = (daxi - daxj) + swxi * omega_i - swxj * omega_j
    a0y = (dayi - dayj) + swyi * omega_i - swyj * omega_j
    _, _, c0, cx, cy, class_k = terms
    if class_k is None:
        phi = c0 + (cx * a0x + cy * a0y)
    else:
        phi = c0 + cx * a0x + cy * a0y + class_k
    return phi, cx * saxi + cy * sayi, -(cx * saxj + cy * sayj)
