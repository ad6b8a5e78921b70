"""The paper's barrier formulas, written out for the tests to hold the package to.

ffcbf has one copy of the future-focused forecast, the one its barrier
rows run on every tick.  These are independent copies taken from the
paper's definitions, in the form the paper writes them, so a test that
compares a barrier row or a logged barrier value with them compares two
implementations, not one with itself:

    h_0          = ||xi||^2 - (2R)^2
    tau_star_hat = -(xi . nu) / (||nu||^2 + eps)
    K_delta(s)   = 1/2 + 1/2 * tanh(k * (s - delta))
    tau_hat      = tau_star_hat * K_0 + (tau_bar - tau_star_hat) * K_tau_bar
    h_ff         = ||xi + nu * tau_hat||^2 - (2R)^2
    H            = h_ff + k0(tau_hat) * h_0,   k0 = k0_scale * max(tau_hat - 1, k0_floor)

for a pair i, j with differential position xi and velocity nu.  Each
vehicle's velocity comes from its state through the bicycle kinematics,
not from VehicleState.trig.

min_gap_screen is the Assumption-1 screen the scenario used before it read
the ff barrier: a hard clamp of the closed-form minimizer to [0, tau_bar].
"""

from __future__ import annotations

import math


def planar_velocity(state) -> tuple[float, float]:
    """(xdot, ydot) = v * (cos psi - sin psi tan beta, sin psi + cos psi tan beta)."""
    c, s, tb = math.cos(state.psi), math.sin(state.psi), math.tan(state.beta)
    return state.v * (c - s * tb), state.v * (s + c * tb)


def h0(state_i, state_j, R: float) -> float:
    """Physical distance barrier: squared distance minus (2R)^2."""
    dx = state_i.x - state_j.x
    dy = state_i.y - state_j.y
    return dx * dx + dy * dy - 4.0 * R * R


def tau_star_hat(xi, nu, epsilon: float) -> float:
    """Regularized minimizer of the predicted squared distance."""
    return -(xi[0] * nu[0] + xi[1] * nu[1]) / (nu[0] * nu[0] + nu[1] * nu[1] + epsilon)


def smooth_switch(s: float, delta: float, k: float) -> float:
    """Sigmoid switch K_delta(s) = 1/2 + 1/2 tanh(k (s - delta)), in (0, 1)."""
    return 0.5 + 0.5 * math.tanh(k * (s - delta))


def tau_hat(tau_star_hat: float, tau_bar: float, k: float) -> float:
    """Smooth clamp of tau_star_hat into approximately [0, tau_bar]."""
    ts = tau_star_hat
    return ts * smooth_switch(ts, 0.0, k) + (tau_bar - ts) * smooth_switch(ts, tau_bar, k)


def _relative(state_i, state_j):
    """(xi, nu): differential position and velocity of the pair."""
    (vix, viy), (vjx, vjy) = planar_velocity(state_i), planar_velocity(state_j)
    xi = (state_i.x - state_j.x, state_i.y - state_j.y)
    return xi, (vix - vjx, viy - vjy)


def pair_tau_hat(state_i, state_j, ff) -> float:
    """tau_hat of a vehicle pair under the FfParams ff."""
    xi, nu = _relative(state_i, state_j)
    return tau_hat(tau_star_hat(xi, nu, ff.epsilon), ff.tau_bar, ff.k)


def h_ff(state_i, state_j, ff) -> float:
    """Future-focused barrier: ||xi + nu tau_hat||^2 - (2R)^2."""
    (xi_x, xi_y), (nu_x, nu_y) = _relative(state_i, state_j)
    th = pair_tau_hat(state_i, state_j, ff)
    gx = xi_x + nu_x * th
    gy = xi_y + nu_y * th
    return gx * gx + gy * gy - 4.0 * ff.R * ff.R


def h_rff(state_i, state_j, rff) -> float:
    """Relaxed future-focused barrier H = h_ff + k0(tau_hat) * h_0."""
    th = pair_tau_hat(state_i, state_j, rff.ff)
    k0 = rff.k0_scale * max(th - 1.0, rff.k0_floor)
    return h_ff(state_i, state_j, rff.ff) + k0 * h0(state_i, state_j, rff.ff.R)


def min_gap_screen(states, tau_bar: float, R: float) -> bool:
    """Accept iff every pair stays >= 2R apart under the constant-velocity
    forecast over [0, tau_bar] (closed-form clamped minimizer of the
    quadratic predicted squared distance)."""
    limit = 4.0 * R * R
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            (xi_x, xi_y), (nu_x, nu_y) = _relative(states[i], states[j])
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
