import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcbf.barriers import (
    FfParams,
    RffParams,
    _vehicle_planar,
    constraint_row,
    h0,
    h_ff,
    h_rff,
    h_speed,
    pair_row,
    smooth_switch,
    tau_hat,
    tau_star_hat,
)
from ffcbf.controllers import ControllerConfig
from ffcbf.dynamics import ControlInput, VehicleParams, VehicleState, planar_velocity, step

VEH = VehicleParams()
FF = FfParams(R=1.25)
RFF = RffParams(ff=FF)
CTRL = ControllerConfig()
HOCBF, MARGIN = CTRL.hocbf_gain, CTRL.zero_margin


def random_state(rng, pos=30.0, vmax=10.0):
    return VehicleState(
        rng.uniform(-pos, pos), rng.uniform(-pos, pos),
        rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5), rng.uniform(0.0, vmax),
    )


def planar(state):
    """The per-vehicle terms a QP builder hands to constraint_row."""
    return _vehicle_planar(state, VEH.lr)


class PairRow(NamedTuple):
    value: float
    phi: float
    gamma_i: float
    gamma_j: float


def pair_eval(kind, a, b, wa, wb, alpha_gain=10.0, hocbf_gain=HOCBF, zero_margin=MARGIN,
              rff=RFF):
    """Barrier value and QP row phi + gamma_i*a_a + gamma_j*a_b >= 0 of the pair
    (a, b) at slip rates (wa, wb), through the production path: the pair's
    constraint_row terms folded by pair_row."""
    pa, pb = planar(a), planar(b)
    terms = constraint_row(kind, pa, pb, alpha_gain, rff, hocbf_gain, zero_margin)
    return PairRow(terms.value, *pair_row(terms, pa, pb, wa, wb))


def pair_tau_hat(a, b):
    """tau_hat of a vehicle pair through the scalar paper pieces."""
    (xa, ya), (xb, yb) = planar_velocity(a), planar_velocity(b)
    ts = tau_star_hat((a.x - b.x, a.y - b.y), (xa - xb, ya - yb), FF.epsilon)
    return tau_hat(ts, FF.tau_bar, FF.k)


class TestSpeedBarrier:
    ALPHA = CTRL.speed_alpha

    def test_at_rest(self):
        value, phi, gamma = h_speed(VehicleState(0, 0, 0, 0, 0), 10.0, self.ALPHA)
        assert value == 0.0 and phi == 0.0 and gamma == 10.0

    def test_at_limit(self):
        value, _, _ = h_speed(VehicleState(0, 0, 0, 0, 10.0), 10.0, self.ALPHA)
        assert value == 0.0

    def test_midpoint(self):
        value, phi, gamma = h_speed(VehicleState(0, 0, 0, 0, 5.0), 10.0, self.ALPHA)
        assert value == 25.0 and gamma == 0.0 and phi == self.ALPHA * 25.0

    def test_row_is_hdot(self):
        # d/dt[(vmax - v) v] = (vmax - 2v) a exactly
        st0 = VehicleState(0, 0, 0, 0, 4.0)
        a = 1.7
        _, _, gamma = h_speed(st0, 10.0, self.ALPHA)
        delta = 1e-6
        plus = step(st0, ControlInput(0, a), VEH, delta)
        v1, _, _ = h_speed(plus, 10.0, self.ALPHA)
        v0, _, _ = h_speed(st0, 10.0, self.ALPHA)
        assert (v1 - v0) / delta == pytest.approx(gamma * a, rel=1e-4)


class TestDistanceBarrier:
    def test_boundary(self):
        assert h0(VehicleState(2.5, 0, 0, 0, 1), VehicleState(0, 0, 0, 0, 1), 1.25) == 0.0

    def test_substitution(self):
        assert h0(VehicleState(6, 8, 0, 0, 0), VehicleState(0, 0, 0, 0, 0), 2.5) == 75.0

    def test_symmetric(self):
        a = VehicleState(1, 2, 0.3, 0.1, 4)
        b = VehicleState(-3, 5, 1.0, -0.1, 2)
        assert h0(a, b, 1.25) == h0(b, a, 1.25)


class TestTauPieces:
    def test_tau_star_hat_zero_velocity(self):
        assert tau_star_hat((5, 3), (0, 0), 1e-3) == 0.0

    def test_tau_star_hat_formula(self):
        assert tau_star_hat((10, 0), (-2, 0), 1e-3) == pytest.approx(20 / 4.001, rel=1e-12)

    def test_tau_star_hat_receding_negative(self):
        assert tau_star_hat((10, 0), (3, 0), 1e-9) < 0.0

    def test_smooth_switch_center(self):
        assert smooth_switch(2.0, 2.0, 1000.0) == 0.5

    def test_smooth_switch_saturation(self):
        assert smooth_switch(10 / 1000, 0.0, 1000.0) == pytest.approx(1.0, abs=1e-8)
        assert smooth_switch(-10 / 1000, 0.0, 1000.0) == pytest.approx(0.0, abs=1e-8)

    def test_tau_hat_interior(self):
        assert tau_hat(2.5, 5.0, 1000.0) == pytest.approx(2.5, abs=1e-6)

    def test_tau_hat_below(self):
        assert tau_hat(-1.0, 5.0, 1000.0) == pytest.approx(0.0, abs=1e-6)

    def test_tau_hat_above(self):
        assert tau_hat(10.0, 5.0, 1000.0) == pytest.approx(5.0, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e9, 1e9), st.floats(0.5, 20.0))
    def test_tau_hat_range_property(self, ts, tau_bar):
        assert -1e-3 <= tau_hat(ts, tau_bar, 1000.0) <= tau_bar + 1e-3


class TestFfBarrier:
    def test_equals_h0_when_static(self):
        a = VehicleState(4, 3, 0.2, 0, 0)
        b = VehicleState(-1, -2, 1.1, 0, 0)
        base = h0(a, b, FF.R)
        assert h_ff(a, b, FF) == pytest.approx(base, abs=1e-6 * (1 + abs(base)))

    def test_head_on(self):
        ffp = FfParams(R=2.5)
        a = VehicleState(20, 0, math.pi, 0, 8)
        b = VehicleState(0, 0, 0, 0, 8)
        # closing at 16 m/s from 20 m: predicted contact at tau* = 1.25... the
        # differential view: xi=(20,0), nu=(-16,0) gives tau*=1.25, distance 0
        assert h_ff(a, b, ffp) == pytest.approx(-25.0, abs=1e-6)

    def test_ordering_whenever_tau_hat_below_twice_tau_star(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(2000):
            a, b = random_state(rng), random_state(rng)
            xi = (a.x - b.x, a.y - b.y)
            va, vb = planar_velocity(a), planar_velocity(b)
            nu = (va[0] - vb[0], va[1] - vb[1])
            ts = tau_star_hat(xi, nu, FF.epsilon)
            th = tau_hat(ts, FF.tau_bar, FF.k)
            if th <= 2 * ts:
                checked += 1
                assert h_ff(a, b, FF) <= h0(a, b, FF.R) + 1e-9
        assert checked > 100


class TestRffBarrier:
    def test_equals_ff_on_physical_boundary(self):
        # place the pair exactly 2R apart: the relaxation term vanishes
        a = VehicleState(2.5, 0, 0.3, 0, 4)
        b = VehicleState(0, 0, 1.2, 0, 2)
        assert h0(a, b, FF.R) == 0.0
        assert h_rff(a, b, RFF) == h_ff(a, b, FF)

    def test_floor_gain_when_tau_small(self):
        # receding pair: tau_hat ~ 0 <= 1, so k0 = 0.1 * 0.001
        a = VehicleState(10, 0, 0, 0, 3)
        b = VehicleState(0, 0, math.pi, 0, 3)
        base = h0(a, b, FF.R)
        assert h_rff(a, b, RFF) - h_ff(a, b, FF) == pytest.approx(1e-4 * base, rel=1e-9)

    def test_far_receding(self):
        a = VehicleState(100, 0, 0, 0, 1)
        b = VehicleState(0, 0, 0, 0, 0)
        base = h0(a, b, FF.R)
        ff = h_ff(a, b, FF)
        val = h_rff(a, b, RFF)
        assert val == pytest.approx(ff + 1e-4 * base, rel=1e-9)
        assert val > 0 and ff > 0

    def test_boundary_agreement_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, b = random_state(rng), random_state(rng)
            k0 = (h_rff(a, b, RFF) - h_ff(a, b, FF))
            assert abs(k0) <= 0.1 * max(pair_tau_hat(a, b) - 1, 0.001) * abs(h0(a, b, FF.R)) + 1e-9


class TestRelativeKinematics:
    """The differential kinematics the pair rows are built on:
    alpha = drift_i + S_i u_i - drift_j - S_j u_j."""

    @staticmethod
    def planar_accel(state, inp):
        """drift + S @ [omega, a] of one vehicle, as the pair rows read it."""
        _, _, _, _, swx, swy, sax, say, dax, day = planar(state)
        return np.array([dax + swx * inp.omega + sax * inp.a,
                         day + swy * inp.omega + say * inp.a])

    def test_identical_states(self):
        # xi = nu = 0: the distance row has no acceleration coefficients
        a = VehicleState(1, 2, 0.5, 0.1, 3)
        ev = pair_eval("zero", a, a, 0.3, -0.2, zero_margin=0.0)
        assert ev.gamma_i == ev.gamma_j == 0.0
        assert ev.value == h0(a, a, FF.R) == -4.0 * FF.R ** 2

    def test_stationary_neighbor_singular_omega_column(self):
        # a stopped neighbor's slip-rate column is zero: its omega cannot move the row
        a = VehicleState(0, 0, 0, 0, 3)
        b = VehicleState(5, 5, 0.7, 0.2, 0)
        assert b.trig[5:7] == planar(b)[4:6] == (0.0, 0.0)
        for kind in ("zero", "ff", "rff"):
            rows = [pair_eval(kind, a, b, 0.4, wb) for wb in (-1.0, 1.0)]
            assert rows[0] == rows[1], kind

    def test_alpha_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        delta = 1e-5
        for _ in range(40):
            a, b = random_state(rng, pos=10), random_state(rng, pos=10)
            ua = ControlInput(rng.uniform(-1, 1), rng.uniform(-4, 4))
            ub = ControlInput(rng.uniform(-1, 1), rng.uniform(-4, 4))
            a_mid, b_mid = step(a, ua, VEH, delta), step(b, ub, VEH, delta)
            a_far, b_far = step(a, ua, VEH, 2 * delta), step(b, ub, VEH, 2 * delta)
            nu0 = np.subtract(planar_velocity(a), planar_velocity(b))
            nu2 = np.subtract(planar_velocity(a_far), planar_velocity(b_far))
            fd = (nu2 - nu0) / (2 * delta)
            pred = self.planar_accel(a_mid, ua) - self.planar_accel(b_mid, ub)
            assert np.allclose(fd, pred, atol=1e-5, rtol=1e-5)


def row_prediction(kind, ev, alpha_gain, a_i, a_j):
    """hdot implied by a constraint row at fixed accelerations."""
    return ev.phi - alpha_gain * ev.value + ev.gamma_i * a_i + ev.gamma_j * a_j


class TestConstraintRow:
    ALPHA = 10.0

    def fd_hdot(self, kind, a, b, ua, ub, delta=1e-5):
        """Central difference of the barrier value along the exact rollout,
        evaluated at the half-step state; returns (mid states, fd value)."""
        a_mid, b_mid = step(a, ua, VEH, delta), step(b, ub, VEH, delta)
        a_far, b_far = step(a, ua, VEH, 2 * delta), step(b, ub, VEH, 2 * delta)

        def val(x, y):
            if kind == "zero":
                return h0(x, y, FF.R)
            if kind == "ff":
                return h_ff(x, y, FF)
            return h_rff(x, y, RFF)

        return (a_mid, b_mid), (val(a_far, b_far) - val(a, b)) / (2 * delta)

    @pytest.mark.parametrize("kind", ["ff", "rff"])
    def test_row_matches_finite_difference(self, kind):
        rng = np.random.default_rng(17)
        n_checked = 0
        while n_checked < 120:
            a, b = random_state(rng), random_state(rng)
            ua = ControlInput(rng.uniform(-1.5, 1.5), rng.uniform(-6, 6))
            ub = ControlInput(rng.uniform(-1.5, 1.5), rng.uniform(-6, 6))
            if kind == "rff":
                th = pair_tau_hat(a, b)
                if abs(th - (1.0 + RFF.k0_floor)) < 1e-3:
                    continue  # measure-zero kink of k0: one-sided by design
            (a_mid, b_mid), fd = self.fd_hdot(kind, a, b, ua, ub)
            ev = pair_eval(kind, a_mid, b_mid, ua.omega, ub.omega, self.ALPHA)
            pred = row_prediction(kind, ev, self.ALPHA, ua.a, ub.a)
            assert abs(fd - pred) <= 1e-4 * (1.0 + max(abs(fd), abs(pred))), (kind, a, b)
            n_checked += 1

    def test_zero_row_matches_second_derivative(self):
        # phi + gamma.a reconstructs h0'' + class-K terms; compare h0'' to the
        # finite difference of the analytic h0' = 2 p along the rollout
        rng = np.random.default_rng(23)
        delta = 1e-5
        for _ in range(80):
            a, b = random_state(rng), random_state(rng)
            ua = ControlInput(rng.uniform(-1.5, 1.5), rng.uniform(-6, 6))
            ub = ControlInput(rng.uniform(-1.5, 1.5), rng.uniform(-6, 6))
            a_mid, b_mid = step(a, ua, VEH, delta), step(b, ub, VEH, delta)
            a_far, b_far = step(a, ua, VEH, 2 * delta), step(b, ub, VEH, 2 * delta)

            def h0dot(x, y):
                nu = np.subtract(planar_velocity(x), planar_velocity(y))
                return 2.0 * ((x.x - y.x) * nu[0] + (x.y - y.y) * nu[1])

            fd = (h0dot(a_far, b_far) - h0dot(a, b)) / (2 * delta)
            g = 1.7
            ev = pair_eval("zero", a_mid, b_mid, ua.omega, ub.omega, self.ALPHA,
                           hocbf_gain=g, zero_margin=0.0)
            row_h0ddot = (ev.phi + ev.gamma_i * ua.a + ev.gamma_j * ub.a
                          - 4 * g * 0.5 * h0dot(a_mid, b_mid)
                          - g ** 2 * ev.value)
            assert abs(fd - row_h0ddot) <= 1e-4 * (1.0 + max(abs(fd), abs(row_h0ddot)))

    def test_drift_vanishes_for_straight_interior_motion(self):
        # straight motion, zero slip rates, minimizer well inside (0, tau_bar):
        # the control-independent part of hdot is at approximation-error scale
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 60:
            gap = rng.uniform(5, 60)
            v1, v2 = rng.uniform(1, 10), rng.uniform(1, 10)
            off = rng.uniform(-3, 3)
            a = VehicleState(0, 0, 0, 0, v1)
            b = VehicleState(gap, off, math.pi, 0, v2)
            xi = (a.x - b.x, a.y - b.y)
            nu = (v1 + v2, 0.0)
            ts = tau_star_hat(xi, nu, FF.epsilon)
            if not 0.05 <= ts <= FF.tau_bar - 0.05:
                continue
            ev = pair_eval("ff", a, b, 0.0, 0.0, self.ALPHA)
            assert abs(ev.phi - self.ALPHA * ev.value) <= 1e-6
            checked += 1

    @pytest.mark.parametrize("kind", ["zero", "ff", "rff"])
    def test_swap_symmetry(self, kind):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a, b = random_state(rng), random_state(rng)
            wa, wb = rng.uniform(-1, 1), rng.uniform(-1, 1)
            pa, pb = planar(a), planar(b)
            ab = constraint_row(kind, pa, pb, self.ALPHA, RFF, HOCBF, MARGIN)
            ba = constraint_row(kind, pb, pa, self.ALPHA, RFF, HOCBF, MARGIN)
            # swapping the pair negates c exactly and keeps every other term
            assert ba == ab._replace(cx=-ab.cx, cy=-ab.cy)
            # so the row of (b, a) swaps the gammas of (a, b) bit for bit
            sw = pair_row(ba, pb, pa, wb, wa)
            phi, gamma_a, gamma_b = pair_row(ab, pa, pb, wa, wb)
            assert sw[1:] == (gamma_b, gamma_a)
            assert sw[0] == pytest.approx(phi, rel=1e-9, abs=1e-9)

    def test_unknown_kind(self):
        a = VehicleState(0, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            constraint_row("bogus", planar(a), planar(a), 10.0, RFF, HOCBF, MARGIN)
