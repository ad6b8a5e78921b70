import math

import numpy as np
import pytest

from ffcbf.barriers import FfParams, _vehicle_planar
from ffcbf.controllers import ControllerConfig, NominalTarget, lqr_gain, nominal_control
from ffcbf.dynamics import ControlInput, VehicleParams, VehicleState, step
from paper_reference import h0, h_ff, pair_tau_hat, planar_velocity

PARAMS = VehicleParams()
FF = FfParams()


def as_array(state):
    """z = [x, y, psi, beta, v] of a state."""
    return np.array([state.x, state.y, state.psi, state.beta, state.v])


def rollout(state, inp, params, dt, n):
    for _ in range(n):
        state = step(state, inp, params, dt)
    return state


def derivative(state, inp, h=1e-7):
    """[xdot, ydot, psidot, betadot, vdot] as the forward difference of one step."""
    return (as_array(step(state, inp, PARAMS, h)) - as_array(state)) / h


def planar_accel(state, inp):
    """[xddot, yddot] = drift + S @ [omega, a], read from VehicleState.trig."""
    xd, yd, tb, sax, say, swx, swy = state.trig
    psid = (state.v / PARAMS.lr) * tb
    return np.array([-yd * psid + swx * inp.omega + sax * inp.a,
                     xd * psid + swy * inp.omega + say * inp.a])


class TestDerivative:
    """The bicycle derivative, through the production RK4 step."""

    def test_straight_east(self):
        st = VehicleState(0, 0, 0, 0, 1)
        assert planar_velocity(st) == (1, 0)
        assert np.allclose(derivative(st, ControlInput(0, 0)), [1, 0, 0, 0, 0])

    def test_at_rest_zero_input(self):
        st = VehicleState(3, -2, 0.7, 0.2, 0)
        assert step(st, ControlInput(0, 0), PARAMS, 0.01) == st

    def test_north_heading(self):
        d = derivative(VehicleState(0, 0, math.pi / 2, 0, 2), ControlInput(0.1, 0.5))
        assert np.allclose(d, [0, 2, 0, 0.1, 0.5], atol=1e-5)

    def test_slip_domain_error(self):
        with pytest.raises(ValueError):
            step(VehicleState(0, 0, 0, math.pi / 2, 1), ControlInput(0, 0), PARAMS, 0.01)


class TestStep:
    def test_double_integrator_closed_form(self):
        # straight lane, constant acceleration: x(1) = v0*T + a*T^2/2
        state = rollout(VehicleState(0, 0, 0, 0, 2), ControlInput(0, 1), PARAMS, 0.01, 100)
        assert state.x == pytest.approx(2.5, abs=1e-6)
        assert state.v == pytest.approx(3.0, abs=1e-12)
        assert state.y == 0.0 and state.psi == 0.0 and state.beta == 0.0

    def test_zero_input_keeps_speed_exactly(self):
        state = step(VehicleState(1, 2, 0.3, 0.1, 4.2), ControlInput(0, 0), PARAMS, 0.01)
        assert state.v == 4.2

    def test_deterministic(self):
        s0 = VehicleState(0.1, -0.2, 0.5, 0.12, 3.3)
        u = ControlInput(0.07, -0.4)
        a = rollout(s0, u, PARAMS, 0.01, 50)
        b = rollout(s0, u, PARAMS, 0.01, 50)
        assert a == b

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            step(VehicleState(0, 0, 0, 0, 1), ControlInput(0, 0), PARAMS, 0.0)

    def test_rk4_order(self):
        # halving dt should cut the terminal error by about 2^4
        s0 = VehicleState(0, 0, 0, 0.25, 2.0)
        u = ControlInput(0.05, 0.3)
        ref = as_array(rollout(s0, u, PARAMS, 1e-5, 100000))
        err = {}
        for dt, n in ((0.02, 50), (0.01, 100)):
            err[dt] = np.linalg.norm(as_array(rollout(s0, u, PARAMS, dt, n)) - ref)
        ratio = err[0.02] / err[0.01]
        assert 8.0 < ratio < 32.0


class TestPredictPosition:
    """h_ff is h0 of the constant-velocity forecast of the pair at tau_hat."""

    def test_tau_zero(self):
        # receding pair: tau_hat = 0, the forecast is the current position
        a = VehicleState(10, 0, 0, 0, 3)
        b = VehicleState(0, 0, 0.4, 0.1, 0)
        assert pair_tau_hat(a, b, FF) == 0.0
        assert h_ff(a, b, FF) == h0(a, b, FF.R)

    def test_straight_east(self):
        # east at 3 m/s toward a stopped vehicle: closest at tau_hat = 4 s, x = 12
        a = VehicleState(0, 0, 0, 0, 3)
        b = VehicleState(12, 1, 0, 0, 0)
        assert pair_tau_hat(a, b, FF) == pytest.approx(4.0, abs=1e-9)
        forecast = VehicleState(12, 0, 0, 0, 3)
        assert h_ff(a, b, FF) == pytest.approx(h0(forecast, b, FF.R), abs=1e-9)

    def test_stationary(self):
        a = VehicleState(2, 7, 1.0, 0.3, 0)
        b = VehicleState(-4, 1, 0.2, 0.0, 0)
        assert h_ff(a, b, FF) == h0(a, b, FF.R)

    def test_matches_rollout_for_straight_motion(self):
        # beta = 0, zero input: the constant-velocity forecast is exact
        a = VehicleState(1, 2, 0.7, 0, 4)
        b = VehicleState(12, 4, 2.6, 0, 3)
        tau = pair_tau_hat(a, b, FF)
        assert 1.0 < tau < FF.tau_bar
        n = 200
        end_a = rollout(a, ControlInput(0, 0), PARAMS, tau / n, n)
        end_b = rollout(b, ControlInput(0, 0), PARAMS, tau / n, n)
        assert h_ff(a, b, FF) == pytest.approx(h0(end_a, end_b, FF.R), abs=1e-9)

    def test_diverges_under_turning(self):
        # nonzero slip bends the true zero-input path away from the forecast;
        # this gap is what the relaxed barrier tolerates.  b sits where a's
        # forecast puts a at tau_hat = 2 s.
        a = VehicleState(0, 0, 0, 0.3, 4)
        xd, yd = planar_velocity(a)
        b = VehicleState(2 * xd, 2 * yd, 0, 0, 0)
        tau = pair_tau_hat(a, b, FF)
        assert tau == pytest.approx(2.0, abs=1e-9)
        assert h_ff(a, b, FF) == pytest.approx(-4 * FF.R ** 2, abs=1e-9)
        n = 200
        end_a = rollout(a, ControlInput(0, 0), PARAMS, tau / n, n)
        gap = math.sqrt(h0(end_a, b, FF.R) + 4 * FF.R ** 2)
        assert gap > 0.5


class TestPlanarKinematics:
    """The planar acceleration structure held in VehicleState.trig."""

    def test_coupling_at_origin_heading(self):
        st = VehicleState(0, 0, 0, 0, 2)
        xd, yd, tb, sax, say, swx, swy = st.trig
        assert np.allclose([[swx, sax], [swy, say]], [[0, 1], [2, 0]])
        assert (xd, yd) == (2, 0)
        assert np.allclose(planar_accel(st, ControlInput(0, 0)), 0.0)

    def test_zero_speed_singular_omega_column(self):
        st = VehicleState(1, 1, 0.8, 0.2, 0)
        assert np.allclose(st.trig[5:7], 0.0)

    def test_acceleration_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        delta = 1e-5
        for _ in range(50):
            st = VehicleState(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3),
                              rng.uniform(-0.6, 0.6), rng.uniform(0.1, 9))
            u = ControlInput(rng.uniform(-1.5, 1.5), rng.uniform(-5, 5))
            mid = step(st, u, PARAMS, delta)
            far = step(st, u, PARAMS, 2 * delta)
            fd = (np.array(planar_velocity(far)) - np.array(planar_velocity(st))) / (2 * delta)
            assert np.allclose(fd, planar_accel(mid, u), atol=1e-5, rtol=1e-5)

    def test_appendix_identity(self):
        # nominal_control maps the LQR planar acceleration mu = -K (zeta - q*)
        # through S^{-1}[mu_x + yd*psid, mu_y - xd*psid]; driving the bicycle
        # with that (omega0, a0) must reproduce exactly mu
        rng = np.random.default_rng(11)
        gain, v_eps = lqr_gain(16.0, 8.0, 1.0), ControllerConfig().v_eps
        for _ in range(200):
            st = VehicleState(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3),
                              rng.uniform(-0.9, 0.9), rng.uniform(0.2, 10))
            target = NominalTarget(rng.uniform(-5, 5, 4))
            w0, a0 = nominal_control(st, target, gain, PARAMS, v_eps)
            zeta = np.array([st.x, st.y, *planar_velocity(st)])
            mu = -np.asarray(gain) @ (zeta - np.asarray(target.q_star))
            accel = planar_accel(st, ControlInput(w0, a0))
            assert np.allclose(accel, mu, atol=1e-8)


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(lr=0.0)


def rk4_reference(state, inp, params, dt):
    """Stage-by-stage RK4 over the full 5-vector, the textbook form."""
    def deriv(z):
        _, _, psi, beta, v = z
        if not abs(beta) < math.pi / 2:
            raise ValueError("slip angle outside (-pi/2, pi/2)")
        c, s, tb = math.cos(psi), math.sin(psi), math.tan(beta)
        return (v * (c - s * tb), v * (s + c * tb), (v / params.lr) * tb, inp.omega, inp.a)

    z0 = (state.x, state.y, state.psi, state.beta, state.v)
    k1 = deriv(z0)
    k2 = deriv(tuple(z0[i] + 0.5 * dt * k1[i] for i in range(5)))
    k3 = deriv(tuple(z0[i] + 0.5 * dt * k2[i] for i in range(5)))
    k4 = deriv(tuple(z0[i] + dt * k3[i] for i in range(5)))
    return tuple(z0[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                 for i in range(5))


def hexes(values):
    return [float(x).hex() for x in values]


def random_states(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield VehicleState(*rng.uniform(-20, 20, 2), rng.uniform(-4, 4),
                           rng.uniform(-1.4, 1.4), rng.uniform(-1, 12))


class TestTrigCache:
    def test_matches_direct_formulas_bit_for_bit(self):
        for st in random_states(3, 300):
            c, s, tb = math.cos(st.psi), math.sin(st.psi), math.tan(st.beta)
            sec2 = 1.0 + tb * tb
            direct = (st.v * (c - s * tb), st.v * (s + c * tb), tb, c - s * tb,
                      s + c * tb, -st.v * s * sec2, st.v * c * sec2)
            assert hexes(st.trig) == hexes(direct)

    def test_computed_once_and_outside_eq_and_hash(self):
        a = VehicleState(1.0, 2.0, 0.3, 0.1, 4.0)
        b = VehicleState(1.0, 2.0, 0.3, 0.1, 4.0)
        assert a.trig is a.trig
        assert a == b and hash(a) == hash(b)

    def test_readers_agree_with_the_cache(self):
        for st in random_states(4, 50):
            xd, yd, tb, sax, say, swx, swy = st.trig
            assert planar_velocity(st) == (xd, yd)
            psid = (st.v / PARAMS.lr) * tb
            assert _vehicle_planar(st, PARAMS.lr) == (
                st.x, st.y, xd, yd, swx, swy, sax, say, -yd * psid, xd * psid)


class TestStepBits:
    def test_matches_rk4_reference_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for st in random_states(5, 300):
            u = ControlInput(rng.uniform(-1.6, 1.6), rng.uniform(-10, 10))
            dt = float(rng.choice([0.01, 0.02, 1e-3]))
            got = step(st, u, PARAMS, dt)
            want = rk4_reference(st, u, PARAMS, dt)
            assert hexes(as_array(got)) == hexes(want)

    def test_slip_checked_at_every_stage(self):
        # beta starts inside the domain; the half-step stage leaves it
        st = VehicleState(0, 0, 0, 1.5, 3.0)
        with pytest.raises(ValueError):
            step(st, ControlInput(20.0, 0.0), PARAMS, 0.01)
        with pytest.raises(ValueError):
            rk4_reference(st, ControlInput(20.0, 0.0), PARAMS, 0.01)
