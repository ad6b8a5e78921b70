import math

import numpy as np
import pytest

from ffcbf.dynamics import (
    ControlInput,
    VehicleParams,
    VehicleState,
    bicycle_derivative,
    planar_kinematics,
    planar_velocity,
    predict_position,
    step,
)

PARAMS = VehicleParams()


def rollout(state, inp, params, dt, n):
    for _ in range(n):
        state = step(state, inp, params, dt)
    return state


class TestDerivative:
    def test_straight_east(self):
        d = bicycle_derivative(VehicleState(0, 0, 0, 0, 1), ControlInput(0, 0), PARAMS)
        assert np.allclose(d, [1, 0, 0, 0, 0])

    def test_at_rest_zero_input(self):
        d = bicycle_derivative(VehicleState(3, -2, 0.7, 0.2, 0), ControlInput(0, 0), PARAMS)
        assert np.allclose(d, [0, 0, 0, 0, 0])

    def test_north_heading(self):
        d = bicycle_derivative(
            VehicleState(0, 0, math.pi / 2, 0, 2), ControlInput(0.1, 0.5), PARAMS
        )
        assert np.allclose(d, [0, 2, 0, 0.1, 0.5])

    def test_slip_domain_error(self):
        with pytest.raises(ValueError):
            bicycle_derivative(
                VehicleState(0, 0, 0, math.pi / 2, 1), ControlInput(0, 0), PARAMS
            )


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
        ref = rollout(s0, u, PARAMS, 1e-5, 100000).as_array()
        err = {}
        for dt, n in ((0.02, 50), (0.01, 100)):
            err[dt] = np.linalg.norm(rollout(s0, u, PARAMS, dt, n).as_array() - ref)
        ratio = err[0.02] / err[0.01]
        assert 8.0 < ratio < 32.0


class TestPredictPosition:
    def test_tau_zero(self):
        st = VehicleState(3, -1, 0.4, 0.1, 5)
        assert predict_position(st, 0.0) == (3, -1)

    def test_straight_east(self):
        assert predict_position(VehicleState(0, 0, 0, 0, 3), 2.0) == (6, 0)

    def test_stationary(self):
        st = VehicleState(2, 7, 1.0, 0.3, 0)
        assert predict_position(st, 11.0) == (2, 7)

    def test_matches_rollout_for_straight_motion(self):
        # beta = 0, zero input: the constant-velocity forecast is exact
        st = VehicleState(1, 2, 0.7, 0, 4)
        tau, n = 2.0, 200
        end = rollout(st, ControlInput(0, 0), PARAMS, tau / n, n)
        px, py = predict_position(st, tau)
        assert (end.x, end.y) == pytest.approx((px, py), abs=1e-9)

    def test_diverges_under_turning(self):
        # nonzero slip bends the true zero-input path away from the forecast;
        # this gap is what the relaxed barrier tolerates
        st = VehicleState(0, 0, 0, 0.3, 4)
        tau, n = 2.0, 200
        end = rollout(st, ControlInput(0, 0), PARAMS, tau / n, n)
        px, py = predict_position(st, tau)
        assert math.hypot(end.x - px, end.y - py) > 0.5


class TestPlanarKinematics:
    def test_coupling_at_origin_heading(self):
        pk = planar_kinematics(VehicleState(0, 0, 0, 0, 2), PARAMS)
        assert np.allclose(pk.coupling, [[0, 1], [2, 0]])
        assert (pk.xdot, pk.ydot) == (2, 0)
        assert (pk.drift_ax, pk.drift_ay) == (0, 0)

    def test_zero_speed_singular_omega_column(self):
        pk = planar_kinematics(VehicleState(1, 1, 0.8, 0.2, 0), PARAMS)
        assert np.allclose(pk.coupling[:, 0], 0.0)

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
            pk = planar_kinematics(mid, PARAMS)
            pred = np.array([pk.drift_ax, pk.drift_ay]) + pk.coupling @ [u.omega, u.a]
            assert np.allclose(fd, pred, atol=1e-5, rtol=1e-5)

    def test_appendix_identity(self):
        # commanding planar acceleration mu through S^{-1}[mu_x + yd*psid,
        # mu_y - xd*psid] must reproduce exactly that planar acceleration
        rng = np.random.default_rng(11)
        for _ in range(200):
            st = VehicleState(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3),
                              rng.uniform(-0.9, 0.9), rng.uniform(0.2, 10))
            mu = rng.uniform(-8, 8, 2)
            pk = planar_kinematics(st, PARAMS)
            psid = (st.v / PARAMS.lr) * math.tan(st.beta)
            rhs = np.array([mu[0] + pk.ydot * psid, mu[1] - pk.xdot * psid])
            u = np.linalg.solve(pk.coupling, rhs)
            accel = np.array([pk.drift_ax, pk.drift_ay]) + pk.coupling @ u
            assert np.allclose(accel, mu, atol=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            planar_kinematics(VehicleState(0, 0, 0, 1.6, 1), PARAMS)


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
            pk = planar_kinematics(st, PARAMS)
            assert pk.coupling.tolist() == [[swx, sax], [swy, say]]
            d = bicycle_derivative(st, ControlInput(0.2, -0.3), PARAMS)
            assert d.tolist() == [xd, yd, (st.v / PARAMS.lr) * tb, 0.2, -0.3]


class TestStepBits:
    def test_matches_rk4_reference_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for st in random_states(5, 300):
            u = ControlInput(rng.uniform(-1.6, 1.6), rng.uniform(-10, 10))
            dt = float(rng.choice([0.01, 0.02, 1e-3]))
            got = step(st, u, PARAMS, dt)
            want = rk4_reference(st, u, PARAMS, dt)
            assert hexes(got.as_array()) == hexes(want)

    def test_slip_checked_at_every_stage(self):
        # beta starts inside the domain; the half-step stage leaves it
        st = VehicleState(0, 0, 0, 1.5, 3.0)
        with pytest.raises(ValueError):
            step(st, ControlInput(20.0, 0.0), PARAMS, 0.01)
        with pytest.raises(ValueError):
            rk4_reference(st, ControlInput(20.0, 0.0), PARAMS, 0.01)
