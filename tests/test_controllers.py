import cProfile
import math
import os
import pstats

import numpy as np
import pytest
import scipy.linalg

from paper_reference import h0
from test_barriers import pair_eval

from ffcbf import qp, scenario
from ffcbf.barriers import (
    FfParams, RffParams, _vehicle_planar, constraint_row, h_speed, pair_row,
)
from ffcbf.controllers import (
    ControllerConfig,
    NominalTarget,
    _nominals,
    build_qp,
    centralized_step,
    decentralized_step,
    lqr_gain,
    nominal_control,
    saturate_omega,
    tick_frame,
)
from ffcbf.dynamics import ControlInput, VehicleParams, VehicleState, step

VEH = VehicleParams()
FF = FfParams(R=1.25)


def make_config(kind="ff", mode="centralized", **kw):
    return ControllerConfig(cbf_kind=kind, mode=mode, vehicle=VEH, rff=RffParams(ff=FF), **kw)


def target_for(state, speed=None):
    """Reference exactly at the vehicle's position moving at its speed."""
    v = state.v if speed is None else speed
    return NominalTarget(np.array([
        state.x, state.y, v * math.cos(state.psi), v * math.sin(state.psi),
    ]))


def central_qp(states, targets, cfg):
    """The problem centralized_step solves: every vehicle free at _nominals."""
    omegas, accels = _nominals(states, targets, cfg)
    return build_qp(states, tick_frame(states, cfg), range(len(states)), omegas, accels, cfg)


def dense_rows(problem):
    """(coeffs, lower_bound) of every row of a builder's problem."""
    rows = []
    for pairs, lb in problem.rows:
        coeffs = np.zeros(problem.dim)
        for i, c in pairs:
            coeffs[i] = c
        rows.append((coeffs, lb))
    return rows


class TestNominalTarget:
    @pytest.mark.parametrize("q", [
        [1.0, 2.0, 3.0, 4.0], (1.0, 2.0, 3.0, 4.0), np.array([1.0, 2.0, 3.0, 4.0]),
        [1, 2, 3, 4],
    ])
    def test_accepts_any_4_sequence_as_floats(self, q):
        target = NominalTarget(q)
        assert target.q_star == (1.0, 2.0, 3.0, 4.0)
        assert all(type(x) is float for x in target.q_star)

    def test_accepts_a_sum_that_overflows(self):
        assert NominalTarget([1e308, 1e308, 0.0, 0.0]).q_star[0] == 1e308

    @pytest.mark.parametrize("q", [
        [float("nan"), 0.0, 0.0, 0.0],
        [0.0, 0.0, float("inf"), 0.0],
        [0.0, 0.0, 0.0, float("-inf")],
        [0.0, 0.0, 0.0],                        # 3 entries
        [0.0, 0.0, 0.0, 0.0, 0.0],              # 5 entries
        ["x", 0.0, 0.0, 0.0],                   # non-numeric
        [None, 0.0, 0.0, 0.0],
        [[0.0], 0.0, 0.0, 0.0],                 # nested
        np.zeros((4, 1)),
        1.0,                                    # scalar
    ])
    def test_rejects_malformed(self, q):
        with pytest.raises(ValueError):
            NominalTarget(q)


class TestLqrGain:
    def test_unit_weights_closed_form(self):
        g = np.asarray(lqr_gain(1.0, 1.0, 1.0))
        assert g[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert g[0, 2] == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_matches_riccati_oracle(self):
        # independent oracle: scipy continuous-time ARE per axis
        for q_pos, q_vel, r in [(1, 1, 1), (4, 4, 1), (2.5, 0.7, 0.3), (9, 1, 2)]:
            a = np.array([[0.0, 1.0], [0.0, 0.0]])
            b = np.array([[0.0], [1.0]])
            p = scipy.linalg.solve_continuous_are(a, b, np.diag([q_pos, q_vel]), [[r]])
            k_ref = (b.T @ p / r).ravel()
            g = np.asarray(lqr_gain(q_pos, q_vel, r))
            assert np.allclose([g[0, 0], g[0, 2]], k_ref, atol=1e-9)

    def test_weight_scaling_invariance(self):
        assert np.allclose(lqr_gain(1, 2, 1), lqr_gain(7, 14, 7), atol=1e-12)

    def test_axes_identical(self):
        g = np.asarray(lqr_gain(3.0, 2.0, 0.5))
        assert g[0, 0] == g[1, 1] and g[0, 2] == g[1, 3]
        assert g[0, 1] == g[0, 3] == g[1, 0] == g[1, 2] == 0.0

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            lqr_gain(0.0, 1.0, 1.0)

    def test_config_gain_derived_from_weights(self):
        cfg = ControllerConfig(lqr_q_pos=3.0, lqr_q_vel=2.0, lqr_r=0.5)
        assert np.array_equal(cfg.lqr_gain, lqr_gain(3.0, 2.0, 0.5))
        with pytest.raises(TypeError):
            ControllerConfig(lqr_gain=np.zeros((2, 4)))


class TestNominalControl:
    GAIN = lqr_gain(1.0, 2.0, 1.0)
    V_EPS = ControllerConfig().v_eps

    def test_on_target_is_zero(self):
        st = VehicleState(3.0, -2.0, 0.4, 0.0, 5.0)
        w0, a0 = nominal_control(st, target_for(st), self.GAIN, VEH, self.V_EPS)
        assert (w0, a0) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_singular_branch(self):
        # at rest the S matrix is singular: omega = 0, a = ||mu||
        st = VehicleState(0.0, 0.0, 0.3, 0.1, 0.0)
        tgt = NominalTarget(np.array([1.0, 0.0, 0.0, 0.0]))  # mu = (k1, 0) = (1, 0)
        w0, a0 = nominal_control(st, tgt, self.GAIN, VEH, self.V_EPS)
        assert w0 == 0.0
        assert a0 == pytest.approx(1.0, abs=1e-12)

    def test_s_inverse_mapping(self):
        # beta=psi=0, v=2: S = [[0, 1], [2, 0]]; mu=(0.5, 0.3) -> (0.15, 0.5)
        st = VehicleState(0.0, 0.0, 0.0, 0.0, 2.0)
        tgt = NominalTarget(np.array([0.5, 0.3, 2.0, 0.0]))  # errors: (-0.5, -0.3)
        gain = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        w0, a0 = nominal_control(st, tgt, gain, VEH, self.V_EPS)
        assert (w0, a0) == pytest.approx((0.15, 0.5), abs=1e-12)


def test_saturate_omega():
    bar = math.pi / 2
    assert saturate_omega(0.1, bar) == 0.1
    assert saturate_omega(3.0, bar) == bar
    assert saturate_omega(-3.0, bar) == -bar


class TestCentralizedStep:
    def test_single_vehicle_on_target(self):
        cfg = make_config()
        st = VehicleState(0.0, 0.0, 0.0, 0.0, 5.0)
        res = centralized_step([st], [target_for(st)], cfg)
        assert res.feasible
        assert res.inputs[0].omega == pytest.approx(0.0, abs=1e-12)
        assert res.inputs[0].a == pytest.approx(0.0, abs=1e-9)

    def test_inactive_rows_clip_nominal(self):
        # far apart and speeding well past the reference: nominal clamps to a_bar
        cfg = make_config()
        sts = [VehicleState(0, 0, 0, 0, 5.0), VehicleState(500, 500, 0, 0, 5.0)]
        tgts = [target_for(s, speed=9.0) for s in sts]  # demand hard acceleration
        res = centralized_step(sts, tgts, cfg)
        assert res.feasible
        for u, a0 in zip(res.inputs, central_qp(sts, tgts, cfg).target):
            assert u.a == pytest.approx(min(max(a0, -cfg.a_bar), cfg.a_bar), abs=1e-9)

    def test_head_on_rows_hold_after_filtering(self):
        cfg = make_config("ff")
        a = VehicleState(-12.0, -1.3, 0.0, 0.0, 8.0)
        b = VehicleState(12.0, 1.3, math.pi, 0.0, 8.0)
        tgts = [target_for(a), target_for(b)]
        problem = central_qp([a, b], tgts, cfg)
        res = centralized_step([a, b], tgts, cfg)
        assert res.feasible
        u = np.array([inp.a for inp in res.inputs])
        for coeffs, lb in dense_rows(problem):
            assert np.dot(coeffs, u) >= lb - 1e-6 * (1.0 + abs(lb))

    def test_filter_minimality(self):
        # every row satisfied at the clamped nominal => exactly the clamped nominal
        cfg = make_config("rff")
        sts = [
            VehicleState(-30, -1.3, 0, 0, 6.0),
            VehicleState(40, 1.3, math.pi, 0, 6.0),
        ]
        tgts = [target_for(s) for s in sts]
        problem = central_qp(sts, tgts, cfg)
        clamped = np.clip(problem.target, -cfg.a_bar, cfg.a_bar)
        assert all(np.dot(c, clamped) >= lb for c, lb in dense_rows(problem))
        res = centralized_step(sts, tgts, cfg)
        for u, a0 in zip(res.inputs, clamped):
            assert u.a == pytest.approx(a0, abs=1e-8)

    @pytest.mark.parametrize("kind", ["zero", "ff", "rff"])
    def test_input_bounds(self, kind):
        cfg = make_config(kind)
        rng = np.random.default_rng(3)
        for _ in range(20):
            sts = [
                VehicleState(*rng.uniform(-20, 20, 2), rng.uniform(-math.pi, math.pi),
                             rng.uniform(-0.3, 0.3), rng.uniform(0, 10))
                for _ in range(3)
            ]
            tgts = [target_for(s, speed=rng.uniform(0, 12)) for s in sts]
            res = centralized_step(sts, tgts, cfg)
            for u in res.inputs:
                assert abs(u.a) <= cfg.a_bar + 1e-9
                assert abs(u.omega) <= cfg.omega_bar + 1e-12


def test_feasible_tick_makes_no_numpy_call(monkeypatch):
    """A feasible tick's vectors are plain floats from the reference to the
    QP answer: over seed-0 trial 0 of the centralized straight cell, neither
    the controller step nor a reference evaluation enters numpy."""
    prof = cProfile.Profile()

    def profiled(fn):
        def call(*args, **kwargs):
            prof.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                prof.disable()
        return call

    real_reference = scenario.World.reference
    monkeypatch.setattr(scenario, "centralized_step", profiled(scenario.centralized_step))
    monkeypatch.setattr(scenario.World, "reference",
                        lambda self, *args: profiled(real_reference(self, *args)))
    result = scenario.run_trial(scenario.default_config("rff", "centralized", "all_straight"), 0)
    assert result.always_feasible
    numpy_dir = os.path.dirname(np.__file__)
    entered = pstats.Stats(prof).stats
    assert any(name == "solve" for _, _, name in entered)  # the profile saw the ticks
    assert [f"{path}:{name}" for path, _, name in entered
            if path.startswith(numpy_dir) or "numpy" in name] == []


class TestDecentralizedStep:
    def test_no_neighbors_clamped_nominal(self):
        cfg = make_config(mode="decentralized")
        st = VehicleState(0, 0, 0, 0, 4.0)
        tgt = target_for(st, speed=12.0)  # nominal wants more than a_bar
        res = decentralized_step(0, [st], tgt, cfg)
        assert res.feasible
        assert res.inputs[0].a <= cfg.a_bar + 1e-9

    def test_stationary_all_rows_slack(self):
        cfg = make_config(mode="decentralized")
        ego = VehicleState(0, 0, 0, 0, 0.0)
        other = VehicleState(50, 50, 0, 0, 0.0)
        tgt = target_for(ego)
        res = decentralized_step(0, [ego, other], tgt, cfg)
        assert res.feasible
        assert res.inputs[0].a == pytest.approx(0.0, abs=1e-9)

    def _mirror_sim(self, kind="ff", steps=245, dt=0.01):
        cfg = make_config(kind, mode="decentralized")
        states = [
            VehicleState(-20.0, -1.3, 0.0, 0.0, 8.0),
            VehicleState(20.0, 1.3, math.pi, 0.0, 8.0),
        ]
        starts = list(states)
        history = []
        warm = [None, None]
        for n in range(steps):
            t = n * dt
            # reference marches along the lane from the initial pose
            tgts = [
                NominalTarget(np.array([
                    s0.x + math.cos(s0.psi) * s0.v * t,
                    s0.y + math.sin(s0.psi) * s0.v * t,
                    math.cos(s0.psi) * s0.v,
                    math.sin(s0.psi) * s0.v,
                ]))
                for s0 in starts
            ]
            inputs = []
            for i in range(2):
                res = decentralized_step(i, states, tgts[i], cfg, warm[i])
                assert res.feasible
                warm[i] = res.solution.active_set
                inputs.append(res.inputs[0])
            history.append((list(states), list(inputs)))
            states = [step(states[i], inputs[i], VEH, dt) for i in range(2)]
        return history

    def test_mirror_head_on_symmetric_and_safe(self):
        history = self._mirror_sim()
        for states, inputs in history:
            assert inputs[0].a == pytest.approx(inputs[1].a, abs=1e-6)
            assert inputs[0].omega == pytest.approx(inputs[1].omega, abs=1e-6)
            dist = math.hypot(states[0].x - states[1].x, states[0].y - states[1].y)
            assert dist >= 2 * FF.R - 1e-3

    def test_straight_motion_summed_rows(self):
        # both straight (psi = beta = 0): summing the two satisfied one-sided
        # rows bounds hdot by -2 alpha h up to the vanishing drift
        cfg = make_config("ff", mode="decentralized")
        states = [
            VehicleState(0.0, 0.0, 0.0, 0.0, 9.0),
            VehicleState(18.0, 2.6, 0.0, 0.0, 4.0),
        ]
        starts = list(states)
        dt = 0.01
        for n in range(300):
            t = n * dt
            tgts = [
                NominalTarget(np.array([s0.x + s0.v * t, s0.y, s0.v, 0.0]))
                for s0 in starts
            ]
            inputs = []
            rows = []
            for i in range(2):
                res = decentralized_step(i, states, tgts[i], cfg)
                assert res.feasible
                inputs.append(res.inputs[0])
                rows.append(pair_eval("ff", states[i], states[1 - i], res.inputs[0].omega, 0.0,
                                      cfg.alpha_gain, rff=cfg.rff))
            # each ego row holds, so their sum does too
            for i in range(2):
                assert rows[i].phi + rows[i].gamma_i * inputs[i].a >= -1e-6
            full = pair_eval("ff", states[0], states[1], inputs[0].omega, inputs[1].omega,
                             cfg.alpha_gain, rff=cfg.rff)
            hdot = (full.phi - cfg.alpha_gain * full.value
                    + full.gamma_i * inputs[0].a + full.gamma_j * inputs[1].a)
            assert hdot >= -2 * cfg.alpha_gain * full.value - 1e-4 * (1 + abs(full.value))
            states = [step(states[i], inputs[i], VEH, dt) for i in range(2)]
        assert h0(states[0], states[1], FF.R) > 0


class TestFallback:
    """An infeasible program brakes every free vehicle as hard as its speed
    row allows, at the pattern's nominal slip rate."""

    # two crawling vehicles 0.2 m apart, well inside 2R: no box input holds
    # their pair row, and at these speeds the speed rows bind before a_bar
    STATES = [VehicleState(0.0, 0.0, 0.0, 0.0, 0.1),
              VehicleState(0.2, 0.05, math.pi, 0.0, 0.15)]
    TARGETS = [NominalTarget([s.x + 1.0, s.y + 0.5, 1.0, 0.3]) for s in STATES]

    def braking(self, state, cfg):
        _, phi, gamma = h_speed(state, cfg.v_max, cfg.speed_alpha)
        assert gamma > 0.0
        return max(-cfg.a_bar, -phi / gamma)

    def assert_certified(self, res, free, omegas, target, cfg):
        """The step keeps the QP's infeasible verdict and its certificate."""
        assert not res.feasible and res.solution.status == "infeasible"
        assert res.solution.active_set
        problem = build_qp(self.STATES, tick_frame(self.STATES, cfg), free, omegas, target, cfg)
        assert res.solution.active_set == qp.solve(problem).active_set

    @pytest.mark.parametrize("kind", ["zero", "ff", "rff"])
    def test_centralized(self, kind):
        cfg = make_config(kind)
        res = centralized_step(self.STATES, self.TARGETS, cfg)
        omegas, accels = _nominals(self.STATES, self.TARGETS, cfg)
        self.assert_certified(res, range(2), omegas, accels, cfg)
        assert res.inputs == tuple(ControlInput(w, self.braking(st, cfg))
                                   for w, st in zip(omegas, self.STATES))
        assert all(-cfg.a_bar < u.a < 0.0 for u in res.inputs)

    @pytest.mark.parametrize("kind", ["zero", "ff", "rff"])
    def test_decentralized(self, kind):
        cfg = make_config(kind, mode="decentralized")
        for ego, (st, tgt) in enumerate(zip(self.STATES, self.TARGETS)):
            res = decentralized_step(ego, self.STATES, tgt, cfg)
            w0, a0 = nominal_control(st, tgt, cfg.lqr_gain, VEH, cfg.v_eps)
            omegas = [0.0, 0.0]
            omegas[ego] = saturate_omega(w0, cfg.omega_bar)
            self.assert_certified(res, (ego,), omegas, [a0], cfg)
            assert res.inputs == (ControlInput(saturate_omega(w0, cfg.omega_bar),
                                               self.braking(st, cfg)),)


class TestInformationPattern:
    """A decentralized ego's program is the all-free program restricted to the
    ego's column, and its pair rows are those of the ego-first pair."""

    KINDS = ["zero", "ff", "rff"]

    def draws(self, seed):
        """30 random 3- or 4-vehicle states."""
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = int(rng.integers(3, 5))
            yield rng, [VehicleState(*rng.uniform(-15, 15, 2), rng.uniform(-math.pi, math.pi),
                                     rng.uniform(-0.4, 0.4), rng.uniform(0, 10))
                        for _ in range(n)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_ego_rows_restrict_the_all_free_rows(self, kind):
        cfg = make_config(kind, mode="decentralized")
        for rng, states in self.draws(17):
            n = len(states)
            frame = tick_frame(states, cfg)
            for e in range(n):
                omegas = [0.0] * n
                omegas[e] = rng.uniform(-1, 1)
                ego = build_qp(states, frame, [e], omegas, [1.0], cfg)
                full = build_qp(states, frame, range(n), omegas, [1.0] * n, cfg)
                restricted = []
                for pairs, lb in full.rows:
                    mine = tuple((0, c) for v, c in pairs if v == e)
                    if mine:
                        restricted.append((mine, lb))
                assert ego.dim == 1 and ego.rows == tuple(restricted)

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_poses_the_ego_first_rows(self, kind, monkeypatch):
        cfg = make_config(kind, mode="decentralized")
        posed = []
        solve = qp.solve

        def recording_solve(problem, warm_start):
            posed.append(problem)
            return solve(problem, warm_start)

        monkeypatch.setattr(qp, "solve", recording_solve)
        for rng, states in self.draws(19):
            planar = [_vehicle_planar(st, VEH.lr) for st in states]
            for e, ego in enumerate(states):
                tgt = target_for(ego, speed=rng.uniform(0, 12))
                decentralized_step(e, states, tgt, cfg)
                w0, a0 = nominal_control(ego, tgt, cfg.lqr_gain, VEH, cfg.v_eps)
                w_e = saturate_omega(w0, cfg.omega_bar)
                _, phi, gam = h_speed(ego, cfg.v_max, cfg.speed_alpha)
                rows = [(((0, gam),), -phi)]
                for o in range(len(states)):
                    if o != e:  # the neighbour's input is held at zero
                        terms = constraint_row(kind, planar[e], planar[o], cfg.alpha_gain,
                                               cfg.rff, cfg.hocbf_gain, cfg.zero_margin)
                        phi, gamma_e, _ = pair_row(terms, planar[e], planar[o], w_e, 0.0)
                        rows.append((((0, gamma_e),), -phi))
                problem = posed.pop()
                assert problem.target == (a0,) and problem.rows == tuple(rows)
