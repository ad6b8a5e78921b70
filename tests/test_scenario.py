import math
import os
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ffcbf import qp
from ffcbf.barriers import FfParams, RffParams, h0, h_ff, h_rff
from ffcbf.controllers import (
    ControllerConfig, NominalTarget, _nominals, build_qp, lqr_gain, tick_frame,
)
from ffcbf.dynamics import VehicleState, planar_velocity
from ffcbf.scenario import (
    BatchSummary,
    ScenarioConfig,
    ScenarioError,
    World,
    check_assumption1,
    default_config,
    randomize_initial,
    resolve_workers,
    run_batch,
    run_trial,
    trial_rng,
    _StopClock,
)


class TestWorldGeometry:
    def test_parallel_lanes_separated_by_lane_width(self):
        cfg = default_config()
        world = World(cfg)
        # lanes 0/1 run along y, lanes 2/3 along x; opposing pairs sit one
        # lane width apart and crossing pairs meet only inside the box
        x0 = world.lanes[0].entry[0]
        x1 = world.lanes[1].entry[0]
        assert abs(x0 - x1) == pytest.approx(cfg.lane_width)
        y2 = world.lanes[2].entry[1]
        y3 = world.lanes[3].entry[1]
        assert abs(y2 - y3) == pytest.approx(cfg.lane_width)
        for i in (0, 1):
            for j in (2, 3):
                cross = (world.lanes[i].entry[0], world.lanes[j].entry[1])
                assert max(abs(cross[0]), abs(cross[1])) <= cfg.box_half

    def test_straight_reference_marches_along_lane(self):
        cfg = default_config()
        world = World(cfg)
        ref = world.reference(0, 12.0, 6.0)
        q0 = np.asarray(ref(0.0).q_star)
        q2 = np.asarray(ref(2.0).q_star)
        d = np.asarray(world.lanes[0].direction)
        assert np.allclose(q2[:2] - q0[:2], 12.0 * d)
        assert np.allclose(q0[2:], 6.0 * d)

    def test_left_turn_reference_rotates_quarter_turn(self):
        cfg = default_config(scenario="one_left_turn", turn_speed=3.0)
        world = World(cfg)
        ref = world.reference(0, 10.0, 3.0)  # s_i == turn speed: no ramps
        arc_len = world.turn_radius * math.pi / 2
        t_entry = 10.0 / 3.0
        t_exit = (10.0 + arc_len) / 3.0
        v_in = ref(t_entry - 0.01).q_star[2:]
        v_out = ref(t_exit + 0.01).q_star[2:]
        ang_in = math.atan2(v_in[1], v_in[0])
        ang_out = math.atan2(v_out[1], v_out[0])
        delta = (ang_out - ang_in + math.pi) % (2 * math.pi) - math.pi
        assert delta == pytest.approx(math.pi / 2, abs=0.05)

    def test_turn_reference_speed_continuous(self):
        cfg = default_config(scenario="one_left_turn")
        world = World(cfg)
        ref = world.reference(0, 12.0, 8.0)  # fast approach: ramps engage
        speeds = [float(np.hypot(*ref(t).q_star[2:])) for t in np.arange(0, 12, 0.01)]
        jumps = np.abs(np.diff(speeds))
        assert np.max(jumps) < cfg.ref_accel * 0.011

    def test_exit_predicates(self):
        cfg = default_config()
        world = World(cfg)
        lane = world.lanes[0]
        inside = VehicleState(lane.entry[0], 0.0, lane.psi, 0.0, 5.0)
        past = VehicleState(lane.entry[0], cfg.box_half + 0.1, lane.psi, 0.0, 5.0)
        off_lane = VehicleState(lane.entry[0] + 1.0, cfg.box_half + 0.1, lane.psi, 0.0, 5.0)
        assert not world.is_exited(0, inside)
        assert world.is_exited(0, past)
        assert not world.is_exited(0, off_lane)

    def test_num_vehicles_validation(self):
        with pytest.raises(ScenarioError):
            default_config(num_vehicles=5)


def lane_arrays(lane):
    """(entry, direction, left normal) of a lane as arrays."""
    entry, direction = np.asarray(lane.entry), np.asarray(lane.direction)
    return entry, direction, np.array([-direction[1], direction[0]])


class TestFloatGeometryBits:
    """References and exit checks in floats equal their array forms bit for bit."""

    @staticmethod
    def turn_array_form(world, lane, d_i, speed, t):
        ref = world.reference(0, d_i, speed)
        sigma, spd = ref._profile(t)
        radius = world.turn_radius
        entry, direction, normal = lane_arrays(lane)
        start = entry - direction * d_i
        center = entry + normal * radius
        theta0 = math.atan2(entry[1] - center[1], entry[0] - center[0])
        arc_len = radius * math.pi / 2.0
        exit_dir = np.array([-direction[1], direction[0]])
        rel = entry - center
        exit_point = center + np.array([-rel[1], rel[0]])
        if sigma <= d_i:
            p, tan = start + direction * sigma, direction
        elif sigma <= d_i + arc_len:
            theta = theta0 + (sigma - d_i) / radius
            c, s = math.cos(theta), math.sin(theta)
            p, tan = center + radius * np.array([c, s]), np.array([-s, c])
        else:
            p, tan = exit_point + exit_dir * (sigma - d_i - arc_len), exit_dir
        return np.array([p[0], p[1], tan[0] * spd, tan[1] * spd])

    def test_references(self):
        world = World(default_config(scenario="one_left_turn"))
        for index, lane in enumerate(world.lanes):
            for d_i, speed in ((9.3, 6.1), (14.0, 3.2)):
                ref = world.reference(index, d_i, speed)
                entry, direction, _ = lane_arrays(lane)
                start = entry - direction * d_i
                for t in np.linspace(0.0, 8.0, 161).tolist():
                    got = np.asarray(ref(t).q_star)
                    if index == world.turn_vehicle:
                        want = self.turn_array_form(world, lane, d_i, speed, t)
                    else:
                        p = start + direction * (speed * t)
                        v = direction * speed
                        want = np.array([p[0], p[1], v[0], v[1]])
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_exit_checks(self):
        world = World(default_config(scenario="one_left_turn"))
        rng = np.random.default_rng(2)
        for index, lane in enumerate(world.lanes):
            entry, direction, normal = lane_arrays(lane)
            if index == world.turn_vehicle:
                center = entry + normal * world.turn_radius
                rel = entry - center
                want_frame = (center + np.array([-rel[1], rel[0]]),
                              np.array([-direction[1], direction[0]]))
            else:
                want_frame = (entry + direction * (2.0 * world.config.box_half), direction)
            point, direction = lane.exit_point, lane.exit_dir
            for got, want in zip((point, direction), want_frame):
                assert np.asarray(got).tobytes() == want.tobytes()
            for x, y in rng.uniform(-12, 12, (200, 2)):
                p = np.array([x, y]) - point
                along = p[0] * direction[0] + p[1] * direction[1]
                lateral = abs(-p[0] * direction[1] + p[1] * direction[0])
                want = along >= 0.0 and lateral <= world.config.exit_lateral_tol
                assert world.is_exited(index, VehicleState(x, y, 0.0, 0.0, 1.0)) == want


class TestRandomizeInitial:
    def test_degenerate_uniform(self):
        cfg = default_config(delta_d=0.0, delta_s=0.0)
        states = randomize_initial(cfg, trial_rng(cfg, 0))
        world = World(cfg)
        for i, st in enumerate(states):
            lane = world.lanes[i]
            d = float((lane.entry[0] - st.x) * lane.direction[0]
                      + (lane.entry[1] - st.y) * lane.direction[1])
            assert d == pytest.approx(cfg.d0, abs=1e-12)
            assert st.v == pytest.approx(cfg.s0, abs=1e-12)
            assert st.psi == lane.psi and st.beta == 0.0

    def test_deterministic_per_seed_and_trial(self):
        cfg = default_config(seed=5)
        a = randomize_initial(cfg, trial_rng(cfg, 3))
        b = randomize_initial(cfg, trial_rng(cfg, 3))
        c = randomize_initial(cfg, trial_rng(cfg, 4))
        assert a == b
        assert a != c

    def test_distance_draw_statistics(self):
        cfg = default_config(seed=11)
        world = World(cfg)
        lane = world.lanes[0]
        draws = []
        for trial in range(2500):
            st = randomize_initial(cfg, trial_rng(cfg, trial))[0]
            draws.append(float((lane.entry[0] - st.x) * lane.direction[0]
                               + (lane.entry[1] - st.y) * lane.direction[1]))
        draws = np.array(draws)
        assert abs(draws.mean() - cfg.d0) < 0.15
        assert draws.min() >= cfg.d0 - cfg.delta_d
        assert draws.max() <= cfg.d0 + cfg.delta_d


class TestAssumptionScreen:
    def test_stationary_far_accept(self):
        a = VehicleState(0, 0, 0, 0, 0)
        b = VehicleState(10, 0, 0, 0, 0)
        assert check_assumption1([a, b], 5.0, 2.5)

    def test_head_on_collision_course_reject(self):
        # 20 m gap closing at 8 m/s with 2R = 5: contact predicted at 2.5 s
        a = VehicleState(0, 0, 0, 0, 4)
        b = VehicleState(20, 0, math.pi, 0, 4)
        assert not check_assumption1([a, b], 5.0, 2.5)

    def test_receding_accept(self):
        a = VehicleState(0, 0, math.pi, 0, 4)
        b = VehicleState(10, 0, 0, 0, 4)
        assert check_assumption1([a, b], 5.0, 2.5)


class TestDetectDeadlock:
    """The deadlock rule of run_trial: _StopClock fed, once per sample, whether
    every vehicle that has not exited is slower than stop_speed."""

    def make(self, n, speed=0.0, vehicles=2):
        return np.full((n, vehicles), speed), np.zeros((n, vehicles), dtype=bool)

    @staticmethod
    def deadlock(speeds, exited, dt, stop_speed=0.01, window=3.0):
        clock = _StopClock(dt, window)
        for v_row, e_row in zip(speeds.tolist(), exited.tolist()):
            if all(e_row):  # run_trial ends the trial as a success first
                return False
            if clock.tick(all(e or v < stop_speed for v, e in zip(v_row, e_row))):
                return True
        return False

    def test_exactly_window_true(self):
        speeds, exited = self.make(301)
        assert self.deadlock(speeds, exited, dt=0.01, window=3.0)
        assert not self.deadlock(speeds[:300], exited[:300], dt=0.01, window=3.0)

    def test_short_stop_then_go_false(self):
        speeds, exited = self.make(292)
        speeds[-1, 0] = 2.0  # one vehicle accelerates after 2.9 s stopped
        assert not self.deadlock(speeds, exited, dt=0.01, window=3.0)

    def test_crawling_above_threshold_false(self):
        speeds, exited = self.make(1000, speed=0.5)
        assert not self.deadlock(speeds, exited, dt=0.01, stop_speed=0.01, window=3.0)

    def test_exited_vehicles_ignored(self):
        speeds, exited = self.make(301, speed=5.0)
        speeds[:, 0] = 0.0
        exited[:, 1] = True
        assert self.deadlock(speeds, exited, dt=0.01, window=3.0)

    def test_all_exited_is_not_deadlock(self):
        speeds, exited = self.make(301)
        exited[:] = True
        assert not self.deadlock(speeds, exited, dt=0.01, window=3.0)


class TestRunTrial:
    def test_single_vehicle_straight(self):
        cfg = default_config(num_vehicles=1, delta_d=0.0, delta_s=0.0)
        r = run_trial(cfg, 0)
        assert r.success and not r.deadlock and not r.unsafe and not r.timeout
        assert r.always_feasible
        assert r.min_h0 == math.inf
        expected = (cfg.d0 + 2 * cfg.box_half) / cfg.s0
        assert r.completion_time == pytest.approx(expected, abs=0.05)

    def test_rff_default_trial_succeeds_safely(self):
        cfg = default_config(cbf_kind="rff", seed=42)
        r = run_trial(cfg, 0)
        assert r.success and not r.unsafe and r.always_feasible

    def test_deterministic(self):
        cfg = default_config(cbf_kind="ff", seed=9)
        a = run_trial(cfg, 2)
        b = run_trial(cfg, 2)
        assert a.flags() == b.flags()
        assert a.min_h0 == b.min_h0
        assert a.completion_time == b.completion_time

    def test_trajectory_log_shape(self):
        cfg = default_config(num_vehicles=2, seed=1)
        r = run_trial(cfg, 0, log_trajectory=True)
        log = r.trajectory
        assert log is not None
        n = log.t.shape[0]
        assert log.states.shape == (n, 2, 5)
        assert log.inputs.shape == (n, 2, 2)
        assert log.pairs == ((0, 1),)
        assert log.barrier.shape == (n, 1) and log.h0.shape == (n, 1)
        assert r.min_h0 == pytest.approx(float(log.h0.min()), abs=1e-12)

    def test_symmetric_arrival_rejected_until_abort(self):
        # degenerate sampling puts all four on a collision course every draw
        cfg = default_config(delta_d=0.0, delta_s=0.0, max_resamples=3)
        with pytest.raises(ScenarioError):
            run_trial(cfg, 0)

    def test_unsafe_iff_min_h0_negative(self):
        cfg = default_config(cbf_kind="zero", seed=3)
        for idx in range(5):
            r = run_trial(cfg, idx)
            assert r.unsafe == (r.min_h0 < 0.0)
            # every trial ends one way, and only a success has a completion time
            assert [r.success, r.deadlock, r.timeout].count(True) == 1
            assert r.success == (r.completion_time is not None)

    @pytest.mark.parametrize("mode", ["centralized", "decentralized"])
    def test_certificate_never_warm_starts(self, mode, monkeypatch):
        # seed-0 left-turn ff trial 0 has infeasible ticks in either mode
        cfg = default_config("ff", mode, "one_left_turn")
        calls = []
        solve = qp.solve

        def recording_solve(problem, warm_start=None):
            sol = solve(problem, warm_start)
            calls.append((warm_start, sol))
            return sol

        monkeypatch.setattr(qp, "solve", recording_solve)
        run_trial(cfg, 0)
        # one program per tick, or one per ego in ego order
        programs = 1 if mode == "centralized" else cfg.num_vehicles
        assert calls and len(calls) % programs == 0
        assert any(sol.status == "infeasible" for _, sol in calls)
        for (_, prev), (warm, _) in zip(calls, calls[programs:]):
            if prev.status == "optimal":
                assert warm == prev.active_set
            else:
                assert warm is None


class TestSafetyRadius:
    """FfParams.R is the one radius: the rows enforce it and run_trial scores it."""

    R = 1.3  # 2R = 2.6 m still clears the 2.7 m gap of opposing lanes

    def configs(self):
        wide = ControllerConfig(cbf_kind="ff", rff=RffParams(ff=FfParams(R=self.R)))
        return default_config("ff"), ScenarioConfig(controller=wide)

    def test_radius_moves_the_rows(self):
        base, wide = self.configs()
        states = randomize_initial(base, trial_rng(base, 0))
        targets = [NominalTarget(np.array([s.x, s.y, *planar_velocity(s)])) for s in states]
        n = base.num_vehicles
        rows = []
        for cfg in (base, wide):
            c = cfg.controller
            omegas, accels = _nominals(states, targets, c)
            rows.append(build_qp(states, tick_frame(states, c), range(n), omegas, accels, c).rows)
        shift = base.controller.alpha_gain * 4.0 * (self.R ** 2 - 1.25 ** 2)
        assert rows[1][:n] == rows[0][:n]  # speed rows
        for (c0, lb0), (c1, lb1) in zip(rows[0][n:], rows[1][n:]):
            assert np.array_equal(c0, c1)
            assert lb1 - lb0 == pytest.approx(shift, rel=1e-9)

    def test_radius_moves_min_h0_and_unsafe(self):
        base, wide = self.configs()
        near = run_trial(base, 0)
        r = run_trial(wide, 0, log_trajectory=True)
        # the default run passes closer than 2R; the wide rows hold 2R
        assert near.min_h0 + 4.0 * 1.25 ** 2 < 4.0 * self.R ** 2
        assert r.success and not r.unsafe
        assert 0.0 <= r.min_h0 < 0.01
        xy = r.trajectory.states[:, :, :2]
        d2 = [((xy[:, i] - xy[:, j]) ** 2).sum(axis=1) for i, j in r.trajectory.pairs]
        h0_log = np.stack(d2, axis=1) - 4.0 * self.R ** 2
        assert np.allclose(r.trajectory.h0, h0_log, atol=1e-9)
        assert r.min_h0 == r.trajectory.h0.min()

    def test_radius_too_wide_for_opposing_lanes(self):
        # 2R = 3.2 m > lane_width = 2.7 m: opposing vehicles cannot pass
        wide = ControllerConfig(rff=RffParams(ff=FfParams(R=1.6)))
        with pytest.raises(ScenarioError, match="lane_width"):
            ScenarioConfig(controller=wide)
        with pytest.raises(ScenarioError, match="lane_width"):
            ScenarioConfig(controller=ControllerConfig(rff=RffParams(ff=FfParams(R=1.35))))
        ScenarioConfig(controller=wide, lane_width=3.3)


class TestRunBatch:
    def test_single_trial_rates(self):
        cfg = default_config(seed=2)
        summary, results = run_batch(cfg, 1, workers=1)
        assert summary.n_trials == 1
        for rate in (summary.success_rate, summary.feas_rate,
                     summary.deadlock_rate, summary.unsafe_rate):
            assert rate in (0.0, 1.0)
        if summary.success_rate == 1.0:
            assert summary.avg_time == results[0].completion_time

    def test_batch_deterministic(self):
        cfg = default_config(cbf_kind="rff", seed=8)
        a, _ = run_batch(cfg, 5, workers=1)
        b, _ = run_batch(cfg, 5, workers=1)
        assert a == b

    def test_log_policy_failures_drops_clean_trials(self):
        cfg = default_config(cbf_kind="rff", seed=8)
        _, results = run_batch(cfg, 3, workers=1, log_policy="failures")
        for r in results:
            if r.success and r.always_feasible and not r.unsafe:
                assert r.trajectory is None

    def test_worker_count_from_the_argument_or_the_cores(self, monkeypatch):
        # no environment variable sets the pool size
        monkeypatch.setenv("FFCBF_THREADS", "two")
        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3 and resolve_workers(0) == 1

    def test_invalid_args(self):
        cfg = default_config()
        with pytest.raises(ScenarioError):
            run_batch(cfg, 0)
        with pytest.raises(ScenarioError):
            run_batch(cfg, 1, log_policy="sometimes")


# Seed-0 centralized outcomes of trials 0-2 in every cell, as the dual
# active-set QP solver of ffcbf.qp produces them: (flags that hold, completion
# time, min_h0).  Flags and completion times must match exactly.  min_h0 may move by
# 1e-5 m^2: a last-bit change in one QP solution (another summation order)
# can grow through the closed loop, while the flags have held on every trial
# compared.
SEED0_OUTCOMES = {
    ("all_straight", "zero"): [
        (("success", "always_feasible"), 7.649999999999881, 1.0400627963613749),
        (("success", "always_feasible"), 7.449999999999886, 1.0400727496818316),
        (("success", "always_feasible"), 5.9999999999999165, 1.0401487817044925),
    ],
    ("all_straight", "ff"): [
        (("success", "always_feasible"), 6.699999999999902, 0.00035317184276628666),
        (("success", "always_feasible"), 6.7599999999999, 1.0412873749884728),
        (("success", "always_feasible"), 3.7699999999999636, 1.0405066921768542),
    ],
    ("all_straight", "rff"): [
        (("success", "always_feasible"), 6.709999999999901, 0.00023086828006224636),
        (("success", "always_feasible"), 6.7599999999999, 1.040697322766186),
        (("success", "always_feasible"), 3.7699999999999636, 1.040008108070639),
    ],
    ("one_left_turn", "zero"): [
        (("always_feasible", "deadlock"), None, 0.25251879404925237),
        (("always_feasible", "deadlock"), None, 0.25258457537401124),
        (("success", "always_feasible"), 7.129999999999892, 1.0364395398323056),
    ],
    ("one_left_turn", "ff"): [
        (("success",), 7.2199999999998905, 7.684219550441185e-06),
        (("success", "always_feasible"), 6.7599999999999, 1.0412873749884728),
        (("success", "always_feasible"), 4.839999999999941, 1.0405066921768542),
    ],
    ("one_left_turn", "rff"): [
        (("success", "always_feasible"), 6.709999999999901, 0.00023274781058812977),
        (("success", "always_feasible"), 6.7599999999999, 1.04040105875377),
        (("success", "always_feasible"), 4.839999999999941, 1.040008108070639),
    ],
}


# Seed-0 decentralized outcomes of trials 0-1 in every cell, in the same
# form.  They cover success, deadlock, timeout and unsafe.
DECENTRAL_SEED0_OUTCOMES = {
    ("all_straight", "zero"): [
        (("success",), 7.849999999999877, 1.039947267676153),
        (("deadlock",), None, 0.064387443916476),
    ],
    ("all_straight", "ff"): [
        (("always_feasible", "timeout"), None, 0.3049137484539326),
        (("success", "always_feasible"), 6.7599999999999, 1.0412873749884728),
    ],
    ("all_straight", "rff"): [
        (("success", "always_feasible"), 6.659999999999902, 3.0280022199846712e-05),
        (("success", "always_feasible"), 6.7599999999999, 1.0409270203071532),
    ],
    ("one_left_turn", "zero"): [
        (("deadlock",), None, 0.2525068967750048),
        (("deadlock", "unsafe"), None, -0.031474320832286296),
    ],
    ("one_left_turn", "ff"): [
        (("success", "unsafe"), 7.419999999999886, -0.0003347058677256598),
        (("success", "always_feasible"), 6.7599999999999, 1.0412873749884728),
    ],
    ("one_left_turn", "rff"): [
        (("success", "always_feasible"), 6.659999999999902, 1.9459454362547035e-05),
        (("success", "always_feasible"), 6.7599999999999, 1.0412873749884728),
    ],
}


def check_outcomes(mode, scenario, kind, outcomes):
    cfg = default_config(kind, mode, scenario, seed=0)
    for index, (flags, completion, min_h0) in enumerate(outcomes):
        r = run_trial(cfg, index)
        assert tuple(k for k, v in r.flags().items() if v) == flags, index
        assert r.completion_time == completion, index
        assert r.min_h0 == pytest.approx(min_h0, abs=1e-5), index


class TestSeed0Outcomes:
    @pytest.mark.parametrize("scenario, kind", sorted(SEED0_OUTCOMES))
    def test_flags_times_and_min_h0(self, scenario, kind):
        check_outcomes("centralized", scenario, kind, SEED0_OUTCOMES[scenario, kind])

    @pytest.mark.parametrize("scenario, kind", sorted(DECENTRAL_SEED0_OUTCOMES))
    def test_decentralized_flags_times_and_min_h0(self, scenario, kind):
        check_outcomes("decentralized", scenario, kind, DECENTRAL_SEED0_OUTCOMES[scenario, kind])


class TestTickFrameMatchesReferences:
    """run_trial reads each tick's h0 and barrier values from the controller
    step's TickFrame; they equal the reference formulas of the logged states
    bit for bit."""

    @pytest.mark.parametrize("mode", ["centralized", "decentralized"])
    @pytest.mark.parametrize("kind", ["zero", "ff", "rff"])
    def test_logged_values(self, kind, mode):
        cfg = default_config(kind, mode, "one_left_turn", seed=0, t_max=1.0)
        r = run_trial(cfg, 0, log_trajectory=True)
        log = r.trajectory
        rff = cfg.controller.rff
        reference = {
            "zero": lambda a, b: h0(a, b, rff.ff.R),
            "ff": lambda a, b: h_ff(a, b, rff.ff),
            "rff": lambda a, b: h_rff(a, b, rff),
        }[kind]
        assert log.t.shape == (100,) and log.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        for states, barrier, h0_row in zip(log.states.tolist(), log.barrier.tolist(),
                                           log.h0.tolist()):
            states = [VehicleState(*z) for z in states]
            assert h0_row == [h0(states[i], states[j], rff.ff.R) for i, j in log.pairs]
            assert barrier == [reference(states[i], states[j]) for i, j in log.pairs]
        assert r.initial_barrier_min == min(log.barrier[0].tolist())


class TestConfigValidation:
    def test_bad_scenario(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig(scenario="roundabout")

    def test_distance_band(self):
        with pytest.raises(ScenarioError):
            default_config(d0=4.0, delta_d=5.0)

    def test_negative_seed(self):
        with pytest.raises(ScenarioError):
            default_config(seed=-1)

    def test_config_is_frozen(self):
        # a changed field would skip both validation and the cached gain
        cfg = default_config()
        assert cfg.controller.lqr_gain == lqr_gain(16.0, 8.0, 1.0)
        for owner, name, value in ((cfg, "seed", 1), (cfg.controller, "lqr_r", 4.0),
                                   (cfg.controller, "speed_alpha", -5.0)):
            with pytest.raises(FrozenInstanceError):
                setattr(owner, name, value)
        assert replace(cfg.controller, lqr_r=4.0).lqr_gain == lqr_gain(16.0, 8.0, 4.0)

    @pytest.mark.parametrize("kw", [
        dict(turn_speed=0.0), dict(turn_speed=-3.0), dict(ref_accel=0.0), dict(ref_accel=-6.0),
    ])
    def test_reference_speeds_positive(self, kw):
        with pytest.raises(ScenarioError, match="turn_speed and ref_accel"):
            default_config(scenario="one_left_turn", **kw)

    @pytest.mark.parametrize("kw, message", [
        (dict(omega_v_ref=0.0), "omega_v_ref"),
        (dict(omega_v_ref=-2.0), "omega_v_ref"),
        (dict(beta_max=0.0), "beta_max"),
        (dict(beta_max=math.pi / 2), "beta_max"),
        (dict(beta_max=2.0), "beta_max"),
    ])
    def test_slip_shaping_in_range(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(controller=ControllerConfig(**kw))

    @pytest.mark.parametrize("kw, message", [
        (dict(exit_lateral_tol=0.0), "exit_lateral_tol"),
        (dict(exit_lateral_tol=-0.1), "exit_lateral_tol"),
        (dict(stop_speed=0.0), "stop_speed"),
        (dict(stop_speed=-0.01), "stop_speed"),
        (dict(deadlock_window=0.0), "deadlock_window"),
        (dict(deadlock_window=-1.0), "deadlock_window"),
        (dict(exit_lateral_tol=float("nan")), "exit_lateral_tol"),
        (dict(max_resamples=-1), "max_resamples"),
    ])
    def test_trial_bookkeeping_in_range(self, kw, message):
        with pytest.raises(ScenarioError, match=message):
            default_config(**kw)

    @pytest.mark.parametrize("kw, message", [
        (dict(speed_alpha=0.0), "speed_alpha"),
        (dict(speed_alpha=-30.0), "speed_alpha"),
        (dict(hocbf_gain=0.0), "hocbf_gain"),
        (dict(hocbf_gain=-2.1), "hocbf_gain"),
        (dict(v_eps=0.0), "v_eps"),
        (dict(v_eps=-1e-3), "v_eps"),
        (dict(zero_margin=-0.05), "zero_margin"),
        (dict(zero_margin=-1e-9), "zero_margin"),
        (dict(zero_margin=float("nan")), "zero_margin"),
    ])
    def test_filter_gains_in_range(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ControllerConfig(**kw)

    def test_boundary_values_accepted(self):
        # zero is a valid pad; the smallest positive values pass
        cfg = default_config(max_resamples=0, exit_lateral_tol=1e-9, stop_speed=1e-9,
                             deadlock_window=1e-9)
        assert cfg.max_resamples == 0
        ControllerConfig(zero_margin=0.0, v_eps=1e-12)
