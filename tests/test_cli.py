import json
import os
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from ffcbf.cli import (
    config_from_dict,
    config_to_dict,
    main,
    read_summary,
    read_trajectory_csv,
    summary_to_dict,
    write_summary,
    write_trajectory_csv,
)
from ffcbf.scenario import ScenarioConfig, ScenarioError, default_config, run_batch, run_trial


def small_config_file(tmp_path, **overrides):
    cfg = default_config(**overrides)
    data = config_to_dict(cfg)
    data["num_vehicles"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigDocuments:
    def test_round_trip(self):
        cfg = default_config(cbf_kind="ff", scenario="one_left_turn", seed=3)
        data = config_to_dict(cfg)
        again = config_to_dict(config_from_dict(data))
        assert data == again

    def test_unknown_key_rejected(self):
        data = config_to_dict(default_config())
        data["warp_drive"] = True
        with pytest.raises(ScenarioError):
            config_from_dict(data)

    def test_unknown_nested_key_rejected(self):
        data = config_to_dict(default_config())
        data["controller"]["magic"] = 1.0
        with pytest.raises(ScenarioError):
            config_from_dict(data)

    def test_bad_value_is_scenario_error(self):
        with pytest.raises(ScenarioError, match="invalid FfParams"):
            config_from_dict({"controller": {"rff": {"ff": {"k": 0.5}}}})
        with pytest.raises(ScenarioError, match="unknown cbf_kind"):
            config_from_dict({"controller": {"cbf_kind": "nope"}})
        for doc in ({"num_vehicles": 2.0}, {"seed": True}, {"dt": "0.01"},
                    {"controller": {"rff": {"ff": {"R": None}}}}):
            with pytest.raises(ScenarioError, match="must be a"):
                config_from_dict(doc)

    def test_partial_dict_uses_defaults(self):
        cfg = config_from_dict({"seed": 9, "d0": 11, "controller": {"cbf_kind": "zero"}})
        assert cfg.seed == 9
        assert cfg.d0 == 11.0 and type(cfg.d0) is float
        assert cfg.controller.cbf_kind == "zero"
        assert cfg.controller.rff.ff.tau_bar == 5.0

    # A valid value other than the default for every leaf field of the tree.
    # lane_width grows: 0.8 * 2.7 m would fall below 2R = 2.5 m
    OTHER = {"scenario": "one_left_turn", "cbf_kind": "zero", "mode": "decentralized",
             "num_vehicles": 3, "seed": 7, "max_resamples": 9, "lane_width": 3.0}

    @classmethod
    def leaves(cls, config, path=()):
        for f in fields(config):
            if not f.init:
                continue
            value = getattr(config, f.name)
            if is_dataclass(value):
                yield from cls.leaves(value, path + (f.name,))
            else:
                yield path + (f.name,), value

    @staticmethod
    def with_leaf(config, path, value):
        if len(path) == 1:
            return replace(config, **{path[0]: value})
        inner = TestConfigDocuments.with_leaf(getattr(config, path[0]), path[1:], value)
        return replace(config, **{path[0]: inner})

    def test_round_trip_every_leaf(self):
        base = ScenarioConfig()
        leaves = list(self.leaves(base))
        assert len(leaves) == 39
        for path, default in leaves:
            value = self.OTHER[path[-1]] if path[-1] in self.OTHER else 0.8 * default
            assert value != default, path
            cfg = self.with_leaf(base, path, value)
            data = json.loads(json.dumps(config_to_dict(cfg)))
            assert config_from_dict(data) == cfg != base, path

    def test_flat_form_rejected(self):
        for doc in ({"R": 1.25}, {"v_max": 10.0}, {"vehicle": {"lr": 1.0}},
                    {"barrier": {"k": 1000.0}}, {"controller": {"lqr_gain": [[1.0]]}}):
            with pytest.raises(ScenarioError, match="unknown"):
                config_from_dict(doc)


class TestCmdRun:
    def test_writes_summary_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        config = small_config_file(tmp_path)
        rc = main([
            "run", "--config", config, "--cbf", "rff", "--scenario", "straight",
            "--trials", "2", "--seed", "5", "--out", str(out), "--workers", "1",
        ])
        assert rc == 0
        summary = read_summary(out / "summary.json")
        assert summary["cbf"] == "rff"
        assert summary["n_trials"] == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["config", "finished", "n_trials", "outputs",
                                    "started", "version"]
        assert manifest["n_trials"] == 2
        cfg = config_from_dict(manifest["config"])
        assert cfg.seed == 5 and cfg.num_vehicles == 2
        assert cfg.controller.cbf_kind == "rff" and cfg.scenario == "all_straight"

    def test_missing_config_is_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"), "--trials", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"dt": ', '{"dt": 1' + "0" * 5000 + "}"],
                             ids=["truncated", "integer-too-long-to-parse"])
    def test_malformed_config_is_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = main(["run", "--config", str(path), "--trials", "1",
                   "--out", str(tmp_path / "o"), "--workers", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not valid JSON")
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, message", [
        ({"controller": {"rff": {"ff": {"k": 0.5}}}}, "invalid FfParams"),
        ({"controller": {"cbf_kind": "nope"}}, "unknown cbf_kind"),
        # each of these once crashed mid-trial with a ZeroDivisionError
        ({"scenario": "one_left_turn", "turn_speed": 0.0}, "turn_speed and ref_accel"),
        ({"scenario": "one_left_turn", "ref_accel": 0.0}, "turn_speed and ref_accel"),
        ({"controller": {"omega_v_ref": 0.0}}, "omega_v_ref must be positive"),
        ({"controller": {"beta_max": 1.6}}, "beta_max must lie in"),
        # each of these once ran, silently changing or breaking the trials
        ({"exit_lateral_tol": -0.1}, "exit_lateral_tol, stop_speed and deadlock_window"),
        ({"stop_speed": 0.0}, "exit_lateral_tol, stop_speed and deadlock_window"),
        ({"deadlock_window": -1}, "exit_lateral_tol, stop_speed and deadlock_window"),
        ({"max_resamples": -1}, "max_resamples must be nonnegative"),
        ({"controller": {"speed_alpha": 0.0}}, "speed_alpha, hocbf_gain and v_eps"),
        ({"controller": {"hocbf_gain": -2.1}}, "speed_alpha, hocbf_gain and v_eps"),
        ({"controller": {"v_eps": 0.0}}, "speed_alpha, hocbf_gain and v_eps"),
        ({"controller": {"zero_margin": -0.05}}, "zero_margin must be nonnegative"),
        # a config written before decentral_eps was deleted: an unknown key, not a traceback
        ({"controller": {"decentral_eps": 1e-9}}, "unknown config.controller keys: ['decentral_eps']"),
        # 1e400 reads as inf: each of these once crashed mid-trial in a row or the box
        ({"controller": {"a_bar": 1e400}}, "a_bar must be finite"),
        ({"controller": {"v_max": 1e400}}, "v_max must be finite"),
        ({"dt": 1e400}, "dt must be finite"),
        ({"controller": {"rff": {"ff": {"tau_bar": 1e400}}}}, "invalid FfParams"),
        ({"controller": {"rff": {"k0_scale": 1e400}}}, "invalid RffParams"),
        # this one ran, with psidot = 0 on every tick
        ({"controller": {"vehicle": {"lr": 1e400}}}, "lr must be positive and finite"),
        # an integer too large for a float once crashed with an OverflowError
        ({"dt": 10 ** 400}, "config.dt is too large for a float"),
        ({"controller": {"a_bar": 10 ** 400}}, "config.controller.a_bar is too large for a float"),
    ])
    def test_bad_config_value_is_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["run", "--config", str(path), "--trials", "1",
                   "--out", str(tmp_path / "o"), "--workers", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_zero_trials_is_error(self, tmp_path):
        config = small_config_file(tmp_path)
        rc = main(["run", "--config", config, "--trials", "0",
                   "--out", str(tmp_path / "o"), "--workers", "1"])
        assert rc == 2

    def test_manifest_reproduces_flags(self, tmp_path):
        out = tmp_path / "out"
        config = small_config_file(tmp_path)
        assert main(["run", "--config", config, "--cbf", "ff", "--trials", "3",
                     "--seed", "11", "--out", str(out), "--workers", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = config_from_dict(manifest["config"])
        summary, results = run_batch(cfg, manifest["n_trials"], workers=1)
        written = read_summary(out / "summary.json")
        assert written["success_rate"] == summary.success_rate
        assert written["feas_rate"] == summary.feas_rate
        assert written["deadlock_rate"] == summary.deadlock_rate
        assert written["unsafe_rate"] == summary.unsafe_rate


class TestCmdCompare:
    def test_paired_seeds_and_byte_identical(self, tmp_path):
        config = small_config_file(tmp_path)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            rc = main(["compare", "--config", config, "--scenario", "straight",
                       "--trials", "2", "--seed", "3", "--out", str(out),
                       "--workers", "1", "--log-trajectories", "none"])
            assert rc == 0
        for kind in ("zero", "ff", "rff"):
            assert (outs[0] / kind / "summary.json").exists()
        # paired trials: the kinds' configs differ only in the barrier kind
        configs = [
            json.loads((outs[0] / kind / "manifest.json").read_text())["config"]
            for kind in ("zero", "ff", "rff")
        ]
        for kind, config in zip(("zero", "ff", "rff"), configs):
            assert config["controller"].pop("cbf_kind") == kind
        assert configs[0] == configs[1] == configs[2]
        # two identical invocations produce byte-identical summaries
        assert (outs[0] / "compare.json").read_bytes() == (outs[1] / "compare.json").read_bytes()
        for kind in ("zero", "ff", "rff"):
            assert (outs[0] / kind / "summary.json").read_bytes() == \
                (outs[1] / kind / "summary.json").read_bytes()

    def test_compare_rejects_cbf_flag(self, tmp_path):
        config = small_config_file(tmp_path)
        rc = main(["compare", "--config", config, "--cbf", "rff", "--trials", "1",
                   "--out", str(tmp_path / "o"), "--workers", "1"])
        assert rc == 2


class TestTrajectoryFiles:
    def make_log(self, **overrides):
        cfg = default_config(num_vehicles=2, seed=1, **overrides)
        return run_trial(cfg, 0, log_trajectory=True).trajectory

    def test_csv_round_trip(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "trial.csv"
        write_trajectory_csv(str(path), log)
        back = read_trajectory_csv(str(path))
        assert back.pairs == log.pairs
        assert np.allclose(back.states, log.states, atol=1e-7, rtol=1e-7)
        assert np.array_equal(back.feasible, log.feasible)
        # rewriting the parsed log is byte-identical (9 significant digits)
        path2 = tmp_path / "again.csv"
        write_trajectory_csv(str(path2), back)
        assert path.read_bytes() == path2.read_bytes()

    def test_replay_columns(self, tmp_path):
        log = self.make_log()
        src = tmp_path / "trial.csv"
        write_trajectory_csv(str(src), log)
        dst = tmp_path / "replay.csv"
        assert main(["replay", "--trial-log", str(src), "--out", str(dst)]) == 0
        header = dst.read_text().splitlines()[0].split(",")
        n_vehicles = log.states.shape[1]
        n_pairs = len(log.pairs)
        assert len(header) == 1 + 6 * n_vehicles + 2 * n_pairs

    def test_replay_successful_rff_h0_nonnegative(self, tmp_path):
        log = self.make_log(cbf_kind="rff")
        src = tmp_path / "trial.csv"
        write_trajectory_csv(str(src), log)
        dst = tmp_path / "replay.csv"
        assert main(["replay", "--trial-log", str(src), "--out", str(dst)]) == 0
        rows = dst.read_text().splitlines()
        header = rows[0].split(",")
        h0_cols = [i for i, c in enumerate(header) if c.endswith("_h0")]
        for line in rows[1:]:
            vals = line.split(",")
            for c in h0_cols:
                assert float(vals[c]) >= 0.0

    @pytest.mark.parametrize("cut", ["header-only", "mid-row", "replay-output"])
    def test_replay_rejects_a_malformed_log(self, tmp_path, capsys, cut):
        src = tmp_path / "trial.csv"
        write_trajectory_csv(str(src), self.make_log())
        text = src.read_text()
        if cut == "header-only":
            src.write_text(text[:text.index("\n") + 1])
        elif cut == "mid-row":  # a file cut off inside its last row
            src.write_text(text[:text.rindex(",", 0, len(text) - 1) - 3])
        else:  # plot columns, not a trial log
            assert main(["replay", "--trial-log", str(src), "--out", str(tmp_path / "p.csv")]) == 0
            src = tmp_path / "p.csv"
        capsys.readouterr()
        rc = main(["replay", "--trial-log", str(src), "--out", str(tmp_path / "r.csv")])
        assert rc == 2 and capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r.csv").exists()

    def test_replay_missing_log(self, tmp_path):
        rc = main(["replay", "--trial-log", str(tmp_path / "gone.csv"),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 2


class TestSummaryDocument:
    def test_writer_reader_round_trip_bytes(self, tmp_path):
        cfg = default_config(num_vehicles=2, seed=4)
        summary, _ = run_batch(cfg, 2, workers=1)
        p1 = tmp_path / "s1.json"
        p2 = tmp_path / "s2.json"
        write_summary(str(p1), summary, "rff")
        data = read_summary(str(p1))
        # reader -> writer round trip is byte identical
        from ffcbf.cli import _canonical_json
        p2.write_text(_canonical_json(data))
        assert p1.read_bytes() == p2.read_bytes()
        assert data == summary_to_dict(summary, "rff")
