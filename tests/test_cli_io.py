import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from sphereflock import (ConfigError, SimConfig, check_initial, paper_scenario,
                         random_scenario, simulate)
from sphereflock.cli import main
from sphereflock.config import RunConfig, ScenarioSpec, emit_config, fmt_float, parse_config
from sphereflock.dynamics import ModelParams
from sphereflock.kernels import paper_kernel
from sphereflock.diagnostics import FRAME_FIELDS
from sphereflock.output import CSV_COLUMNS, read_frames_csv, write_frames_csv
from sphereflock.scenarios import (BENCHMARK_POSITIONS, PRESETS, build_scenario,
                                   preset_config)


class TestPaperScenario:
    def test_six_agents(self):
        assert paper_scenario(1.0).ensemble.n == 6

    def test_fourth_position_as_printed(self):
        assert_allclose(BENCHMARK_POSITIONS[3], [-0.4472, 0.0, 0.8944], atol=0)

    def test_construction_contract(self):
        sc = paper_scenario(1.0)
        radial = np.abs(np.linalg.norm(sc.ensemble.positions, axis=1) - 1.0).max()
        tangency = np.abs((sc.ensemble.positions * sc.ensemble.velocities).sum(axis=1)).max()
        assert radial <= 1e-9
        assert tangency <= 1e-8
        # 4-decimal inputs are off by ~1e-4; the adjustments record that
        assert 0.0 < sc.position_adjustment < 1e-3
        assert 0.0 < sc.velocity_adjustment < 1e-3

    def test_preset_names(self):
        assert build_scenario(preset_config("paper-sigma1")).params.sigma == 1.0
        assert build_scenario(preset_config("paper-sigma5")).params.sigma == 5.0
        with pytest.raises(ConfigError, match="paper-sigma1, paper-sigma5"):
            preset_config("nope")
        # every path to a preset's state goes through the one builder
        for name in PRESETS:
            cfg = preset_config(name)
            built = (build_scenario(cfg), paper_scenario(cfg.sigma),
                     build_scenario(parse_config(emit_config(cfg))))
            for sc in built:
                assert np.array_equal(sc.ensemble.positions, built[0].ensemble.positions)
                assert np.array_equal(sc.ensemble.velocities, built[0].ensemble.velocities)
                assert (sc.label, sc.params.sigma) == (name, cfg.sigma)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_rejects_non_positive_sigma(self, sigma):
        with pytest.raises(ConfigError, match="sigma must be positive"):
            paper_scenario(sigma)


class TestRandomScenario:
    def test_coincident_rest_cluster_is_admissible(self):
        for sigma in (0.5, 1.0, 5.0):
            p = ModelParams(paper_kernel(), sigma)
            sc = random_scenario(0, 6, 0.0, 0.0, p)
            assert check_initial(sc.ensemble, p).admissible

    def test_seed_reproducibility(self):
        p = ModelParams(paper_kernel(), 1.0)
        a = random_scenario(7, 5, np.pi / 16, 0.1, p)
        b = random_scenario(7, 5, np.pi / 16, 0.1, p)
        assert np.array_equal(a.ensemble.positions, b.ensemble.positions)
        assert np.array_equal(a.ensemble.velocities, b.ensemble.velocities)
        c = random_scenario(8, 5, np.pi / 16, 0.1, p)
        assert not np.array_equal(a.ensemble.positions, c.ensemble.positions)

    def test_cap_containment_and_tangency(self):
        p = ModelParams(paper_kernel(), 1.0)
        spread = np.pi / 16
        for seed in range(5):
            sc = random_scenario(seed, 8, spread, 0.05, p)
            X, V = sc.ensemble.positions, sc.ensemble.velocities
            # any two points in a cap of geodesic radius r are within 2r
            dots = np.clip(X @ X.T, -1.0, 1.0)
            assert np.arccos(dots).max() <= 2.0 * spread + 1e-9
            assert np.abs((X * V).sum(axis=1)).max() <= 1e-14

    def test_rejects_bad_arguments(self):
        p = ModelParams(paper_kernel(), 1.0)
        with pytest.raises(ConfigError):
            random_scenario(0, 0, 0.1, 0.1, p)
        with pytest.raises(ConfigError):
            random_scenario(0, 3, 3.0, 0.1, p)

    @pytest.mark.parametrize("vel_scale", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_vel_scale(self, vel_scale):
        with pytest.raises(ConfigError, match="vel_scale"):
            random_scenario(0, 3, 0.1, vel_scale, ModelParams(paper_kernel(), 1.0))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
VECTORS = st.tuples(FINITE, FINITE, FINITE)
# configparser reads a value up to the line end and strips its ends
LABELS = st.text().filter(lambda s: s == s.strip() and len(s.splitlines()) <= 1)


@st.composite
def run_configs(draw):
    kind = draw(st.sampled_from(["paper", "random", "explicit"]))
    rows = draw(st.integers(1, 4)) if kind == "explicit" else 0
    scenario = ScenarioSpec(
        kind=kind, n=draw(st.integers(1, 10**6)), pos_spread=draw(FINITE),
        vel_scale=draw(FINITE), seed=draw(st.integers(0, 2**63)), label=draw(LABELS),
        positions=tuple(draw(VECTORS) for _ in range(rows)),
        velocities=tuple(draw(VECTORS) for _ in range(rows)))
    dt = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    t_end = draw(st.floats(min_value=0.0, allow_infinity=False))
    assume(math.isfinite(t_end / dt))  # SimConfig rejects a step count that overflows
    sim = SimConfig(dt=dt, t_end=t_end, projection=draw(st.booleans()),
                    frame_stride=draw(st.integers(1, 10**6)))
    return RunConfig(kernel_name=draw(st.sampled_from(["paper", "linear"])),
                     kernel_params=tuple(draw(st.lists(FINITE, max_size=2))),
                     sigma=draw(FINITE), sim=sim, scenario=scenario)


class TestConfigRoundTrip:
    @given(run_configs())
    @example(RunConfig(scenario=ScenarioSpec(label="50%")))
    def test_generated_round_trip(self, cfg):
        assert parse_config(emit_config(cfg)) == cfg

    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse_config(emit_config(cfg)) == cfg

    def test_awkward_floats_round_trip(self):
        cfg = RunConfig(
            kernel_name="linear", kernel_params=(1.7,), sigma=math.pi,
            sim=SimConfig(dt=1.0 / 3.0, t_end=math.e, projection=False,
                          frame_stride=7),
            scenario=ScenarioSpec(kind="random", n=9, pos_spread=math.pi / 64,
                                  vel_scale=0.01, seed=11, label="probe"),
        )
        assert parse_config(emit_config(cfg)) == cfg

    def test_explicit_scenario_round_trip(self):
        cfg = RunConfig(scenario=ScenarioSpec(
            kind="explicit", label="pair",
            positions=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
            velocities=((0.0, 0.1, 0.0), (0.1, 0.0, 0.0))))
        again = parse_config(emit_config(cfg))
        assert again == cfg
        sc = build_scenario(again)
        assert sc.ensemble.n == 2

    def test_retired_sim_seed_is_ignored(self):
        # emit_config's text from before SimConfig lost its unused seed field
        old = ("[kernel]\nname = paper\nparams = \n\n[params]\nsigma = 1\n\n[sim]\n"
               "dt = 0.002\nt_end = 3\nprojection = on\nframe_stride = 10\nseed = 7\n\n"
               "[scenario]\nkind = paper\nlabel = \nn = 6\npos_spread = 0.049087385212340517\n"
               "vel_scale = 0.01\nseed = 0\n")
        assert parse_config(old) == RunConfig(sim=SimConfig(dt=0.002, t_end=3.0))

    def test_malformed_config_raises(self):
        for text in ("[sim]\ndt = banana\n",
                     "[scenario]\nkind = mystery\n",
                     "[scenario]\nkind = explicit\nx1 = 1 0 0\n",
                     "[sim]\nprojection = maybe\n",
                     "dt = 0.001\n",  # no section header
                     "[params]\nsigma = 1\n\n[params]\nsigma = 2\n",
                     "[scenario]\nkind = explicit\n",  # no x<i>/v<i> rows
                     "[scenario]\nkind = explicit\nx1 = 1 0\nv1 = 0 0 0\n"):
            with pytest.raises(ConfigError):
                parse_config(text)

    def test_velocity_projection_guard(self):
        cfg = RunConfig(scenario=ScenarioSpec(
            kind="explicit", positions=((1.0, 0.0, 0.0),),
            velocities=((0.5, 0.0, 0.0),)))  # radial by 0.5 >> 1e-3
        with pytest.raises(ConfigError):
            build_scenario(cfg)


def test_sigma_zero_run_skips_admissibility(tmp_path, capsys):
    cfg = RunConfig(sigma=0.0,
                    sim=SimConfig(dt=1e-3, t_end=0.2, frame_stride=20),
                    scenario=ScenarioSpec(kind="random", n=4, pos_spread=0.2,
                                          vel_scale=0.1, seed=1, label="free"))
    path = tmp_path / "free.ini"
    path.write_text(emit_config(cfg))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "f.csv"),
                 "--summary", str(tmp_path / "s.json")]) == 0
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["admissibility"] is None
    assert payload["delta_guaranteed"] is None
    # but check refuses: the condition is undefined without bonding
    assert main(["check", "--config", str(path)]) == 2


def test_linear_kernel_config_end_to_end(tmp_path, capsys):
    cfg = RunConfig(kernel_name="linear", kernel_params=(1.5,), sigma=0.8,
                    sim=SimConfig(dt=1e-3, t_end=0.5, frame_stride=50),
                    scenario=ScenarioSpec(kind="random", n=5, pos_spread=0.3,
                                          vel_scale=0.2, seed=3, label="lin"))
    path = tmp_path / "lin.ini"
    path.write_text(emit_config(cfg))
    code = main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "f.csv"),
                 "--summary", str(tmp_path / "s.json")])
    assert code == 0
    payload = json.loads((tmp_path / "s.json").read_text())
    cols = read_frames_csv(tmp_path / "f.csv")
    assert np.all(np.diff(cols["E"]) <= 1e-8)
    assert payload["label"] == "lin"


class TestFramesCsv:
    def test_header_contract_and_round_trip(self, tmp_path, sigma1_params):
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.2, frame_stride=20))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        path = tmp_path / "frames.csv"
        write_frames_csv(path, traj)
        first_line = path.read_text().splitlines()[0]
        assert first_line == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == ("t", "E", "E_K", "E_C", "D_x", "D_v", "V_max",
                               "flock_align", "antipode_margin", "drift_radial",
                               "drift_tangency", "X_max")
        # one CSV column per frame field, in field order
        assert len(CSV_COLUMNS) == len(FRAME_FIELDS)
        cols = read_frames_csv(path)
        # 17 significant digits round-trip losslessly
        assert np.array_equal(cols["t"], traj.times)
        assert np.array_equal(cols["E"], traj.series("e_total"))
        assert np.array_equal(cols["D_x"], traj.series("d_x"))
        assert np.array_equal(cols["X_max"], traj.series("x_max"))


class TestCli:
    def test_simulate_and_fit_rate_bit_exact(self, tmp_path, capsys):
        out = tmp_path / "frames.csv"
        summary = tmp_path / "summary.json"
        code = main(["simulate", "--preset", "paper-sigma1", "--t-end", "4",
                     "--dt", "1e-3", "--out", str(out), "--summary", str(summary),
                     "--fit-window", "1", "4"])
        assert code == 0
        payload = json.loads(summary.read_text())
        assert payload["label"] == "paper-sigma1"
        assert set(payload["admissibility"]["thresholds"]) == {
            "mu", "c_const", "v0", "e0", "x_m", "psi_m", "delta"}
        assert payload["fit"]["rate"] > 0.0
        assert payload["delta_guaranteed"] == payload["admissibility"]["thresholds"]["delta"]
        capsys.readouterr()

        code = main(["fit-rate", "--csv", str(out), "--window", "1", "4"])
        assert code == 0
        refit = json.loads(capsys.readouterr().out)
        assert refit["rate"] == payload["fit"]["rate"]

    def test_summary_runtime_record(self, tmp_path, capsys):
        from sphereflock import _fast

        summary = tmp_path / "summary.json"
        assert main(["simulate", "--preset", "paper-sigma1", "--t-end", "0.05",
                     "--out", str(tmp_path / "f.csv"), "--summary", str(summary)]) == 0
        runtime = json.loads(summary.read_text())["runtime"]
        assert set(runtime) == {"wall_time_s", "n_steps", "dt", "n_frames", "backend",
                                "steps_per_s"}
        assert runtime["n_steps"] == 50 and runtime["dt"] == 1e-3 and runtime["n_frames"] == 6
        kernel = build_scenario(preset_config("paper-sigma1")).params.kernel
        assert runtime["backend"] == ("numba" if _fast.available(kernel) else "numpy")
        assert runtime["steps_per_s"] == runtime["n_steps"] / runtime["wall_time_s"] > 0.0

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_fit_rate_rejects_non_finite_samples(self, tmp_path, capsys, bad):
        rows = [[0.1 * k] + [math.exp(-0.1 * k)] * (len(CSV_COLUMNS) - 1) for k in range(20)]
        rows[7][CSV_COLUMNS.index("D_x")] = bad
        path = tmp_path / "frames.csv"
        path.write_text("\n".join(",".join(map(str, r)) for r in [CSV_COLUMNS, *rows]) + "\n")
        assert main(["fit-rate", "--csv", str(path), "--column", "D_x",
                     "--window", "0", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "positive" in captured.err

    def test_check_sigma5_inadmissible(self, capsys):
        assert main(["check", "--preset", "paper-sigma5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible"] is False
        assert payload["verdict_x"] is False

    def test_check_out_file_is_what_it_prints(self, tmp_path, capsys):
        path = tmp_path / "check.json"
        assert main(["check", "--preset", "paper-sigma5", "--out", str(path)]) == 0
        assert path.read_text() == capsys.readouterr().out
        assert json.loads(path.read_text())["label"] == "paper-sigma5"

    def test_fit_rate_input_errors(self, tmp_path, capsys):
        rows = [[0.1 * k] + [math.exp(-0.1 * k)] * (len(CSV_COLUMNS) - 1) for k in range(20)]
        good, short = tmp_path / "good.csv", tmp_path / "short.csv"
        good.write_text("\n".join(",".join(map(str, r)) for r in [CSV_COLUMNS, *rows]) + "\n")
        # every row one column short of its header
        short.write_text("\n".join([",".join(CSV_COLUMNS),
                                    *(",".join(map(str, r[:-1])) for r in rows)]) + "\n")
        untimed = tmp_path / "untimed.csv"
        untimed.write_text("D_x\n" + "\n".join(str(r[1]) for r in rows) + "\n")
        empty = tmp_path / "empty.csv"
        empty.write_text("t,E,D_x\n")
        for path, column, message in ((good, "NOPE", "column 'NOPE' not in CSV"),
                                      (short, "D_x", "CSV width"),
                                      (untimed, "D_x", "column 't' not in CSV"),
                                      (empty, "D_x", "has no rows")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's no-data warning is not the message
                assert main(["fit-rate", "--csv", str(path), "--column", column]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: ") and message in captured.err

    def test_preset_writes_usable_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        assert main(["preset", "--name", "paper-sigma5", "--out", str(path)]) == 0
        cfg = parse_config(path.read_text())
        assert cfg == preset_config("paper-sigma5")
        assert build_scenario(cfg).params.sigma == 5.0

    def test_full_state_dump(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = main(["simulate", "--preset", "paper-sigma1", "--t-end", "0.05",
                     "--out", str(out), "--summary", str(tmp_path / "s.json"),
                     "--full-state"])
        assert code == 0
        state = (tmp_path / "f.csv.state.csv").read_text().splitlines()
        assert state[0].startswith("t,x1_x,x1_y,x1_z")
        assert len(state) == len(out.read_text().splitlines())

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "missing.ini"),
                     "--out", str(tmp_path / "o.csv"),
                     "--summary", str(tmp_path / "s.json")]) == 2
        assert main(["check", "--preset", "paper-sigma1",
                     "--config", str(tmp_path / "also.ini")]) == 2
        # degenerate explicit state is rejected as configuration, not a crash
        bad = tmp_path / "zero.ini"
        bad.write_text("[scenario]\nkind = explicit\nx1 = 0 0 0\nv1 = 0 0 0\n")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o.csv"),
                     "--summary", str(tmp_path / "s.json")]) == 2

    @staticmethod
    def unwritable_reason(path):
        """The config error's reason for a path the CLI cannot write, None if it can."""
        if path.is_dir():
            return "it is a directory"
        if not path.parent.is_dir():
            return f"{path.parent} is not a writable directory"
        return None

    @pytest.mark.parametrize("out, summary, extra", [
        ("missing/f.csv", "s.json", []),
        ("f.csv", "file/s.json", []),  # the summary's parent is a file
        ("missing/f.csv", "s.json", ["--full-state"]),  # the state file sits beside out
        ("dir", "s.json", []),  # an existing directory, for each of the three files
        ("f.csv", "dir", []),
        ("f.csv", "s.json", ["--full-state"]),  # f.csv.state.csv is a directory
    ])
    def test_unwritable_output_is_rejected_before_stepping(self, tmp_path, capsys,
                                                          monkeypatch, out, summary, extra):
        import sphereflock.cli as cli_mod

        def no_stepping(*args):
            raise AssertionError("the scenario was built before the output paths were checked")

        monkeypatch.setattr(cli_mod, "build_scenario", no_stepping)
        monkeypatch.setattr(cli_mod, "simulate", no_stepping)
        (tmp_path / "file").write_text("")
        for folder in ("dir", "f.csv.state.csv"):
            (tmp_path / folder).mkdir()
        code = main(["simulate", "--out", str(tmp_path / out),
                     "--summary", str(tmp_path / summary), *extra])
        assert code == 2
        paths = [tmp_path / out, tmp_path / summary, tmp_path / (out + ".state.csv")]
        bad = next(path for path in paths if self.unwritable_reason(path))
        assert capsys.readouterr().err == (f"config error: cannot write {bad}: "
                                           f"{self.unwritable_reason(bad)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "f.csv.state.csv", "file"]
        assert not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("out, summary, extra", [
        ("d.csv", "d.csv", []),
        ("d.csv", "./sub/../d.csv", []),  # the same file, spelled another way
        ("f.csv", "f.csv.state.csv", ["--full-state"]),
        ("f.csv", "link.json", []),  # a symbolic link to f.csv
    ])
    def test_colliding_output_paths_are_rejected_before_stepping(
            self, tmp_path, capsys, monkeypatch, out, summary, extra):
        # one file would overwrite the other: frames lost under the summary JSON
        import sphereflock.cli as cli_mod

        def no_stepping(*args):
            raise AssertionError("the scenario was built before the output paths were checked")

        monkeypatch.setattr(cli_mod, "build_scenario", no_stepping)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(tmp_path / "f.csv")
        code = main(["simulate", "--out", str(tmp_path / out),
                     "--summary", str(tmp_path / summary), *extra])
        assert code == 2
        first = tmp_path / (out + ".state.csv" if extra else out)
        assert capsys.readouterr().err == (f"config error: cannot write {tmp_path / summary}: "
                                           f"{first} names the same file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "sub"]

    def test_subnormal_sigma_is_a_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--t-end", "0.01", "--sigma", "1e-320",
                     "--out", str(tmp_path / "f.csv"), "--summary", str(tmp_path / "s.json")])
        assert code == 2
        assert "subnormal" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("kernel, sigma", [
        ("paper", 1e308), ("linear\nparams = 1e308", 1.0), ("paper", 1e200),
        ("paper", 1e-160), ("paper", 1e-320)])
    @pytest.mark.parametrize("command", [["check"], ["simulate", "--t-end", "0"]])
    def test_guarantee_out_of_numeric_range_is_a_config_error(self, tmp_path, capsys,
                                                              kernel, sigma, command):
        # C = inf, E0 underflowing to 0 or a subnormal mu: thresholds rejects all
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[kernel]\nname = {kernel}\n\n[params]\nsigma = {sigma!r}\n")
        out = tmp_path / "out"
        out.mkdir()
        extra = (["--out", str(out / "check.json")] if command == ["check"] else
                 ["--out", str(out / "f.csv"), "--summary", str(out / "s.json")])
        assert main([*command, "--config", str(cfg), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the guarantee is out of numeric range")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("out", ["missing/x.json", "dir"])
    def test_check_rejects_unwritable_out_before_checking(self, tmp_path, capsys,
                                                          monkeypatch, out):
        import sphereflock.cli as cli_mod

        def no_check(*args):
            raise AssertionError("check_initial ran before the output path was checked")

        monkeypatch.setattr(cli_mod, "check_initial", no_check)
        (tmp_path / "dir").mkdir()
        path = tmp_path / out
        assert main(["check", "--out", str(path)]) == 2
        assert capsys.readouterr().err == (f"config error: cannot write {path}: "
                                           f"{self.unwritable_reason(path)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]

    @pytest.mark.parametrize("kernel", ["name = paper\nparams = 2.0",
                                        "name = linear\nparams = 1.0 2.0",
                                        "name = linear\nparams = nan"])
    def test_bad_kernel_parameters_are_config_errors(self, tmp_path, capsys, kernel):
        # a parameter count the kernel does not take, or a non-finite scale
        path = tmp_path / "kernel.ini"
        path.write_text(f"[kernel]\n{kernel}\n")
        for args in (["simulate", "--out", str(tmp_path / "o.csv"),
                      "--summary", str(tmp_path / "s.json")], ["check"]):
            assert main([*args, "--config", str(path)]) == 2
            assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_overflowing_step_count_is_a_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "paper-sigma1", "--dt", "1e-300",
                     "--t-end", "1e300", "--out", str(tmp_path / "o.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 2
        assert "config error: " in capsys.readouterr().err

    def test_antipodal_abort_exit_code(self, tmp_path, capsys):
        cfg = RunConfig(scenario=ScenarioSpec(
            kind="explicit", label="anti",
            positions=((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
            velocities=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))))
        path = tmp_path / "anti.ini"
        path.write_text(emit_config(cfg))
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 3
        # the frames computed before the abort are still written out
        partial = read_frames_csv(tmp_path / "o.csv")
        assert len(partial["t"]) == 1 and partial["t"][0] == 0.0

    def test_non_finite_exit_code(self, tmp_path, capsys):
        # dt = 2 blows the paper run up within its first stride
        code = main(["simulate", "--preset", "paper-sigma1", "--dt", "2", "--t-end", "400",
                     "--out", str(tmp_path / "o.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 4
        assert "non-finite state" in capsys.readouterr().err
        partial = read_frames_csv(tmp_path / "o.csv")
        assert len(partial["t"]) == 1 and partial["t"][0] == 0.0

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "11/11 checks passed" in out

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        import sphereflock.verify as verify_mod
        from sphereflock.verify import CheckResult
        monkeypatch.setattr(verify_mod, "ALL_CHECKS",
                            (lambda: CheckResult("always red", False, "forced"),))
        assert main(["verify"]) == 1
        assert "0/1 checks passed" in capsys.readouterr().out


def strict_json(text: str):
    """json.loads that rejects the non-standard constants NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# 0, subnormals, values whose guarantee constants underflow or overflow, and ordinary ones
EXTREMES = (0.0, 5e-324, 1e-320, float(np.nextafter(sys.float_info.min, 0.0)), 1e-160, 1.0,
            1e150, 1e154, 1e307, 1e308)


@settings(max_examples=60)
@given(st.sampled_from(EXTREMES), st.sampled_from((None, *EXTREMES)))
@example(1e308, None).via("C = inf")
@example(1.0, 1e308).via("linear scale 1e308")
@example(1e154, None).via("E0 underflows to 0")
@example(1e150, 1e150).via("admissible range, huge constants")
def test_cli_json_is_strict(sigma, scale):
    """check and simulate --t-end 0 on any sigma and linear scale of the pools exit
    0 or 2, every JSON they write or print is strict RFC 8259, and a rejected
    config writes no file."""
    kernel = "paper" if scale is None else f"linear\nparams = {fmt_float(scale)}"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "run.ini"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"[kernel]\nname = {kernel}\n\n[params]\nsigma = {fmt_float(sigma)}\n")
        os.mkdir(out)
        for argv, written in (
                (["check", "--out", f"{out}/check.json"], "check.json"),
                (["simulate", "--t-end", "0", "--out", f"{out}/f.csv",
                  "--summary", f"{out}/s.json"], "s.json")):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--config", cfg])
            assert code in (0, 2)
            if code == 2:
                assert not os.listdir(out)
                continue
            with open(os.path.join(out, written), encoding="utf-8") as fh:
                strict_json(fh.read())
            if argv[0] == "check":
                strict_json(stdout.getvalue())
            for name in os.listdir(out):
                os.remove(os.path.join(out, name))


class TestVerifyFailures:
    """Each check's failure branch, reached by breaking what it checks."""

    def test_remainder_bound_violations_are_counted(self, monkeypatch):
        from sphereflock import dynamics, verify

        monkeypatch.setattr(dynamics, "inhomogeneous_table",
                            lambda ens, params: np.full((ens.n, ens.n, 3), 1e6))
        result = verify.check_remainder_bounds()
        assert result.passed is False
        assert result.detail == "1000 violations in 1000 states"

    def test_invalid_registered_kernel_is_named(self, monkeypatch):
        from sphereflock import kernels, verify

        def flat():  # constant: neither zero at 2 nor decreasing
            return kernels.make_kernel("flat", lambda r: np.ones_like(np.asarray(r, dtype=float)),
                                       lambda r: np.zeros_like(np.asarray(r, dtype=float)))

        monkeypatch.setitem(kernels.REGISTRY, "flat", flat)
        result = verify.check_registered_kernels()
        assert result.passed is False
        assert result.detail == "failing: ['flat']"
