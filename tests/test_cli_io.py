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
from hypothesis import assume, event, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from sphereflock import (ConfigError, SimConfig, ZeroVector, check_initial, paper_scenario,
                         random_scenario, simulate)
from sphereflock.cli import main
from sphereflock.config import RunConfig, ScenarioSpec, emit_config, fmt_float, parse_config
from sphereflock.dynamics import Ensemble, ModelParams
from sphereflock.kernels import paper_kernel
from sphereflock.diagnostics import FRAME_FIELDS
from sphereflock.output import CSV_COLUMNS, read_frames_csv, write_frames_csv
from sphereflock.geometry import project_to_sphere
from sphereflock.scenarios import (BENCHMARK_POSITIONS, BENCHMARK_VELOCITIES, PRESETS,
                                   _cap_polar, build_scenario, preset_config)


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


def test_built_state_is_the_projected_state():
    """Paper and explicit rows are projected by the routine of ``Ensemble.projected``
    (and of random_scenario), so the built state equals it byte for byte.  A position
    row whose squared norm is 0, underflowed too, raises ZeroVector, without a warning."""
    explicit = (((2.0, 0.0, 0.0), (0.0, 3.0, 4.0), (1e-3, 1.0, -2.0)),
                ((0.0, 0.5, 0.1), (1.0, 0.2, -0.15), (0.3, 0.2, 0.1)))
    for cfg, rows in ((preset_config("paper-sigma1"), (BENCHMARK_POSITIONS, BENCHMARK_VELOCITIES)),
                      (RunConfig(scenario=ScenarioSpec("explicit", positions=explicit[0],
                                                       velocities=explicit[1])), explicit)):
        built, projected = build_scenario(cfg).ensemble, Ensemble.projected(*rows)
        assert built.positions.tobytes() == projected.positions.tobytes()
        assert built.velocities.tobytes() == projected.velocities.tobytes()
    for row in ((0.0, 0.0, 0.0), (1e-170, 0.0, 0.0)):
        spec = ScenarioSpec("explicit", positions=((1.0, 0.0, 0.0), row),
                            velocities=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        with warnings.catch_warnings(), pytest.raises(ZeroVector):
            warnings.simplefilter("error")
            build_scenario(RunConfig(scenario=spec))


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

    @pytest.mark.parametrize("cap", [1e-7, 2e-6, 1e-3, np.pi / 64, 0.5])
    def test_small_caps_keep_every_draw(self, cap):
        # 1 - cos(cap) is resolved only to about 1e-16 absolute: taking the draws
        # from it left 46 distinct polar angles of 400 at cap 1e-7 (cos(theta)
        # itself cannot tell them apart there; sin(theta) can)
        u = np.random.default_rng(0).random(400)
        cos_theta, sin_theta = _cap_polar(u, cap)
        assert len(np.unique(sin_theta)) == 400
        want = np.sin(2.0 * np.arcsin(np.sqrt(u) * np.sin(0.5 * cap)))
        assert np.abs(sin_theta / want - 1.0).max() <= 4 * np.finfo(float).eps
        assert_allclose(cos_theta, np.cos(2.0 * np.arcsin(np.sqrt(u) * np.sin(0.5 * cap))),
                        rtol=2 * np.finfo(float).eps, atol=0)

    def test_small_cap_positions_lie_at_their_draws(self):
        # the scenario places its agents at the sampled polar angles about its center
        p = ModelParams(paper_kernel(), 1.0)
        X = random_scenario(0, 400, 1e-7, 0.0, p).ensemble.positions
        rng = np.random.default_rng(0)
        center = project_to_sphere(rng.standard_normal(3))
        sin_theta = _cap_polar(rng.random(400), 1e-7)[1]
        assert_allclose(np.linalg.norm(np.cross(X, center), axis=1), sin_theta,
                        rtol=0, atol=1e-15)

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
    @pytest.mark.parametrize("run, window", [
        (["--t-end", "4", "--dt", "1e-3"], ["1", "4"]),
        (["--t-end", "4"], []),
        # the last frame's time, 700 * 1e-3, is 0.70000000000000007, not t_end
        (["--t-end", "0.7"], []),
        # a partial last stride: the run, and the window, end at 88.0
        (["--t-end", "88.5", "--dt", "0.1", "--stride", "10"], []),
    ], ids=["explicit-window", "default-window", "last-frame-past-t-end", "partial-stride"])
    def test_simulate_and_fit_rate_bit_exact(self, tmp_path, capsys, run, window):
        # fit-rate with the summary's window, given or not, refits the summary's fit
        out = tmp_path / "frames.csv"
        summary = tmp_path / "summary.json"
        code = main(["simulate", "--preset", "paper-sigma1", *run, "--out", str(out),
                     "--summary", str(summary)] + (["--fit-window", *window] if window else []))
        assert code == 0
        payload = json.loads(summary.read_text())
        assert payload["label"] == "paper-sigma1"
        assert set(payload["admissibility"]["thresholds"]) == {
            "mu", "c_const", "v0", "e0", "x_m", "psi_m", "delta"}
        assert payload["fit"]["rate"] > 0.0
        assert payload["delta_guaranteed"] == payload["admissibility"]["thresholds"]["delta"]
        capsys.readouterr()

        code = main(["fit-rate", "--csv", str(out)] + (["--window", *window] if window else []))
        assert code == 0
        refit = json.loads(capsys.readouterr().out)
        assert refit.pop("column") == "D_x"
        assert refit == payload["fit"]
        if not window:  # the default window ends at the last frame
            assert refit["window"][1] == payload["final_frame"]["t"]

    def test_summary_runtime_record(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        assert main(["simulate", "--preset", "paper-sigma1", "--t-end", "0.05",
                     "--out", str(tmp_path / "f.csv"), "--summary", str(summary)]) == 0
        runtime = json.loads(summary.read_text())["runtime"]
        assert set(runtime) == {"wall_time_s", "n_steps", "dt", "n_frames", "backend",
                                "steps_per_s"}
        assert runtime["n_steps"] == 50 and runtime["dt"] == 1e-3 and runtime["n_frames"] == 6
        assert runtime["backend"] == "numpy"
        assert runtime["steps_per_s"] == runtime["n_steps"] / runtime["wall_time_s"] > 0.0

    def test_runtime_counts_the_steps_integrated(self, tmp_path):
        # 105 steps at stride 10: the run ends at the last frame, step 100
        summary = tmp_path / "summary.json"
        assert main(["simulate", "--preset", "paper-sigma1", "--t-end", "0.105",
                     "--stride", "10", "--out", str(tmp_path / "f.csv"),
                     "--summary", str(summary)]) == 0
        runtime = json.loads(summary.read_text())["runtime"]
        assert runtime["n_steps"] == 100 and runtime["n_frames"] == 11
        assert runtime["steps_per_s"] == 100 / runtime["wall_time_s"]

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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--out", "", "--summary", "s.json"],
        ["simulate", "--out", "f.csv", "--summary", ""],
        ["check", "--out", ""],
    ])
    def test_empty_output_path_is_rejected_before_running(self, tmp_path, capsys,
                                                          monkeypatch, argv):
        # '' has no folder to read as '.', and check's '' is a path given, not absent
        import sphereflock.cli as cli_mod

        def no_run(*args):
            raise AssertionError("the scenario ran before the output paths were checked")

        for name in ("build_scenario", "check_initial", "simulate"):
            monkeypatch.setattr(cli_mod, name, no_run)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: cannot write '': empty path\n"
        assert not any(tmp_path.iterdir())

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


class TestPatchedCallSites:
    """perfbench/child.py times and gates a run by patching module attributes, so
    these calls must go through the modules' names, not names imported from them."""

    def test_cli_fits_through_its_module_name(self, tmp_path, capsys, monkeypatch):
        from sphereflock import cli

        for name in ("build_scenario", "check_initial", "simulate", "fit_decay_rate",
                     "write_frames_csv", "read_frames_csv", "write_json"):
            assert callable(getattr(cli, name))
        fits = []
        real = cli.fit_decay_rate
        monkeypatch.setattr(cli, "fit_decay_rate",
                            lambda *args: fits.append(real(*args)) or fits[-1])
        out, summary = tmp_path / "f.csv", tmp_path / "s.json"
        assert main(["simulate", "--preset", "paper-sigma1", "--t-end", "0.2",
                     "--out", str(out), "--summary", str(summary)]) == 0
        capsys.readouterr()
        assert main(["fit-rate", "--csv", str(out)]) == 0
        refit = json.loads(capsys.readouterr().out)
        assert len(fits) == 2
        assert fits[0].rate == json.loads(summary.read_text())["fit"]["rate"]
        assert fits[1] == fits[0] and fits[1].rate == refit["rate"]

    def test_simulate_makes_each_frame_through_diagnostics(self, monkeypatch):
        from sphereflock import diagnostics

        times = []
        real = diagnostics.make_frame
        monkeypatch.setattr(diagnostics, "make_frame",
                            lambda t, *args: times.append(t) or real(t, *args))
        sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=0.05, frame_stride=10))
        traj = simulate(sc.ensemble, sc.params, sc.sim)
        assert times == [f.time for f in traj.frames] and len(times) == 6

    def test_backend_probe_reads_numpy(self):
        """perfbench/child.py records its backend from ``_fast.available(paper_kernel())``,
        so the probe must stay importable, and it reports the numpy loop."""
        from sphereflock import _fast, paper_kernel

        assert _fast.available(paper_kernel()) is False

    def test_energy_audit_reads_its_final_state_through_diagnostics(self, monkeypatch):
        from sphereflock import diagnostics
        from sphereflock.integrator import energy_audit

        states = []
        real = diagnostics.pairwise_dissipation
        monkeypatch.setattr(diagnostics, "pairwise_dissipation",
                            lambda ens, params: states.append(ens) or real(ens, params))
        sc = paper_scenario(1.0)
        audit = energy_audit(sc.ensemble, sc.params, 1e-3, 0.05)
        monkeypatch.undo()
        final = simulate(sc.ensemble, sc.params,
                         SimConfig(dt=1e-3, t_end=0.05, frame_stride=1)).final.ensemble
        assert len(states) == 1
        assert np.array_equal(states[0].positions, final.positions)
        assert np.array_equal(states[0].velocities, final.velocities)
        assert diagnostics.energy(states[0], 1.0)[0] == audit.e_end


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


# Texts for a numeric field that no key accepts as it stands: negatives, subnormals,
# extremes, non-finite values and malformed text
BAD_NUMBERS = ("-1", "5e-324", "1e-160", "1e308", "nan", "inf", "-inf", "x", "", "1e", "0x10")
MALFORMED_CONFIGS = ("[sim\ndt = 1\n", "dt = 0.1\n", "[sim]\ndt 0.1\n",
                     "[kernel]\nname = paper\n[kernel]\nname = linear\n")
CSV_TEXTS = ("t,E,D_x\n", "t,E,D_x\n0,1,1\n1,nan,0.5\n", "t,E\n0,1,2\n", "t,E,D_x\n0,a,1\n",
             "t,E,D_x\n0,1,1\n1,0.5,0.25\n2,0.25,0.0625\n", "",
             "t,E,D_x\n" + "1,1,0.5\n" * 10)
# Per config key: (values a run can take, values it should reject or abort on)
CONFIG_KEYS = {
    "kernel": {"name": (("paper", "linear"), ("gauss", "")),
               "params": (("", "1.5", "0.2"), ("0", "1 2", *BAD_NUMBERS))},
    "params": {"sigma": (("1", "0.5", "5", "0"), BAD_NUMBERS)},
    "sim": {"projection": (("on", "off"), ("maybe",)),
            "frame_stride": (("1", "3", "1000"), ("0", "-2", "2.5", "x"))},
    "scenario": {"kind": (("paper", "random", "explicit"), ("cube",)),
                 "n": (("1", "2", "6", "17", "64"), ("0", "-3", "x", "2.5")),
                 "pos_spread": (("0", "1e-7", "0.05", "0.5", "1.5707963267948966"),
                                ("2", *BAD_NUMBERS)),
                 "vel_scale": (("0", "0.01", "0.3", "1"), BAD_NUMBERS),
                 "seed": (("0", "1", "4294967295", "18446744073709551616"), ("-1", "x")),
                 "label": (("", "run", "ü", "a,b", 'q"'), ())},
}
# (good, bad) x<i> rows, then (good, bad) v<i> rows, of an explicit scenario
ROWS = ((("1 0 0", "0 1 0", "0.6 0.8 0", "-1 0 0"),
         ("0 0 0", "nan 0 0", "inf 0 0", "1 0", "x y z")),
        (("0 0 0", "0 0.1 0", "0 0 1", "0.5 0 0"), ("nan 0 0", "1e308 1e308 0", "1 1 1")))
# simulate's flags that override a config key
OVERRIDES = {"dt": "--dt", "t_end": "--t-end", "frame_stride": "--stride", "sigma": "--sigma"}


def _pick(draw, good, bad=()):
    """One of ``good``, or one time in eight one of ``bad``."""
    return draw(st.sampled_from(bad if bad and not draw(st.integers(0, 7)) else good))


@st.composite
def cli_runs(draw):
    """(config text, simulate argv, check argv, fit-rate argv, fit CSV text or None),
    with output paths relative to the run's folder.  Whenever dt and t_end are both
    valid, t_end / dt is a whole number of steps from 0 to 100; n is at most 64."""
    dt = _pick(draw, ("1e-3", "0.05", "0.5", "5e-324"), ("0", "-1e-3", "nan", "inf", "x"))
    try:
        t_end = fmt_float(draw(st.integers(0, 100)) * float(dt))
    except ValueError:
        t_end = "1"
    t_end = _pick(draw, (t_end,), ("nan", "inf", "-1", "x"))
    sections = {name: {key: _pick(draw, *options) for key, options in keys.items()}
                for name, keys in CONFIG_KEYS.items()}
    sections["sim"].update(dt=dt, t_end=t_end)
    for i in range(1, draw(st.integers(0, 3)) + 1):
        sections["scenario"][f"x{i}"] = _pick(draw, *ROWS[0])
        sections["scenario"][f"v{i}"] = _pick(draw, *ROWS[1])
    malformed = _pick(draw, (None,), MALFORMED_CONFIGS)
    source = _pick(draw, (["--config", "run.ini"], ["--preset", "paper-sigma1"]),
                   (["--config", "run.ini", "--preset", "paper-sigma5"],))
    simulate_argv = ["simulate", *source, "--out", "f.csv", "--summary", "s.json"]
    # each overridable key goes into the config or the argv; a preset or a malformed
    # config takes dt and t_end from the argv, so that every run stays short
    for key, flag in OVERRIDES.items():
        section = sections["params" if key == "sigma" else "sim"]
        if key in ("dt", "t_end") and (malformed or "--config" not in source) \
                or draw(st.booleans()):
            simulate_argv += [flag, section.pop(key)]
    if draw(st.booleans()):
        simulate_argv += ["--fit-window", _pick(draw, ("0", "0.01"), ("nan", "-1", "x")),
                          _pick(draw, ("0.05", "1"), ("0", "inf", "x"))]
    if draw(st.booleans()):
        simulate_argv.append("--full-state")
    check_argv = ["check", *source, *draw(st.sampled_from(([], ["--out", "c.json"])))]
    fit_argv = ["fit-rate", "--csv", "f.csv",
                *_pick(draw, ([], ["--window", "0.01", "0.05"]),
                       (["--window", "nan", "1"], ["--window", "1", "0"], ["--window", "x", "1"])),
                *_pick(draw, ([], ["--column", "E"]), (["--column", "t"], ["--column", "bogus"]))]
    csv = _pick(draw, (None,), CSV_TEXTS)
    config = malformed or "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items())
    return config, simulate_argv, check_argv, fit_argv, csv


def _cli(argv):
    """(exit code, stdout) of one cli.main call with every warning an error; an
    argparse rejection is its SystemExit's code, as a shell would see it."""
    stdout = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


ANTIPODAL_CONFIG = "[sim]\ndt = 0.01\nt_end = 0.1\n[scenario]\nkind = explicit\n" \
    "x1 = 1 0 0\nv1 = 0 0 0\nx2 = -1 0 0\nv2 = 0 0 0\n"
# A first agent that is infinite or whose values overflow, beside an ordinary second
# one, by the exit codes of check and simulate on it: numpy warned on each
EXTREME_ROWS = {"x1 = inf 0 0\nv1 = 0 0 0\n": (2, 2), "x1 = 1e200 0 0\nv1 = 0 0 0\n": (2, 2),
                "x1 = 1 0 0\nv1 = 0 1e100 0\n": (2, 4), "x1 = 1 0 0\nv1 = 0 1e200 0\n": (2, 4)}


def _extreme_run(rows):
    """test_cli_contract's case for the EXTREME_ROWS key ``rows``."""
    config = "[sim]\ndt = 0.01\nt_end = 0.1\n[scenario]\nkind = explicit\n" + rows \
        + "x2 = 0 1 0\nv2 = 0 0 0\n"
    return config, ["simulate", "--config", "run.ini", "--out", "f.csv", "--summary", "s.json"], \
        ["check", "--config", "run.ini"], ["fit-rate", "--csv", "f.csv"], None


@settings(max_examples=150)
@given(cli_runs())
@example(("[sim]\ndt = 5e-324\nt_end = 4.9406564584124654e-323\nframe_stride = 1\n",
          ["simulate", "--config", "run.ini", "--out", "f.csv", "--summary", "s.json"],
          ["check", "--config", "run.ini"], ["fit-rate", "--csv", "f.csv"], None)
          ).via("subnormal times: polyfit warned, divide by zero")
@example(("", ["simulate", "--preset", "paper-sigma1", "--dt", "1e-3", "--t-end", "0"],
          ["check", "--preset", "paper-sigma1"], ["fit-rate", "--csv", "f.csv"],
          "t,E,D_x\n" + "1,1,0.5\n" * 10)).via("coincident times: polyfit warned, rank 1")
@example((ANTIPODAL_CONFIG,
          ["simulate", "--config", "run.ini", "--out", "f.csv", "--summary", "s.json"],
          ["check", "--config", "run.ini"], ["fit-rate", "--csv", "f.csv"], None)
          ).via("antipodal abort, exit 3")
@example(_extreme_run("x1 = inf 0 0\nv1 = 0 0 0\n")).via("infinite row: numpy warned")
@example(_extreme_run("x1 = 1e200 0 0\nv1 = 0 0 0\n")).via("row norm overflows: numpy warned")
@example(_extreme_run("x1 = 1 0 0\nv1 = 0 1e100 0\n")).via("X(0) overflows: numpy warned")
@example(_extreme_run("x1 = 1 0 0\nv1 = 0 1e200 0\n")).via("|v|^2 overflows: numpy warned")
def test_cli_contract(case):
    """simulate, check and fit-rate on any drawn config and argv exit 0, 2, 3 or 4,
    let no exception or warning escape, and print and write only strict JSON."""
    config, simulate_argv, check_argv, fit_argv, csv = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("run.ini", "w", encoding="utf-8") as fh:
                fh.write(config)
            for argv in (simulate_argv, check_argv, fit_argv):
                if argv is fit_argv and csv is not None:
                    with open("f.csv", "w", encoding="utf-8") as fh:
                        fh.write(csv)
                code, stdout = _cli(argv)
                assert code in (0, 2, 3, 4), (argv, code)
                event(f"{argv[0]} exits {code}")
                if code == 0 and argv[0] in ("check", "fit-rate"):
                    strict_json(stdout)
            for name in os.listdir("."):
                if name.endswith(".json"):
                    with open(name, encoding="utf-8") as fh:
                        strict_json(fh.read())
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("rows, codes", EXTREME_ROWS.items(),
                         ids=["inf position", "position overflows", "X(0) overflows",
                              "speed overflows"])
def test_extreme_rows_exit_without_warnings(tmp_path, monkeypatch, rows, codes):
    """check and simulate on a state that is infinite or overflows exit 2, or 4 once
    stepping has begun, with every warning an error: none of numpy's escapes main."""
    monkeypatch.chdir(tmp_path)
    config, simulate_argv, check_argv, _, _ = _extreme_run(rows)
    (tmp_path / "run.ini").write_text(config, encoding="utf-8")
    assert (_cli(check_argv)[0], _cli(simulate_argv)[0]) == codes


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_tables_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    """An ensemble whose (n, n) tables do not fit exits 2 naming n, not with a
    traceback.  The allocation is simulated: the tables of a real oversized n
    (7 n^2 floats, 560 GB at n = 1e5) must never be requested."""
    from sphereflock import cli, integrator

    def no_memory(*args):
        raise MemoryError("Unable to allocate the tables")

    monkeypatch.setattr(integrator, "_Workspace", no_memory)
    monkeypatch.setattr(cli, "check_initial", no_memory)
    path = tmp_path / "big.ini"
    path.write_text("[sim]\nt_end = 0.01\n[scenario]\nkind = random\nn = 37\n")
    argv = {"simulate": ["simulate", "--out", str(tmp_path / "f.csv"),
                         "--summary", str(tmp_path / "s.json"), "--sigma", "0"],
            "check": ["check"]}[command]
    assert main([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory at n = 37: Unable to allocate")
    assert not (tmp_path / "f.csv").exists()
