import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from sphereflock import (ConfigError, SimConfig, check_initial, paper_scenario,
                         preset_scenario, random_scenario, simulate)
from sphereflock.cli import main
from sphereflock.config import RunConfig, ScenarioSpec, emit_config, parse_config
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
        assert preset_scenario("paper-sigma1").params.sigma == 1.0
        assert preset_scenario("paper-sigma5").params.sigma == 5.0
        with pytest.raises(ConfigError, match="paper-sigma1, paper-sigma5"):
            preset_scenario("nope")
        # every path to a preset's state goes through the one builder
        for name in PRESETS:
            cfg = preset_config(name)
            built = (preset_scenario(name), paper_scenario(cfg.sigma),
                     build_scenario(parse_config(emit_config(cfg))))
            for sc in built:
                assert np.array_equal(sc.ensemble.positions, built[0].ensemble.positions)
                assert np.array_equal(sc.ensemble.velocities, built[0].ensemble.velocities)
                assert (sc.label, sc.params.sigma) == (name, cfg.sigma)


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
    sim = SimConfig(dt=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
                    t_end=draw(st.floats(min_value=0.0, allow_infinity=False)),
                    projection=draw(st.booleans()), frame_stride=draw(st.integers(1, 10**6)))
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
        with pytest.raises(ConfigError):
            parse_config("[sim]\ndt = banana\n")
        with pytest.raises(ConfigError):
            parse_config("[scenario]\nkind = mystery\n")
        with pytest.raises(ConfigError):
            parse_config("[scenario]\nkind = explicit\nx1 = 1 0 0\n")

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
