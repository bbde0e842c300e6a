"""Print one sha256 per output family of sphereflock, to check that a change
leaves every output byte-identical.

Run it against each checkout's sources and diff the two listings:

    PYTHONPATH=src python3 tools/fingerprint.py > after.txt
    PYTHONPATH=../parent/src python3 tools/fingerprint.py > before.txt
    diff before.txt after.txt

It calls only the public API, ``diagnostics.make_frame``,
``dynamics.constraint_violation``, ``geometry.project_state``,
``scenarios.build_scenario`` and ``cli.main``, so the same script
fingerprints an older checkout.  Floats are hashed by
their bytes: two outputs hash alike only if every bit (the sign of a zero
included) is the same.  The ``cli.*`` families hash the files and stdout
of four CLI runs byte for byte, made in a temporary directory, with the
summary's two wall-clock keys left out; ``cli.verify`` hashes the printed
residuals of ``sphereflock verify``.  It takes a few seconds on one core.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import re
import sys
import tempfile
import warnings

import numpy as np

import sphereflock as sf
from sphereflock.cli import main as cli_main
from sphereflock.config import RunConfig, ScenarioSpec
from sphereflock.diagnostics import make_frame
from sphereflock.dynamics import constraint_violation
from sphereflock.geometry import project_state
from sphereflock.scenarios import MAX_INPUT_TANGENCY, build_scenario

N_STATES = 200


def _feed(h, obj) -> None:
    """Add obj to the hash h: arrays by dtype, shape and bytes, floats by
    their bytes, containers and dataclasses item by item."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_, int, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(np.float64(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, sf.Ensemble):
        _feed(h, (obj.positions, obj.velocities))
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def _outcome(call):
    """call()'s result, or the name of the library error it raised."""
    try:
        return call()
    except sf.SphereFlockError as exc:
        return type(exc).__name__


def _trajectory(traj):
    return ([f.diagnostics.as_row() for f in traj.frames], traj.times,
            traj.final.ensemble, traj.max_step_radial, traj.max_step_tangency)


def _paper():
    sc = sf.paper_scenario(1.0)
    projected = sf.simulate(sc.ensemble, sc.params, sf.SimConfig(dt=1e-3, t_end=1.0))
    free = sf.simulate(sc.ensemble, sc.params,
                       sf.SimConfig(dt=1e-3, t_end=0.205, projection=False))
    return _trajectory(projected), _trajectory(free)


def _seed_sweep():
    params = sf.ModelParams(sf.paper_kernel(), 1.0)
    sim = sf.SimConfig(dt=1e-3, t_end=0.05, frame_stride=10)
    out = []
    for seed in range(20):
        sc = sf.random_scenario(seed, 6, math.pi / 64, 0.01, params, sim=sim)
        out.append((sf.check_initial(sc.ensemble, params).as_dict(),
                    _trajectory(sf.simulate(sc.ensemble, params, sim))))
    return out


def _crowd():
    params = sf.ModelParams(sf.paper_kernel(), 1.0)
    sim = sf.SimConfig(dt=1e-3, t_end=7e-3, frame_stride=1)
    return [_trajectory(sf.simulate(sc.ensemble, params, sim))
            for sc in (sf.random_scenario(seed, 256, 0.5, 0.1, params, sim=sim)
                       for seed in (0, 1000))]


def _energy_ledger():
    sc = sf.paper_scenario(1.0)
    return sf.integrator.energy_audit(sc.ensemble, sc.params, dt=2.5e-4, t_end=0.2)


def _random_state(rng, k):
    """State k of the random family: sizes 1 to 40, some with an antipodal
    pair, a coincident pair or agents at rest."""
    n = (1, 2, 3, 6, 17, 40)[k % 6]
    X = rng.standard_normal((n, 3))
    V = rng.standard_normal((n, 3)) * rng.choice([0.01, 0.3, 1.0])
    if n > 1 and k % 5 == 1:
        X[-1] = -X[0]
    if n > 1 and k % 5 == 2:
        X[-1] = X[0]
    if k % 7 == 3:
        V[: n // 2 + 1] = 0.0
    return sf.Ensemble.projected(X, V)


def _tiles():
    """rk4_step and make_frame at the sizes where the distance table's row tiles
    change: one tile (n = 147), a one-row last tile (148), two tiles (150) and
    five with a ragged last one (300)."""
    rng = np.random.default_rng(20240102)
    p = sf.ModelParams(sf.paper_kernel(), 1.0)
    out = []
    for n in (147, 148, 150, 300):
        ens = sf.Ensemble.projected(rng.standard_normal((n, 3)),
                                    0.3 * rng.standard_normal((n, 3)))
        out.append(([sf.rk4_step(ens, 1e-3, p, project) for project in (True, False)],
                    make_frame(0.5, ens, p).as_row()))
    return out


def _row_norms():
    """The manifold drift and projection: ``constraint_violation`` and
    ``project_state`` on off-manifold states (n = 1 to 40, perturbations 1e-12,
    1e-6 and 1e-2) and on rows holding 0, +-inf and NaN, and ``build_scenario``
    on explicit rows whose tangency sits just below and just above
    MAX_INPUT_TANGENCY."""
    rng = np.random.default_rng(20240103)
    out = []
    for n in (1, 2, 3, 6, 17, 40):
        ens = sf.Ensemble.projected(rng.standard_normal((n, 3)), rng.standard_normal((n, 3)))
        for scale in (1e-12, 1e-6, 1e-2):
            X = ens.positions + scale * rng.standard_normal((n, 3))
            V = ens.velocities + scale * rng.standard_normal((n, 3))
            out.append((constraint_violation(X, V), project_state(X, V)))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    with np.errstate(all="ignore"):
        for k in range(30):
            n = (1, 2, 3, 6, 17, 40)[k % 6]
            X, V = rng.standard_normal((2, n, 3))
            for A in (X, V):
                hit = rng.random((n, 3)) < 0.25
                A[hit] = rng.choice(special, int(hit.sum()))
            if k % 3 == 0:
                X[k % n] = 0.0
            out.append((constraint_violation(X, V), project_state(X, V)))
    for k in range(24):
        n = 1 + k % 6
        X = 1.5 * rng.standard_normal((n, 3))
        Xp = X / np.linalg.norm(X, axis=1)[:, None]
        V = rng.standard_normal((n, 3))
        V -= (V * Xp).sum(axis=1)[:, None] * Xp
        # the last row's tangency straddles the limit by a few ulps either side
        V[-1] += MAX_INPUT_TANGENCY * (1.0 + (k % 8 - 4) * 2.0**-50) * Xp[-1]
        spec = ScenarioSpec(kind="explicit", positions=tuple(map(tuple, X)),
                            velocities=tuple(map(tuple, V)))
        out.append(_outcome(lambda: _scenario(RunConfig(scenario=spec))))
    return out


def _scenario(cfg):
    """The state and the recorded input adjustments of ``build_scenario(cfg)``."""
    sc = build_scenario(cfg)
    return sc.ensemble, sc.label, sc.position_adjustment, sc.velocity_adjustment


def _random_states():
    rng = np.random.default_rng(20240101)
    kernels = (sf.paper_kernel(), sf.linear_kernel(1.5))
    families = {name: [] for name in ("pairwise_transport", "pairwise_dissipation",
                                      "inhomogeneous_table", "make_frame", "diameters",
                                      "energy", "rk4_step", "energy_audit")}
    for k in range(N_STATES):
        ens = _random_state(rng, k)
        p = sf.ModelParams(kernels[k % 2], (0.0, 1.0, 5.0)[k % 3])
        X, V = ens.positions, ens.velocities
        for name, call in (
                ("pairwise_transport", lambda: sf.pairwise_transport(X, V)),
                ("pairwise_dissipation", lambda: sf.pairwise_dissipation(ens, p)),
                ("inhomogeneous_table", lambda: sf.inhomogeneous_table(ens, p)),
                ("make_frame", lambda: make_frame(0.5, ens, p).as_row()),
                ("diameters", lambda: sf.diameters(ens)),
                ("energy", lambda: sf.energy(ens, p.sigma)),
                ("rk4_step", lambda: [sf.rk4_step(ens, 1e-3, p, project)
                                      for project in (True, False)]),
                ("energy_audit", lambda: sf.integrator.energy_audit(ens, p, 1e-3, 0.02))):
            families[name].append(_outcome(call))
    families["tiles"] = _tiles()
    families["row_norms"] = _row_norms()
    return families


def _cli_run(argv) -> bytes:
    """stdout of one cli.main call, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"sphereflock {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def _cli_outputs() -> dict[str, bytes]:
    """Files and stdout of simulate --full-state, fit-rate on its CSV,
    check --out and verify, run with relative paths in a temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            outputs = {
                "simulate_stdout": _cli_run(["simulate", "--preset", "paper-sigma1",
                                             "--t-end", "0.3", "--full-state"]),
                "fit_stdout": _cli_run(["fit-rate", "--csv", "frames.csv"]),
                "check_stdout": _cli_run(["check", "--preset", "paper-sigma5",
                                          "--out", "check.json"]),
                "verify": _cli_run(["verify"]),
            }
            for name, path in (("frames_csv", "frames.csv"), ("state_csv", "frames.csv.state.csv"),
                               ("check_json", "check.json"), ("summary_json", "summary.json")):
                with open(path, "rb") as fh:
                    outputs[name] = fh.read()
        finally:
            os.chdir(cwd)
    # the run's wall time and the speed derived from it differ from run to run
    outputs["summary_json"] = re.sub(rb'\n *"(wall_time_s|steps_per_s)": [^\n]*', b"",
                                     outputs["summary_json"])
    return outputs


def main() -> int:
    print(f"# sphereflock from {sf.__file__}", file=sys.stderr)
    families = {"paper_scenario": _paper, "seed_sweep": _seed_sweep, "crowd_256": _crowd,
                "energy_audit": _energy_ledger}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, build in families.items():
            h = hashlib.sha256()
            _feed(h, build())
            print(f"{name} {h.hexdigest()}")
        for name, outputs in _random_states().items():
            h = hashlib.sha256()
            _feed(h, outputs)
            print(f"random.{name} {h.hexdigest()}")
        for name, text in _cli_outputs().items():
            print(f"cli.{name} {hashlib.sha256(text).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
