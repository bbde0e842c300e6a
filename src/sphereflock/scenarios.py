"""Scenario construction: the preset table and the one RunConfig -> Scenario builder.

Scenario kinds are the built-in 6-agent benchmark, seeded random setups
and explicit per-agent rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, ScenarioSpec
from .dynamics import Ensemble, ModelParams, constraint_violation
from .errors import ConfigError, ZeroVector
from .geometry import project_state, project_to_sphere, rotation_matrix
from .integrator import SimConfig
from .kernels import kernel_from_name

# 6-agent benchmark initial data (4-decimal coordinates; positions are
# renormalized and velocities tangent-projected at construction).
BENCHMARK_POSITIONS = np.array([
    [-0.3903, -0.4756, 0.7883],
    [-0.5800, -0.7067, 0.4052],
    [-0.6746, -0.2998, 0.6746],
    [-0.4472, 0.0000, 0.8944],
    [-0.1249, 0.2084, 0.9700],
    [-0.6236, 0.6236, 0.4714],
])

BENCHMARK_VELOCITIES = np.array([
    [-0.4707, 0.1259, -0.1571],
    [-0.0986, 0.4355, 0.6185],
    [0.1892, 0.1666, 0.2631],
    [0.4605, 0.5046, 0.2302],
    [-0.4914, 0.7722, -0.2292],
    [-0.0148, 0.1342, -0.1971],
])

# Tangency violation beyond which input velocities are rejected instead of
# silently projected.
MAX_INPUT_TANGENCY = 1e-3


@dataclass
class Scenario:
    """A runnable setup: initial state, model parameters, sim controls.

    ``position_adjustment`` / ``velocity_adjustment`` record how far the
    supplied coordinates were moved by renormalization and tangent
    projection, so rounded inputs stay auditable.
    """

    ensemble: Ensemble
    params: ModelParams
    sim: SimConfig
    label: str
    position_adjustment: float = 0.0
    velocity_adjustment: float = 0.0


def _build_ensemble(positions, velocities) -> tuple[Ensemble, float, float]:
    """The paper's or explicit rows projected by ``geometry.project_state``, the routine
    of ``Ensemble.projected`` and ``random_scenario``, and how far each moved.  Raises
    ZeroVector for a row whose squared norm, formed as the projection forms it, is 0."""
    X = np.array(positions, dtype=float)
    V = np.array(velocities, dtype=float)
    if not np.add.reduce(X * X, axis=1).all():  # project_state would keep NaN for it
        raise ZeroVector("cannot project the zero vector onto the sphere")
    Xp, Vp = project_state(X, V)
    tangency = constraint_violation(Xp, V)[1]
    if tangency > MAX_INPUT_TANGENCY:
        raise ConfigError(
            f"input velocities violate tangency by {tangency:.3e} "
            f"(> {MAX_INPUT_TANGENCY:.1e}); refusing to project that far")
    pos_adj = float(np.linalg.norm(Xp - X, axis=1).max())
    vel_adj = float(np.linalg.norm(Vp - V, axis=1).max())
    return Ensemble(Xp, Vp), pos_adj, vel_adj


def build_scenario(cfg: RunConfig) -> Scenario:
    """Materialize the configured scenario (kernel, parameters, state)."""
    params = ModelParams(kernel=kernel_from_name(cfg.kernel_name, *cfg.kernel_params),
                         sigma=cfg.sigma)
    sc = cfg.scenario
    if sc.kind == "random":
        return random_scenario(sc.seed, sc.n, sc.pos_spread, sc.vel_scale,
                               params, sim=cfg.sim, label=sc.label)
    if sc.kind == "paper":
        positions, velocities = BENCHMARK_POSITIONS, BENCHMARK_VELOCITIES
        label = sc.label or f"paper-sigma{cfg.sigma:g}"
    else:
        positions, velocities = sc.positions, sc.velocities
        label = sc.label or "explicit"
    ensemble, pos_adj, vel_adj = _build_ensemble(positions, velocities)
    return Scenario(ensemble=ensemble, params=params, sim=cfg.sim, label=label,
                    position_adjustment=pos_adj, velocity_adjustment=vel_adj)


def paper_scenario(sigma: float, sim: SimConfig | None = None) -> Scenario:
    """The 6-agent benchmark configuration with the built-in kernel.

    sigma = 1 is the rendezvous benchmark; sigma = 5 makes the same data
    fail the admissibility condition while the simulation still runs.
    """
    if sigma <= 0.0:
        raise ConfigError("sigma must be positive")
    return build_scenario(RunConfig(sigma=float(sigma), sim=sim or SimConfig()))


def _cap_polar(u: np.ndarray, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of polar angles uniform by area in a cap of geodesic radius cap, from
    uniform draws u, through h = 1 - cos = u 2 sin^2(cap / 2), exact for small caps."""
    h = u * (2.0 * np.sin(0.5 * cap) ** 2)
    return 1.0 - h, np.sqrt(h * (2.0 - h))


def random_scenario(seed: int, n: int, pos_spread: float, vel_scale: float,
                    params: ModelParams, sim: SimConfig | None = None,
                    label: str = "") -> Scenario:
    """Seeded random setup: a geodesic position cap plus small tangent noise.

    Positions are sampled uniformly (by area) in the cap of geodesic radius
    ``pos_spread`` about a uniformly random center; velocities are
    ``vel_scale`` times tangent-projected standard normals.  Bit
    reproducible per seed.
    """
    if n < 1:
        raise ConfigError("need at least one agent")
    if not 0.0 <= pos_spread <= np.pi / 2:
        raise ConfigError("pos_spread must lie in [0, pi/2]")
    if not np.isfinite(vel_scale):
        raise ConfigError(f"vel_scale must be finite, got {vel_scale!r}")
    rng = np.random.default_rng(seed)
    center = project_to_sphere(rng.standard_normal(3))
    rot = rotation_matrix(np.array([0.0, 0.0, 1.0]), center)

    cos_theta, sin_theta = _cap_polar(rng.random(n), pos_spread)
    phi = rng.random(n) * 2.0 * np.pi
    local = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=1)
    V = vel_scale * rng.standard_normal((n, 3))

    return Scenario(
        ensemble=Ensemble.projected(local @ rot.T, V),
        params=params,
        sim=sim if sim is not None else SimConfig(),
        label=label or f"random-seed{seed}",
    )


#: The named presets accepted by the command line: the benchmark data at
#: the rendezvous (sigma = 1) and the inadmissible (sigma = 5) bonding rate.
PRESETS: dict[str, RunConfig] = {
    name: RunConfig(sigma=sigma, scenario=ScenarioSpec(kind="paper", label=name))
    for name, sigma in (("paper-sigma1", 1.0), ("paper-sigma5", 5.0))
}


def preset_config(name: str) -> RunConfig:
    """The RunConfig of a named preset."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return PRESETS[name]
