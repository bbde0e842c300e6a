"""Built-in invariant suite behind the ``verify`` subcommand.

Smoke-level sample counts, chosen to finish in well under a minute; the
pytest suite runs the same families of checks at full size.  Every check
is deterministic (fixed seeds) and independent of the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import admissibility, diagnostics, dynamics, geometry, kernels
from .integrator import SimConfig, simulate
from .scenarios import paper_scenario


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_unit(rng, n=1):
    """(n, 3) uniform points on the sphere: normalized standard normals."""
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_ensemble(rng, n, speed=1.0) -> dynamics.Ensemble:
    """Uniform positions (as ``random_unit``), tangent-projected normal velocities."""
    X = rng.standard_normal((n, 3))  # drawn before V, as in random_unit
    return dynamics.Ensemble.projected(X, speed * rng.standard_normal((n, 3)))


def check_transport_identities() -> CheckResult:
    rng = np.random.default_rng(7)
    draws = rng.standard_normal((2000, 3, 3))  # per sample: z1, z2, then v
    z1, z2 = (draws[:, j] / np.linalg.norm(draws[:, j], axis=1, keepdims=True) for j in (0, 1))
    keep = np.linalg.norm(z1 + z2, axis=1) > 1e-6
    z1, z2, g = z1[keep], z2[keep], draws[keep, 2]
    rot = geometry.rotation_matrix(z1, z2)
    d = (z1 * z2).sum(axis=1, keepdims=True)
    c = np.cross(z1, z2)
    v = g - (g * z1).sum(axis=1, keepdims=True) * z1
    rz1, rz2, rc, rv = np.einsum("pij,qpj->qpi", rot, np.stack([z1, z2, c, v]))
    worst = max(
        np.abs(np.einsum("pij,pik->pjk", rot, rot) - np.eye(3)).max(),
        np.abs(rz1 - z2).max(),
        np.abs(rz2 - (2.0 * d * z2 - z1)).max(),
        np.abs(rc - c).max(),
        np.abs(rot.transpose(0, 2, 1) - geometry.rotation_matrix(z2, z1)).max(),
        np.abs((rv * z2).sum(axis=1)).max(),
        np.abs(np.linalg.norm(rv, axis=1) - np.linalg.norm(v, axis=1)).max(),
    )
    return CheckResult("transport identities", worst <= 1e-12, f"worst residual {worst:.3e}")


def check_equator_transport() -> CheckResult:
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    worst = 0.0
    for t in np.linspace(0.01, np.pi - 0.01, 100):
        target = np.array([np.cos(t), np.sin(t), 0.0])
        worst = max(
            worst,
            np.abs(geometry.transport(e1, target, e2) - np.array([-np.sin(t), np.cos(t), 0.0])).max(),
            np.abs(geometry.transport(e1, target, e3) - e3).max(),
        )
    return CheckResult("equator transport closed form", worst <= 1e-12, f"worst residual {worst:.3e}")


def check_registered_kernels() -> CheckResult:
    bad = []
    for name in kernels.REGISTRY:
        report = kernels.validate_kernel(kernels.kernel_from_name(name))
        if not report.ok:
            bad.append(name)
    return CheckResult("registered kernels valid", not bad,
                       "all pass" if not bad else f"failing: {bad}")


def check_force_tangency() -> CheckResult:
    rng = np.random.default_rng(11)
    params = dynamics.ModelParams(kernels.paper_kernel(), 1.0)
    worst = 0.0
    for _ in range(100):
        ens = random_ensemble(rng, int(rng.integers(2, 9)))
        _, dV = dynamics.rhs(ens, params)
        vsq = (ens.velocities**2).sum(axis=1)
        # d<v,x>/dt = <dv,x> + |v|^2 must vanish along the flow
        worst = max(worst, float(np.abs((dV * ens.positions).sum(axis=1) + vsq).max()))
    return CheckResult("constraint compatibility of forces", worst <= 1e-10,
                       f"worst d<v,x>/dt {worst:.3e}")


def check_pair_system() -> CheckResult:
    rng = np.random.default_rng(13)
    kernel = kernels.paper_kernel()
    worst = 0.0
    for _ in range(100):
        params = dynamics.ModelParams(kernel, float(rng.uniform(0.1, 5.0)))
        ens = random_ensemble(rng, int(rng.integers(2, 9)))
        lhs = dynamics.pair_derivative_table(ens, params)
        amat = dynamics.coefficient_matrix(kernel.psi0, params.sigma)
        x = dynamics.pair_functional_table(ens)
        f = dynamics.inhomogeneous_table(ens, params)
        rhs_side = np.einsum("ab,ijb->ija", amat, x) + f
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs_side)))
        worst = max(worst, float((np.abs(lhs - rhs_side) / scale).max()))
    return CheckResult("linearized pair system identity", worst <= 1e-9,
                       f"worst relative residual {worst:.3e}")


def check_dissipation_identity() -> CheckResult:
    """dE/dt + D = 0, and the D read off the rhs pair pass (the energy
    ledger's) against ``pairwise_dissipation``."""
    rng = np.random.default_rng(17)
    kernel = kernels.paper_kernel()
    worst = 0.0
    worst_fused = 0.0
    for _ in range(100):
        params = dynamics.ModelParams(kernel, float(rng.uniform(0.1, 5.0)))
        ens = random_ensemble(rng, int(rng.integers(1, 9)))
        res = diagnostics.dissipation_residual(ens, params)
        rate = abs(diagnostics.energy_rate(ens, params))
        worst = max(worst, res / max(1.0, rate))
        state = np.array((ens.positions, ens.velocities))
        fused = dynamics._rhs_and_dissipation(state, params, dynamics._pair_tables(*state))[1]
        worst_fused = max(worst_fused, abs(fused - diagnostics.pairwise_dissipation(ens, params)))
    return CheckResult("energy dissipation identity", worst <= 1e-10 and worst_fused <= 1e-13,
                       f"worst scaled residual {worst:.3e}, "
                       f"fused dissipation deviation {worst_fused:.3e}")


def check_decay_rate_eigenvalues() -> CheckResult:
    worst = 0.0
    for psi0 in np.linspace(0.2, 25.0, 32):
        for sigma in np.linspace(0.05, 6.0, 32):
            mu = dynamics.spectral_abscissa(psi0, sigma)
            eigs = np.linalg.eigvals(dynamics.coefficient_matrix(psi0, sigma))
            worst = max(worst, abs(mu + eigs.real.max()))
    return CheckResult("spectral abscissa closed form", worst <= 1e-10,
                       f"worst eigensolver gap {worst:.3e}")


def check_remainder_bounds() -> CheckResult:
    rng = np.random.default_rng(19)
    kernel = kernels.paper_kernel()
    violations = 0
    for _ in range(1000):
        sigma = float(rng.uniform(0.05, 5.0))
        params = dynamics.ModelParams(kernel, sigma)
        ens = random_ensemble(rng, int(rng.integers(2, 9)), speed=float(rng.uniform(0.2, 1.5)))
        f = dynamics.inhomogeneous_table(ens, params)
        d_x, d_v, v = diagnostics.diameters(ens)
        c1 = kernel.c1_norm
        psi0 = kernel.psi0
        b2 = (v + 6.0 * c1) * v * d_x**2 + psi0 * v * d_x**3 + 0.5 * sigma * d_x**4
        b3 = ((3.0 * v + 6.0 * c1 + 2.0 * sigma) * v * d_x**2
              + (3.0 * v + 7.0 * c1) * v * d_v**2 + psi0 * v * d_x**4)
        c_const = admissibility.aggregate_constant(kernel, sigma)
        agg = c_const * (v + v * v) / 4.0 * (d_x**2 + d_v**2) + 0.5 * sigma * d_x**4
        fnorm = float(np.sqrt((f * f).sum(axis=-1)).max())
        if (np.abs(f[:, :, 1]).max() > b2 + 1e-9 or np.abs(f[:, :, 2]).max() > b3 + 1e-9
                or fnorm > agg + 1e-9):
            violations += 1
    return CheckResult("remainder bounds", violations == 0,
                       f"{violations} violations in 1000 states")


def check_pair_ceiling_fixed_point() -> CheckResult:
    kernel = kernels.paper_kernel()
    worst = 0.0
    sign_ok = True
    for sigma in (0.5, 1.0, 2.0, 5.0):
        th = admissibility.thresholds(kernel, sigma)
        mu, c = th.mu, th.c_const
        worst = max(worst, admissibility.x_m_residual(kernel, sigma, mu, c, th.x_m))
        grid = np.linspace(1e-12, 4.0, 10_000)
        h = np.sqrt(grid) - admissibility._xm_coefficient(sigma, mu, c) * kernel.psi(np.sqrt(grid))
        sign_ok = sign_ok and int((np.diff(np.sign(h)) != 0).sum()) == 1
    return CheckResult("pair ceiling fixed point", worst <= 1e-12 and sign_ok,
                       f"worst residual {worst:.3e}, unique sign change: {sign_ok}")


def check_integrator_order() -> CheckResult:
    params = dynamics.ModelParams(kernels.paper_kernel(), 1.0)
    ens = dynamics.Ensemble([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    errs = []
    for dt in (1e-2, 5e-3):
        traj = simulate(ens, params, SimConfig(dt=dt, t_end=1.0,
                                               frame_stride=int(round(1.0 / dt))))
        end = traj.final.ensemble.positions[0]
        errs.append(np.linalg.norm(end - np.array([np.cos(1.0), np.sin(1.0), 0.0])))
    ratio = errs[0] / errs[1]
    return CheckResult("integrator order", 12.0 <= ratio <= 20.0,
                       f"halving ratio {ratio:.2f}")


def check_energy_monotone() -> CheckResult:
    scenario = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=2.0, frame_stride=10))
    traj = simulate(scenario.ensemble, scenario.params, scenario.sim)
    e = traj.series("e_total")
    worst = float(np.max(np.diff(e) / np.maximum(1.0, e[:-1])))
    return CheckResult("discrete energy monotone", worst <= 1e-8,
                       f"worst frame-to-frame increase {worst:.3e}")


ALL_CHECKS = (
    check_transport_identities,
    check_equator_transport,
    check_registered_kernels,
    check_force_tangency,
    check_pair_system,
    check_dissipation_identity,
    check_decay_rate_eigenvalues,
    check_remainder_bounds,
    check_pair_ceiling_fixed_point,
    check_integrator_order,
    check_energy_monotone,
)


def run_all() -> list[CheckResult]:
    """Run every check in declaration order."""
    return [check() for check in ALL_CHECKS]
