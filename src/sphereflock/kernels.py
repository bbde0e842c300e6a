"""Communication-rate kernels.

A valid kernel is a nonnegative, strictly decreasing C^1 function on the
chord-distance range [0, 2] with psi(2) = 0.  Each kernel carries its value
at zero (``psi0``) and an upper bound for sup |psi| + |psi'| on [0, 2]
(``c1_norm``); both feed the admissibility constants, so ``c1_norm`` must
be an upper bound, never an underestimate.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfRange

# Grid size for numeric c1_norm estimation, inflated by 1% for safety.
_C1_GRID = 100_001
_C1_INFLATION = 1.01

# Slack accepted on evaluations just beyond r = 2 (rounding in |x_i - x_j|).
_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class Kernel:
    """Communication rate r -> psi(r) with cached constants.

    ``psi`` and ``psi_prime`` must accept numpy arrays.  Construction does
    not enforce validity; run :func:`validate_kernel` for that, so that
    deliberately broken kernels can still be built and reported on.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    psi0: float
    c1_norm: float


def eval_psi(kernel: Kernel, r):
    """Evaluate the kernel at chord distance(s) r in [0, 2]."""
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 2.0 + _DOMAIN_SLACK)):  # NaN fails too
        raise OutOfRange("kernel argument outside [0, 2]")
    out = kernel.psi(np.minimum(arr, 2.0))
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def make_kernel(name, psi, psi_prime, psi0=None, c1_norm=None) -> Kernel:
    """Build a kernel, computing psi0 and c1_norm numerically if not given.

    A numeric c1_norm comes from a dense grid maximum of |psi| + |psi'|
    inflated by 1%; supply the analytic value where known.
    """
    if psi0 is None:
        psi0 = float(psi(np.asarray(0.0)))
    if c1_norm is None:
        grid = np.linspace(0.0, 2.0, _C1_GRID)
        c1_norm = float(np.max(np.abs(psi(grid)) + np.abs(psi_prime(grid)))) * _C1_INFLATION
    return Kernel(name=name, psi=psi, psi_prime=psi_prime, psi0=float(psi0),
                  c1_norm=float(c1_norm))


def paper_kernel() -> Kernel:
    """The built-in benchmark kernel psi(r) = 3 (e^(2-r) - 1).

    psi0 = 3 (e^2 - 1); |psi| + |psi'| = 6 e^(2-r) - 3 is maximal at 0,
    giving c1_norm = 6 e^2 - 3 analytically.
    """
    e2 = math.exp(2.0)
    return Kernel(
        name="paper",
        psi=lambda r: 3.0 * (np.exp(2.0 - r) - 1.0),
        psi_prime=lambda r: -3.0 * np.exp(2.0 - r),
        psi0=3.0 * (e2 - 1.0),
        c1_norm=6.0 * e2 - 3.0,
    )


def linear_kernel(scale: float = 1.0) -> Kernel:
    """psi(r) = scale * (2 - r); psi0 = 2*scale, c1_norm = 3*scale."""
    if not (math.isfinite(scale) and scale > 0):
        raise OutOfRange(f"linear kernel scale must be finite and positive, got {scale!r}")
    return Kernel(
        name="linear",
        psi=lambda r: scale * (2.0 - r),
        psi_prime=lambda r: np.full_like(np.asarray(r, dtype=float), -scale),
        psi0=2.0 * scale,
        c1_norm=3.0 * scale,
    )


#: Kernels selectable by name from run configurations.
REGISTRY: dict[str, Callable[..., Kernel]] = {
    "paper": paper_kernel,
    "linear": linear_kernel,
}


def kernel_from_name(name: str, *params) -> Kernel:
    if name not in REGISTRY:
        raise OutOfRange(f"unknown kernel {name!r}; registered: {sorted(REGISTRY)}")
    most = len(inspect.signature(REGISTRY[name]).parameters)
    if len(params) > most:
        raise OutOfRange(f"kernel {name!r} takes at most {most} parameter(s), got {len(params)}")
    return REGISTRY[name](*params)


@dataclass(frozen=True)
class KernelReport:
    """Outcome of the kernel validity checks (failures reported, not raised)."""

    zero_at_two: bool
    strictly_decreasing: bool
    nonnegative: bool
    c1_norm_consistent: bool
    c1_norm_grid: float

    @property
    def ok(self) -> bool:
        return (self.zero_at_two and self.strictly_decreasing
                and self.nonnegative and self.c1_norm_consistent)


def validate_kernel(kernel: Kernel, grid_points: int = 10_000) -> KernelReport:
    """Check the kernel conditions on a uniform grid over [0, 2].

    Checks: |psi(2)| <= 1e-10, strict decrease across the grid,
    nonnegativity, and that the declared c1_norm upper-bounds a centered
    finite-difference estimate of sup |psi| + |psi'|.  Monotonicity is a
    grid check, not a symbolic one; smoothness is trusted from the
    constructor's derivative function.
    """
    if grid_points < 2:
        raise OutOfRange("grid_points must be at least 2")
    grid = np.linspace(0.0, 2.0, grid_points)
    vals = kernel.psi(grid)

    zero_at_two = bool(abs(float(kernel.psi(np.asarray(2.0)))) <= 1e-10)
    strictly_decreasing = bool(np.all(np.diff(vals) < 0.0))
    nonnegative = bool(np.min(vals) >= -1e-12)

    h = grid[1] - grid[0]
    fd = (vals[2:] - vals[:-2]) / (2.0 * h)
    c1_grid = float(np.max(np.abs(vals[1:-1]) + np.abs(fd)))
    c1_consistent = c1_grid <= kernel.c1_norm * (1.0 + 1e-3) + 1e-9

    return KernelReport(
        zero_at_two=zero_at_two,
        strictly_decreasing=strictly_decreasing,
        nonnegative=nonnegative,
        c1_norm_consistent=c1_consistent,
        c1_norm_grid=c1_grid,
    )
