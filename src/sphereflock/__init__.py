"""Flocking with inter-particle bonding on the unit sphere.

Simulation of the second-order alignment model whose agents live on the
unit sphere and interact through a distance-weighted communication rate
and an attractive bonding force, plus the supporting calculus: transport
geometry, energy-dissipation diagnostics, the linearized pair system, and
the admissibility condition guaranteeing exponential rendezvous.
"""

__version__ = "0.1.0"

from .admissibility import (AdmissibilityReport, Thresholds, aggregate_constant,
                            check_initial, solve_x_m, thresholds, x_m_residual)
from .diagnostics import (DiagnosticsFrame, RateFit, VelocityBoundReport, diameters,
                          dissipation_residual, energy, energy_rate, fit_decay_rate,
                          pairwise_dissipation, velocity_bound_check)
from .dynamics import (Ensemble, ModelParams, coefficient_matrix, inhomogeneous_table,
                       lagrange_multiplier, pair_derivative_table, pair_functional_table,
                       rhs, spectral_abscissa)
from .errors import (AntipodalPair, ConfigError, InsufficientSamples,
                     InvalidEnsemble, NonFinite, NonPositiveValue, NoRoot, NotTangent,
                     OffSphere, OutOfRange, SphereFlockError, ZeroVector)
from .geometry import (ANTIPODAL_TOL, COINCIDENT_TOL, pairwise_transport,
                       project_to_sphere, project_to_tangent, rotation_matrix,
                       tangent_vector, transport, unit_vector)
from .integrator import Frame, SimConfig, StepResult, Trajectory, rk4_step, simulate
from .kernels import (Kernel, KernelReport, eval_psi, kernel_from_name,
                      linear_kernel, make_kernel, paper_kernel, validate_kernel)
from .scenarios import (PRESETS, Scenario, paper_scenario, preset_scenario,
                        random_scenario)
