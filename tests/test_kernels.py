import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphereflock import (OutOfRange, eval_psi, kernel_from_name, linear_kernel,
                         make_kernel, paper_kernel, validate_kernel)
from sphereflock.kernels import REGISTRY


class TestPaperKernel:
    def test_vanishes_at_diameter(self):
        assert eval_psi(paper_kernel(), 2.0) == 0.0

    def test_value_at_zero(self):
        assert_allclose(eval_psi(paper_kernel(), 0.0), 3.0 * (math.e**2 - 1.0), rtol=1e-15)

    def test_value_at_one(self):
        # substitute r = 1 into 3 (e^(2-r) - 1)
        assert_allclose(eval_psi(paper_kernel(), 1.0), 3.0 * (math.e - 1.0), rtol=1e-15)

    def test_cached_constants(self):
        k = paper_kernel()
        assert_allclose(k.psi0, 3.0 * (math.e**2 - 1.0), rtol=1e-15)
        assert_allclose(k.c1_norm, 6.0 * math.e**2 - 3.0, rtol=1e-15)

    def test_c1_norm_bounds_dense_grid_maximum(self):
        k = paper_kernel()
        grid = np.linspace(0.0, 2.0, 100_001)
        grid_max = np.max(np.abs(k.psi(grid)) + np.abs(k.psi_prime(grid)))
        assert grid_max <= k.c1_norm * (1.0 + 1e-12)
        assert grid_max >= k.c1_norm * (1.0 - 1e-4)

    def test_derivative_negative_and_consistent(self):
        k = paper_kernel()
        grid = np.linspace(0.0, 2.0, 1001)
        assert np.all(k.psi_prime(grid) < 0.0)
        h = 1e-6
        inner = grid[1:-1]
        fd = (k.psi(inner + h) - k.psi(inner - h)) / (2.0 * h)
        assert np.abs(fd - k.psi_prime(inner)).max() <= 1e-6

    def test_deterministic(self):
        k = paper_kernel()
        r = np.linspace(0.0, 2.0, 97)
        assert np.array_equal(eval_psi(k, r), eval_psi(k, r))


class TestEvalPsi:
    def test_domain_checks(self):
        k = paper_kernel()
        with pytest.raises(OutOfRange):
            eval_psi(k, -1e-9)
        with pytest.raises(OutOfRange):
            eval_psi(k, 2.0 + 1e-9)
        # rounding slack just past 2 is clamped, not rejected
        assert eval_psi(k, 2.0 + 1e-13) == 0.0

    def test_nan_is_outside_the_domain(self):
        for r in (float("nan"), np.array([0.5, np.nan])):
            with pytest.raises(OutOfRange):
                eval_psi(paper_kernel(), r)

    def test_array_input(self):
        out = eval_psi(paper_kernel(), np.array([0.0, 2.0]))
        assert out.shape == (2,)
        assert out[1] == 0.0


class TestValidateKernel:
    def test_paper_kernel_passes(self):
        assert validate_kernel(paper_kernel(), 1000).ok

    def test_registry_kernels_pass_at_full_grid(self):
        for name in REGISTRY:
            assert validate_kernel(kernel_from_name(name), 10_000).ok, name

    def test_constant_kernel_fails(self):
        const = make_kernel("const", lambda r: np.ones_like(np.asarray(r, dtype=float)),
                            lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        report = validate_kernel(const, 1000)
        assert not report.zero_at_two
        assert not report.strictly_decreasing
        assert report.nonnegative
        assert not report.ok

    def test_linear_kernel_values_and_report(self):
        k = linear_kernel(1.0)
        assert k.psi0 == 2.0
        assert k.c1_norm == 3.0
        report = validate_kernel(k, 1000)
        assert report.ok
        # the grid estimate is interior-only, so it sits just under 3
        assert 3.0 - 1e-2 <= report.c1_norm_grid <= 3.0

    def test_grid_size_validation(self):
        with pytest.raises(OutOfRange):
            validate_kernel(paper_kernel(), 1)


def test_make_kernel_numeric_c1_norm_is_safe_upper_bound():
    k = make_kernel("expish", lambda r: 3.0 * (np.exp(2.0 - r) - 1.0),
                    lambda r: -3.0 * np.exp(2.0 - r))
    analytic = 6.0 * math.e**2 - 3.0
    assert analytic <= k.c1_norm <= analytic * 1.02


def test_kernel_from_name_unknown():
    with pytest.raises(OutOfRange):
        kernel_from_name("nope")


def test_kernel_from_name_parameter_count():
    with pytest.raises(OutOfRange, match="kernel 'paper' takes at most 0 parameter"):
        kernel_from_name("paper", 2.0)
    with pytest.raises(OutOfRange, match="kernel 'linear' takes at most 1 parameter"):
        kernel_from_name("linear", 1.0, 2.0)
    assert kernel_from_name("linear", 2.0).psi0 == 4.0


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_linear_kernel_scale_must_be_finite_and_positive(scale):
    with pytest.raises(OutOfRange, match="finite and positive"):
        linear_kernel(scale)
