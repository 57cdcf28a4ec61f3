"""Spatial backends: exact sine system, FEM eigensystem, Ritz projection."""

import math

import numpy as np
import pytest

from fracdg.spatial import (
    ModeSystem,
    composite_gauss,
    fem_backend,
    ritz_projection,
    spectral_backend,
)


def test_spectral_eigenvalues():
    system = spectral_backend(2, K=1.0)
    assert system.mode_count == 2
    assert system.eigenvalues == pytest.approx([math.pi**2, 4 * math.pi**2], rel=1e-14)
    assert spectral_backend(3, K=2.5).eigenvalues[2] == pytest.approx(2.5 * 9 * math.pi**2)


def test_spectral_orthonormality():
    system = spectral_backend(4)
    x, w = composite_gauss(64, 10)
    for i in range(1, 5):
        for j in range(1, 5):
            inner = float(w @ (system.shape_values(i, x) * system.shape_values(j, x)))
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_spectral_modes_satisfy_operator():
    # -K phi'' = lambda phi, checked with a central difference
    system = spectral_backend(3, K=2.0)
    h = 1e-4
    for m in (1, 2, 3):
        for x in (0.217, 0.5, 0.83):
            vals = system.shape_values(m, np.array([x - h, x, x + h]))
            second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
            assert -2.0 * second == pytest.approx(
                system.eigenvalues[m - 1] * vals[1], rel=1e-6
            )


def test_spectral_validation():
    with pytest.raises(ValueError, match="M"):
        spectral_backend(0)
    with pytest.raises(ValueError, match="K"):
        spectral_backend(2, K=0.0)
    with pytest.raises(IndexError):
        spectral_backend(2).shape_values(3, np.array([0.5]))


def test_mode_system_validation():
    with pytest.raises(ValueError, match="positive"):
        ModeSystem(np.array([0.0, 1.0]), 1.0, "spectral")
    with pytest.raises(ValueError, match="nondecreasing"):
        ModeSystem(np.array([4.0, 1.0]), 1.0, "spectral")


def test_fem_single_interior_node():
    # P1 on two elements of width 1/2: hand assembly gives 2/h and 2h/3
    space, system = fem_backend(2, 1, K=1.0)
    assert space.stiffness.shape == (1, 1)
    assert space.stiffness[0, 0] == pytest.approx(4.0, rel=1e-14)
    assert space.mass[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert system.eigenvalues[0] == pytest.approx(12.0, rel=1e-12)


def test_fem_eigenvalue_convergence():
    _, system = fem_backend(64, 1)
    assert abs(system.eigenvalues[0] - math.pi**2) / math.pi**2 < 1e-3
    _, refined = fem_backend(64, 2)
    assert abs(refined.eigenvalues[0] - math.pi**2) < abs(system.eigenvalues[0] - math.pi**2)


def test_fem_mass_orthonormality():
    space, system = fem_backend(16, 2)
    gram = system.mode_shapes.T @ space.mass @ system.mode_shapes
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


def test_fem_eigen_residual():
    space, system = fem_backend(16, 2)
    for m in range(system.mode_count):
        z = system.mode_shapes[:, m]
        resid = space.stiffness @ z - system.eigenvalues[m] * (space.mass @ z)
        assert np.linalg.norm(resid) <= 1e-10 * max(1.0, system.eigenvalues[m])
    assert np.all(np.diff(system.eigenvalues) >= 0.0)


def test_fem_validation():
    with pytest.raises(ValueError, match="element"):
        fem_backend(1, 1)
    with pytest.raises(ValueError, match="degree"):
        fem_backend(4, 0)
    with pytest.raises(ValueError, match="K"):
        fem_backend(4, 1, K=-1.0)


def test_fem_nodal_basis_property():
    space, _ = fem_backend(5, 3)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(space.interior_count)
    assert space.evaluate(coeffs, space.nodes[1:-1]) == pytest.approx(coeffs, abs=1e-12)
    assert space.evaluate(coeffs, np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0], abs=1e-14)


def test_ritz_reproduces_member_functions():
    space, _ = fem_backend(4, 1)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(space.interior_count)
    projected = ritz_projection(space, lambda x: space.evaluate(coeffs, x))
    assert projected == pytest.approx(coeffs, abs=1e-12)


def test_ritz_convergence_rate():
    # nodal values are superconvergent in 1D, so the O(h^2) rate is
    # measured in the function max error on a fine sample
    sample = np.linspace(0.0, 1.0, 4097)[1:-1]
    errors = []
    for elements in (64, 128):
        space, _ = fem_backend(elements, 1)
        coeffs = ritz_projection(space, lambda x: np.sin(math.pi * x))
        errors.append(np.max(np.abs(space.evaluate(coeffs, sample) - np.sin(math.pi * sample))))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_ritz_boundary_warning():
    space, _ = fem_backend(4, 1)
    with pytest.warns(UserWarning, match="boundary"):
        coeffs = ritz_projection(space, lambda x: np.asarray(x, dtype=float))
    assert np.all(np.isfinite(coeffs))


def test_composite_gauss_weights():
    x, w = composite_gauss(8, 3)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert float(w @ x**5) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert np.all(np.diff(x) > 0)
