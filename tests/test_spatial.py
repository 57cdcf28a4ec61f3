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
    vals = system.mode_values(x)
    for i in range(1, 5):
        for j in range(1, 5):
            inner = float(w @ (vals[i - 1] * vals[j - 1]))
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_spectral_modes_satisfy_operator():
    # -K phi'' = lambda phi, checked with a central difference
    system = spectral_backend(3, K=2.0)
    h = 1e-4
    for m in (1, 2, 3):
        for x in (0.217, 0.5, 0.83):
            vals = system.mode_values(np.array([x - h, x, x + h]))[m - 1]
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
        spectral_backend(2).mode_values(np.array([0.5]))[2]


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
    coeffs = rng.standard_normal(space.stiffness.shape[0])
    assert space.basis_values(space.nodes[1:-1]) @ coeffs == pytest.approx(coeffs, abs=1e-12)
    assert space.basis_values(np.array([0.0, 1.0])) @ coeffs == pytest.approx([0.0, 0.0], abs=1e-14)


def test_ritz_reproduces_member_functions():
    space, _ = fem_backend(4, 1)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(space.stiffness.shape[0])
    projected = ritz_projection(space, lambda x: space.basis_values(x) @ coeffs)
    assert projected == pytest.approx(coeffs, abs=1e-12)


def test_ritz_convergence_rate():
    # nodal values are superconvergent in 1D, so the O(h^2) rate is
    # measured in the function max error on a fine sample
    sample = np.linspace(0.0, 1.0, 4097)[1:-1]
    errors = []
    for elements in (64, 128):
        space, _ = fem_backend(elements, 1)
        coeffs = ritz_projection(space, lambda x: np.sin(math.pi * x))
        errors.append(np.max(np.abs(space.basis_values(sample) @ coeffs - np.sin(math.pi * sample))))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_ritz_boundary_warning():
    space, _ = fem_backend(4, 1)
    with pytest.warns(UserWarning, match="boundary"):
        coeffs = ritz_projection(space, lambda x: np.asarray(x, dtype=float))
    assert np.all(np.isfinite(coeffs))


@pytest.mark.parametrize("value", [0.0, np.zeros(1)])
def test_ritz_rejects_a_datum_that_is_not_vectorised(value):
    # one value for an array of points fails instead of broadcasting
    space, _ = fem_backend(4, 2)
    with pytest.raises(ValueError):
        ritz_projection(space, lambda x: value)


def per_element_ritz(space, u0):
    """The Ritz load assembled element by element, u0 called on each
    element's quadrature points and on each of its two ends."""
    r, h = space.degree, space.h
    # the cardinal basis on the reference nodes 0, 1/r, ..., 1, as poly1d
    nodes = np.arange(r + 1) / r
    others = [np.delete(nodes, j) for j in range(r + 1)]
    cardinals = [np.poly1d(np.poly(o) / np.prod(nodes[j] - o)) for j, o in enumerate(others)]
    derivs = [p.deriv() for p in cardinals]
    xg, wg = np.polynomial.legendre.leggauss(r + 2)
    xg, wg = 0.5 * (xg + 1.0), 0.5 * wg
    ddphi = np.array([[p.deriv()(x) for p in derivs] for x in xg])
    dphi_ends = np.array([[p(0.0), p(1.0)] for p in derivs])
    load = np.zeros(space.nodes.size)
    for e in range(space.element_count):
        uvals = np.asarray(u0((e + xg) * h), dtype=float)
        u_left = float(np.asarray(u0(e * h)).ravel()[0])
        u_right = float(np.asarray(u0((e + 1) * h)).ravel()[0])
        contrib = (u_right * dphi_ends[:, 1] - u_left * dphi_ends[:, 0]) / h
        contrib -= np.einsum("q,q,qi->i", wg, uvals, ddphi) / h
        load[e * r : e * r + r + 1] += space.diffusivity * contrib
    return np.linalg.solve(space.stiffness, load[1:-1])


@pytest.mark.parametrize("elements, degree", [(64, 2), (49, 1), (7, 3)])
def test_ritz_calls_the_datum_twice(elements, degree):
    # once on the element ends and once on the quadrature points, with the
    # coefficients of the element-by-element assembly bit for bit
    space, _ = fem_backend(elements, degree, 0.5)
    calls = []

    def u0(x):
        calls.append(np.shape(x))
        return np.sin(math.pi * x) + 0.3 * np.sin(3.0 * math.pi * x)

    coeffs = ritz_projection(space, u0)
    assert calls == [(elements + 1,), (elements * (degree + 2),)]
    assert np.array_equal(coeffs, per_element_ritz(space, u0))


def test_composite_gauss_weights():
    x, w = composite_gauss(8, 3)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert float(w @ x**5) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert np.all(np.diff(x) > 0)
