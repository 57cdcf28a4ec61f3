"""Spatial discretization backends reducing the PDE to decoupled modes.

The elliptic operator A = -K d^2/dx^2 on (0, 1) with homogeneous Dirichlet
conditions has the orthonormal eigensystem lambda_m = K m^2 pi^2,
phi_m = sqrt(2) sin(m pi x).  The spectral backend uses it directly; the
FEM backend assembles continuous piecewise-polynomial stiffness and mass
matrices on a uniform grid and diagonalizes the generalized eigenproblem,
producing mass-orthonormal discrete modes.  Either way the time stepper
sees scalar mode problems u_m' + lambda_m B u_m = f_m.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

__all__ = [
    "FemSpace",
    "ModeSystem",
    "spectral_backend",
    "fem_backend",
    "ritz_projection",
    "composite_gauss",
]


def _reference_lagrange(r):
    # cardinal basis on equispaced reference nodes 0, 1/r, ..., 1
    nodes = np.arange(r + 1) / r
    coeffs = []
    for j in range(r + 1):
        others = np.delete(nodes, j)
        poly = np.poly1d(np.poly(others) / np.prod(nodes[j] - others))
        coeffs.append(poly)
    return nodes, coeffs


@dataclass(frozen=True)
class FemSpace:
    """Uniform continuous P_r space on (0, 1) with Dirichlet ends removed."""

    element_count: int
    degree: int
    diffusivity: float
    nodes: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray

    @property
    def h(self):
        return 1.0 / self.element_count

    @property
    def interior_count(self):
        return self.nodes.size - 2

    def basis_values(self, x):
        """Matrix of interior basis values, column i = chi_i(x_q)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        r = self.degree
        _, cardinals = _reference_lagrange(r)
        elem = np.clip((x * self.element_count).astype(int), 0, self.element_count - 1)
        xi = x * self.element_count - elem
        out = np.zeros((x.size, self.nodes.size))
        for j, poly in enumerate(cardinals):
            out[np.arange(x.size), elem * r + j] += poly(xi)
        return out[:, 1:-1]

    def evaluate(self, coeffs, x):
        """Values of the interior expansion sum_i c_i chi_i at points x."""
        return self.basis_values(x) @ np.asarray(coeffs, dtype=float)


@dataclass(frozen=True)
class ModeSystem:
    """Eigenvalues and mode shapes feeding the scalar time stepper."""

    eigenvalues: np.ndarray
    diffusivity: float
    backend: str
    mode_shapes: np.ndarray = None
    space: FemSpace = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        if lam.size < 1 or np.any(lam <= 0.0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be nondecreasing")

    @property
    def mode_count(self):
        return self.eigenvalues.size

    def shape_values(self, m, x):
        """Values of the m-th (1-based) mode shape at points x."""
        x = np.asarray(x, dtype=float)
        if not 1 <= m <= self.mode_count:
            raise IndexError(f"mode index {m} outside 1..{self.mode_count}")
        if self.backend == "spectral":
            return math.sqrt(2.0) * np.sin(m * math.pi * x)
        return self.space.evaluate(self.mode_shapes[:, m - 1], x)


def spectral_backend(M, K=1.0):
    """Exact sine eigensystem on (0, 1): lambda_m = K m^2 pi^2."""
    if M < 1:
        raise ValueError(f"mode count M must be >= 1, got {M}")
    if K <= 0.0:
        raise ValueError(f"diffusivity K must be positive, got {K}")
    m = np.arange(1, M + 1)
    return ModeSystem(K * (m * math.pi) ** 2, float(K), "spectral")


def _assemble(elements, r, K):
    ref_nodes, cardinals = _reference_lagrange(r)
    derivs = [p.deriv() for p in cardinals]
    # r+1 Gauss points integrate the degree-2r mass integrand exactly
    xg, wg = np.polynomial.legendre.leggauss(r + 1)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    phi = np.array([[p(x) for p in cardinals] for x in xg])
    dphi = np.array([[p(x) for p in derivs] for x in xg])
    local_mass = np.einsum("q,qi,qj->ij", wg, phi, phi)
    local_stiff = np.einsum("q,qi,qj->ij", wg, dphi, dphi)
    h = 1.0 / elements
    n_nodes = elements * r + 1
    mass = np.zeros((n_nodes, n_nodes))
    stiff = np.zeros((n_nodes, n_nodes))
    for e in range(elements):
        sl = slice(e * r, e * r + r + 1)
        mass[sl, sl] += h * local_mass
        stiff[sl, sl] += (K / h) * local_stiff
    nodes = np.linspace(0.0, 1.0, n_nodes)
    return FemSpace(elements, r, float(K), nodes, stiff[1:-1, 1:-1], mass[1:-1, 1:-1])


def fem_backend(elements, r, K=1.0):
    """Uniform P_r space and its mass-orthonormal discrete eigensystem."""
    if elements < 2:
        raise ValueError(f"element count must be >= 2, got {elements}")
    if r < 1:
        raise ValueError(f"polynomial degree r must be >= 1, got {r}")
    if K <= 0.0:
        raise ValueError(f"diffusivity K must be positive, got {K}")
    space = _assemble(elements, r, K)
    lam, vecs = eigh(space.stiffness, space.mass)
    system = ModeSystem(lam, float(K), "fem", mode_shapes=vecs, space=space)
    return space, system


def ritz_projection(space, u0):
    """Elliptic projection: A(R_h u0, chi) = A(u0, chi) for all chi.

    The load integrates by parts element-wise,
    A(u0, chi)|_e = K ([u0 chi']_e - int_e u0 chi''),
    so only values of u0 are needed and members of the space are
    reproduced to machine precision.
    """
    if abs(float(np.asarray(u0(0.0)).ravel()[0])) > 1e-12 or abs(
        float(np.asarray(u0(1.0)).ravel()[0])
    ) > 1e-12:
        warnings.warn(
            "initial datum does not vanish on the boundary; projecting anyway",
            stacklevel=2,
        )
    r = space.degree
    _, cardinals = _reference_lagrange(r)
    derivs = [p.deriv() for p in cardinals]
    seconds = [p.deriv() for p in derivs]
    xg, wg = np.polynomial.legendre.leggauss(r + 2)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    ddphi = np.array([[p(x) for p in seconds] for x in xg])
    dphi_ends = np.array([[p(0.0), p(1.0)] for p in derivs])
    h = space.h
    load = np.zeros(space.nodes.size)
    for e in range(space.element_count):
        xs = (e + xg) * h
        uvals = np.asarray(u0(xs), dtype=float)
        if uvals.shape != xs.shape:
            uvals = np.array([u0(x) for x in xs], dtype=float)
        u_left = float(np.asarray(u0(e * h)).ravel()[0])
        u_right = float(np.asarray(u0((e + 1) * h)).ravel()[0])
        contrib = (u_right * dphi_ends[:, 1] - u_left * dphi_ends[:, 0]) / h
        contrib -= np.einsum("q,q,qi->i", wg, uvals, ddphi) / h
        load[e * r : e * r + r + 1] += space.diffusivity * contrib
    return np.linalg.solve(space.stiffness, load[1:-1])


def composite_gauss(panels, npoints):
    """Composite Gauss rule on (0, 1): `npoints` per panel."""
    xg, wg = np.polynomial.legendre.leggauss(npoints)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    width = 1.0 / panels
    x = (np.arange(panels)[:, None] + xg[None, :]) * width
    w = np.broadcast_to(wg * width, (panels, npoints))
    return x.ravel(), w.ravel()
