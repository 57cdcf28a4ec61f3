"""Spatial discretization backends reducing the PDE to decoupled modes.

The elliptic operator A = -K d^2/dx^2 on (0, 1) with homogeneous Dirichlet
conditions has the orthonormal eigensystem lambda_m = K m^2 pi^2,
phi_m = sqrt(2) sin(m pi x).  The spectral backend uses it directly; the
FEM backend assembles continuous piecewise-polynomial stiffness and mass
matrices on a uniform grid and diagonalizes the generalized eigenproblem,
producing mass-orthonormal discrete modes.  Either way the time stepper
sees scalar mode problems u_m' + lambda_m B u_m = f_m.

Its quadrature, `composite_gauss`, takes numpy's Gauss-Legendre rules
(`leggauss`).  The generalized eigenproblem is solved by scipy's
`scipy.linalg.eigh`, imported inside `fem_backend`: the package's only use
of scipy, so a spectral run never imports it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FemSpace",
    "ModeSystem",
    "spectral_backend",
    "fem_backend",
    "ritz_projection",
    "composite_gauss",
]


def _sine_values(mode_count, x):
    # rows m-1: the orthonormal eigenfunctions sqrt(2) sin(m pi x), m <= mode_count
    return np.sqrt(2.0) * np.sin(np.outer(np.arange(1, mode_count + 1) * np.pi, x))


def _cardinal_values(r, x, nderiv):
    """Column j: the nderiv-th derivative at x of the j-th cardinal basis
    function on the equispaced reference nodes 0, 1/r, ..., 1."""
    nodes = np.arange(r + 1) / r
    columns = []
    for j in range(r + 1):
        others = np.delete(nodes, j)
        coeffs = np.polyder(np.poly(others) / np.prod(nodes[j] - others), nderiv)
        columns.append(np.polyval(coeffs, x))
    return np.stack(columns, axis=-1)


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

    def basis_values(self, x):
        """Matrix of interior basis values, column i = chi_i(x_q)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        r = self.degree
        elem = np.clip((x * self.element_count).astype(int), 0, self.element_count - 1)
        xi = x * self.element_count - elem
        out = np.zeros((x.size, self.nodes.size))
        for j, values in enumerate(_cardinal_values(r, xi, 0).T):
            out[np.arange(x.size), elem * r + j] += values
        return out[:, 1:-1]


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
        if lam.size < 1 or not np.all((0.0 < lam) & (lam < np.inf)):
            raise ValueError(f"eigenvalues must be positive and finite, got {lam}")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be nondecreasing")

    @property
    def mode_count(self):
        return self.eigenvalues.size

    def mode_values(self, x):
        """Values of every mode shape at points x; row m-1 is mode m."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.backend == "spectral":
            return _sine_values(self.mode_count, x)
        return (self.space.basis_values(x) @ self.mode_shapes).T


def spectral_backend(M, K=1.0):
    """Exact sine eigensystem on (0, 1): lambda_m = K m^2 pi^2."""
    if M < 1:
        raise ValueError(f"mode count M must be >= 1, got {M}")
    if not 0.0 < K < math.inf:
        raise ValueError(f"diffusivity K must be positive and finite, got {K}")
    m = np.arange(1, M + 1)
    return ModeSystem(K * (m * math.pi) ** 2, float(K), "spectral")


def _assemble(elements, r, K):
    # r+1 Gauss points integrate the degree-2r mass integrand exactly
    xg, wg = composite_gauss(1, r + 1)
    phi = _cardinal_values(r, xg, 0)
    dphi = _cardinal_values(r, xg, 1)
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
    if not 0.0 < K < math.inf:
        raise ValueError(f"diffusivity K must be positive and finite, got {K}")
    space = _assemble(elements, r, K)
    from scipy.linalg import eigh

    lam, vecs = eigh(space.stiffness, space.mass)
    system = ModeSystem(lam, float(K), "fem", mode_shapes=vecs, space=space)
    return space, system


def ritz_projection(space, u0):
    """Elliptic projection: A(R_h u0, chi) = A(u0, chi) for all chi.

    The load integrates by parts element-wise,
    A(u0, chi)|_e = K ([u0 chi']_e - int_e u0 chi''),
    so only values of u0 are needed and members of the space are
    reproduced to machine precision.  `u0` maps a 1-D array of points to
    one value each; it is called once on the element ends and once on the
    quadrature points.
    """
    h = space.h
    elements = np.arange(space.element_count)
    ends = np.append(elements, space.element_count) * h
    end_values = np.asarray(u0(ends), dtype=float).reshape(ends.shape)
    if abs(end_values[0]) > 1e-12 or abs(end_values[-1]) > 1e-12:
        warnings.warn(
            "initial datum does not vanish on the boundary; projecting anyway",
            stacklevel=2,
        )
    r = space.degree
    xg, wg = composite_gauss(1, r + 2)
    ddphi = _cardinal_values(r, xg, 2)
    dphi_ends = _cardinal_values(r, np.array([0.0, 1.0]), 1).T
    load = np.zeros(space.nodes.size)
    points = (elements[:, None] + xg) * h
    quad_values = np.asarray(u0(points.ravel()), dtype=float).reshape(points.shape)
    for e in range(space.element_count):
        u_left, u_right = end_values[e], end_values[e + 1]
        contrib = (u_right * dphi_ends[:, 1] - u_left * dphi_ends[:, 0]) / h
        contrib -= np.einsum("q,q,qi->i", wg, quad_values[e], ddphi) / h
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
