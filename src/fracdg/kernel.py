"""Weakly singular kernel machinery for the fractional time operator.

The operator of order alpha in (-1, 0) acts on a function v through

    (B v)(t) = d/dt int_0^t w(t-s) v(s) ds,    w(t) = t^alpha / Gamma(alpha+1).

For a piecewise polynomial v with breakpoints t_0 < t_1 < ... integration by
parts turns this into the jump representation

    (B v)(t) = w(t) v(0+) + sum_{t_i < t} w(t - t_i) [v]^i
               + int_0^t w(t - s) v'(s) ds,

where [v]^i = v(t_i+) - v(t_i-).  Every integral a DG time stepper then needs
is a polynomial against a pure power kernel.  This module evaluates those
integrals with Gauss-Jacobi rules (exact for the singular near-diagonal
cases), differences of such rules, or Gauss-Legendre once the singularity is
well separated from the integration interval, and assembles them into the
memory-matrix blocks that discretize the history term.  Where many time
nodes share one source interval (the near-field blocks), the rules of all
of them are built together: grouped by branch, one array per group.  A
far-field block is L K R: cached tables of the weighted basis at reference
Gauss-Legendre nodes on either side of the kernel matrix
K = (t_q - s_r)^alpha, the only factor built per pair.

A Gauss-Legendre rule mapped to one interval serves many pairs: every jump
column of a target whose singular point is far enough off takes one of a
few point counts, and every far block maps the same rule to its target and
its source.  The build's table (`_interval_rule`) holds these rules, with
the Legendre values the jump columns need, read-only and keyed by (point
count, interval, degree); per pair only the kernel powers and the products
remain.

`MemoryOperator` holds every block of one mesh, order and pair of degree
vectors, built once; the DG march, the stability report and the bilinear
form `memory_form` all apply the memory operator through it.  Each build
starts with an empty table, so no build reads another's entries.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg
from scipy.special import roots_jacobi

__all__ = [
    "MemoryBlock",
    "MemoryOperator",
    "coercivity_constants",
    "gauss_jacobi_rule",
    "memory_block",
    "memory_form",
    "operator_form",
    "l2_form",
]


def _check_alpha(alpha):
    """alpha as a float; ValueError unless it lies in (-1, 0)."""
    alpha = float(alpha)
    if not -1.0 < alpha < 0.0:
        raise ValueError(f"fractional order alpha must lie in (-1, 0), got {alpha}")
    return alpha


def coercivity_constants(alpha):
    """Coercivity and continuity constants of the fractional operator.

    c_alpha = cos(alpha pi/2) / pi^alpha * |alpha|^(-alpha) / (1-alpha)^(1-alpha)
    d_alpha = 1 / cos(alpha pi/2)

    The bilinear form Q(v, w) = int_0^T (B v) w dt satisfies
    Q(v, v) >= c_alpha T^alpha int v^2 and |Q(v, w)|^2 <= d_alpha^2 Q(v,v) Q(w,w).
    Both constants tend to 1 as alpha -> 0-.
    """
    alpha = _check_alpha(alpha)
    cos_half = math.cos(alpha * math.pi / 2.0)
    c_alpha = (cos_half / math.pi**alpha) * abs(alpha) ** (-alpha) / (1.0 - alpha) ** (1.0 - alpha)
    d_alpha = 1.0 / cos_half
    return c_alpha, d_alpha


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _jacobi_left_ref(npoints, exponent):
    # weight (1+x)^exponent on [-1, 1]
    x, w = roots_jacobi(npoints, 0.0, float(exponent))
    return x, w


@lru_cache(maxsize=4096)
def _jacobi_right_ref(npoints, exponent):
    # weight (1-x)^exponent on [-1, 1]
    x, w = roots_jacobi(npoints, float(exponent), 0.0)
    return x, w


@lru_cache(maxsize=1024)
def _legendre_ref(npoints):
    x, w = np.polynomial.legendre.leggauss(npoints)
    return x, w


def gauss_jacobi_rule(npoints, exponent, interval):
    """Nodes and weights integrating (s-a)^exponent * poly over (a, b).

    Exact for polynomials up to degree 2*npoints - 1.
    """
    if npoints < 1:
        raise ValueError(f"npoints must be >= 1, got {npoints}")
    if exponent <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {exponent}")
    a, b = interval
    if not b > a:
        raise ValueError(f"empty interval ({a}, {b})")
    x, w = _jacobi_left_ref(int(npoints), float(exponent))
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = w * half ** (exponent + 1.0)
    return nodes, weights


def _gauss_jacobi_right(npoints, exponent, a, b):
    # weight (b-s)^exponent on (a, b); b may be a column of right endpoints
    x, w = _jacobi_right_ref(int(npoints), float(exponent))
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = w * half ** (exponent + 1.0)
    return nodes, weights


def _gauss_legendre(npoints, a, b):
    x, w = _legendre_ref(int(npoints))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), w * half


# Singularity-to-interval distance ratio below which the difference-of-rules
# closed form is used; above it plain Gauss-Legendre converges geometrically.
# Diff-of-Jacobi cancellation grows like rho^deg with rho the Bernstein
# ellipse parameter of the singular point; restricting the branch to
# rho < 1.25 bounds the loss at 1.25^64 never arising in practice and
# ~1.25^8 = 6 ulps for the degrees the stepper uses.  Beyond that the
# Gauss-Legendre error rho^(-2n) converges fast enough that
# n = deg//2 + 2 + 22/ln(rho) points reach machine precision.
_DIFF_RHO = 1.25


def _ellipse_rho(dist, length):
    # Bernstein ellipse parameter of a point `dist` beyond an interval of `length`
    x = 1.0 + 2.0 * dist / length
    return x + np.sqrt(x * x - 1.0)


def _gl_point_count(deg, rho):
    # rho a float or an array of them
    return deg // 2 + 2 + np.ceil(22.0 / np.log(rho)).astype(int)


def power_rule(a, b, z, beta, deg):
    """Signed quadrature (nodes, weights) for int_a^b F(s) |s-z|^beta ds.

    The singular point z must lie outside (a, b): z <= a (kernel (s-z)^beta)
    or z >= b (kernel (z-s)^beta).  Exact for polynomials F up to degree
    `deg` when a Jacobi branch applies; the Gauss-Legendre branch resolves
    the kernel to near machine precision by scaling its point count with
    the distance of z from the interval.

    Branches on A = dist(z, nearest endpoint) and the ellipse parameter
    rho = x + sqrt(x^2 - 1), x = 1 + 2A/(b-a):
      A == 0          single Gauss-Jacobi rule (exact),
      rho < 1.25      difference of two Gauss-Jacobi rules anchored at z
                      (exact; some nodes fall just outside (a,b), polynomial
                      evaluation there is legitimate),
      otherwise       Gauss-Legendre with a rho-dependent point count.
    A singular point to the left is `_left_power_rule` without the basis,
    one to the right the one-point case of `_right_power_rules`.
    """
    if beta <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {beta}")
    if z <= a:
        nodes, weights, _ = _left_power_rule(a, b, z, beta, deg, basis=False)
        return nodes, weights
    if z >= b:
        ((_, nodes, weights),) = _right_power_rules(a, b, np.array([z], dtype=float), beta, deg)
        return nodes.reshape(-1), weights[0]
    raise ValueError(f"singular point z={z} lies inside the interval ({a}, {b})")


def _left_power_rule(a, b, z, beta, deg, basis):
    """power_rule(a, b, z, beta, deg) for z <= a, as (nodes, weights, values).

    With `basis`, values[r, k] = P_k(ref(nodes[r])), k <= deg, mapped to
    (a, b); the Gauss-Legendre branch takes its mapped rule and these values
    from the build's table (`_interval_rule`), shared by every singular
    point with the same point count.  Without it, values is None.
    """
    A = a - z
    npts = deg // 2 + 1
    if A == 0.0:
        nodes, weights = gauss_jacobi_rule(npts, beta, (a, b))
    else:
        rho = _ellipse_rho(A, b - a)
        if rho >= _DIFF_RHO:
            count = _gl_point_count(deg, rho)
            if basis:
                nodes, w, values = _interval_rule(count, a, b, deg)
            else:
                (nodes, w), values = _gauss_legendre(count, a, b), None
            return nodes, w * (nodes - z) ** beta, values
        n_full, w_full = gauss_jacobi_rule(npts, beta, (z, b))
        n_cut, w_cut = gauss_jacobi_rule(npts, beta, (z, a))
        nodes, weights = np.concatenate([n_full, n_cut]), np.concatenate([w_full, -w_cut])
    return nodes, weights, legendre_values(nodes, a, b, deg) if basis else None


def _right_power_rules(a, b, z, beta, deg):
    """power_rule(a, b, z_q, beta, deg) for every singular point z_q >= b.

    The branch of z_q depends only on its rho, and within a branch every
    z_q shares one reference rule, so the points are grouped by branch
    (and Gauss-Legendre point count) and each group is built as one array.
    Returns a list of (rows, nodes, weights): weights[r] is the rule of
    z[rows[r]], and nodes is either of the same shape or, for a group whose
    rules share their nodes, one row of them.
    """
    dist = z - b
    rho = _ellipse_rho(dist, b - a)
    npts = deg // 2 + 1
    groups = []
    exact = dist == 0.0
    if exact.any():
        rows = np.flatnonzero(exact)
        nodes, w = _gauss_jacobi_right(npts, beta, a, b)
        groups.append((rows, nodes, np.tile(w, (rows.size, 1))))
    diff = (rho < _DIFF_RHO) & ~exact
    if diff.any():
        rows = np.flatnonzero(diff)
        zr = z[rows, None]
        n_full, w_full = _gauss_jacobi_right(npts, beta, a, zr)
        n_cut, w_cut = _gauss_jacobi_right(npts, beta, b, zr)
        groups.append((rows, np.hstack([n_full, n_cut]), np.hstack([w_full, -w_cut])))
    smooth = np.flatnonzero(rho >= _DIFF_RHO)
    counts = _gl_point_count(deg, rho[smooth])
    for count in np.unique(counts):
        rows = smooth[counts == count]
        nodes, w = _gauss_legendre(count, a, b)
        groups.append((rows, nodes, w * (z[rows, None] - nodes) ** beta))
    return groups


# ---------------------------------------------------------------------------
# Local Legendre basis helpers
# ---------------------------------------------------------------------------


def _map_to_reference(s, a, b):
    return (2.0 * np.asarray(s, dtype=float) - (a + b)) / (b - a)


@lru_cache(maxsize=256)
def _legendre_derivative_matrix(max_degree, nderiv):
    # column k holds the Legendre coefficients of the nderiv-th derivative of P_k
    mat = _leg.legder(np.eye(max_degree + 1), nderiv, axis=0)
    mat.setflags(write=False)
    return mat


def _legvander(x, deg):
    """numpy's `legvander` for a scalar or 1-D x, bitwise equal and without its
    generic axis handling: the same forward recurrence, operation for
    operation, fills a (deg+1, n) array that is returned transposed.
    """
    x = np.array(x, copy=None, ndmin=1) + 0.0
    if x.ndim != 1:
        raise ValueError(f"Legendre nodes must be a scalar or 1-D, got shape {x.shape}")
    v = np.empty((deg + 1,) + x.shape, dtype=x.dtype)
    v[0] = x * 0 + 1
    if deg > 0:
        v[1] = x
        for i in range(2, deg + 1):
            v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return v.T


def legendre_values(s, a, b, max_degree):
    """Matrix of mapped Legendre values, column k = P_k(ref(s)), k <= max_degree."""
    x = _map_to_reference(s, a, b)
    return _legvander(x, max_degree)


def legendre_derivative_values(s, a, b, max_degree, nderiv):
    """Values of the nderiv-th derivative of the mapped Legendre basis.

    Returns matrix with column k = d^nderiv/ds^nderiv P_k(ref(s)).  The chain
    rule contributes (2/(b-a))^nderiv per derivative.
    """
    x = _map_to_reference(s, a, b)
    scale = (2.0 / (b - a)) ** nderiv
    deriv = _legendre_derivative_matrix(max_degree, nderiv)
    return _legvander(x, deriv.shape[0] - 1) @ deriv * scale


@lru_cache(maxsize=256)
def _weighted_reference_basis(npts, max_degree, nderiv):
    """Read-only table w_r P_k^(nderiv)(x_r) at the npts-point Gauss-Legendre
    rule (x, w) on [-1, 1], one row per node r, column k <= max_degree.
    """
    x, w = _legendre_ref(npts)
    table = w[:, None] * legendre_derivative_values(x, -1.0, 1.0, max_degree, nderiv)
    table.setflags(write=False)
    return table


# Bound on the entries of the build's table; a graded N=150, p=2 build
# fills about 1300.
_TABLE_SIZE = 4096


@lru_cache(maxsize=_TABLE_SIZE)
def _interval_rule(npts, a, b, deg):
    """The build's table: the npts-point Gauss-Legendre rule mapped to (a, b)
    as read-only (nodes, weights, values), values[r, k] = P_k(ref(nodes[r]))
    for k <= deg, or None when deg is None.

    Every pair with the same target reads one entry for its jump column
    (`_left_power_rule`), and every far pair its t and s nodes.
    `MemoryOperator` empties the table when a build starts, so no build
    reads another's entries.
    """
    nodes, weights = _gauss_legendre(npts, a, b)
    values = None if deg is None else legendre_values(nodes, a, b, deg)
    for array in (nodes, weights, values):
        if array is not None:
            array.setflags(write=False)
    return nodes, weights, values


# ---------------------------------------------------------------------------
# Memory blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryBlock:
    """Discretized history contribution of source interval j to target n.

    matrix[i, l] = int_{I_n} P_i(t) * [int_{I_j cap (0,t)} w(t-s) P_l'(s) ds] dt
    jump_column[i] = int_{I_n} P_i(t) w(t - t_{j-1}) dt

    (bases mapped to their intervals; w the convolution kernel including the
    1/Gamma(alpha+1) factor).  jump_column multiplies v(0+) for j=1 and the
    jump of v at t_{j-1} for j >= 2.
    """

    source: int
    target: int
    matrix: np.ndarray
    jump_column: np.ndarray


# reciprocal Gamma factor applied to every kernel integral
def _kernel_scale(alpha):
    return 1.0 / math.gamma(alpha + 1.0)


def _local_block(tl, tr, alpha, p_n, p_j):
    """Exact j == n block via the Duffy-type split of the self-convolution.

    With tau = t - t_{n-1} and s = t_{n-1} + tau*xi the double integral
    int_{I_n} P_i(t) int_{t_{n-1}}^t (t-s)^alpha P_l'(s) ds dt becomes
    int_0^k tau^(alpha+1) P_i(t_{n-1}+tau) [int_0^1 (1-xi)^alpha P_l'(...) dxi] dtau,
    a polynomial against each weight, so tensor Gauss-Jacobi is exact.
    """
    k = tr - tl
    if p_j == 0:
        return np.zeros((p_n + 1, p_j + 1))
    n_inner = (p_j - 1) // 2 + 1
    n_outer = (p_n + p_j - 1) // 2 + 1
    xi, w_xi = _jacobi_right_ref(n_inner, alpha)
    xi = 0.5 * (xi + 1.0)
    w_xi = w_xi * 0.5 ** (alpha + 1.0)
    tau, w_tau = gauss_jacobi_rule(n_outer, alpha + 1.0, (0.0, k))
    # derivative basis at s = tl + tau_q * xi_r, target basis at t = tl + tau_q
    s_grid = tl + tau[:, None] * xi[None, :]
    dvals = legendre_derivative_values(s_grid.ravel(), tl, tr, p_j, 1).reshape(tau.size, xi.size, p_j + 1)
    inner = np.einsum("r,qrl->ql", w_xi, dvals)
    tvals = legendre_values(tl + tau, tl, tr, p_n)
    mat = np.einsum("q,qi,ql->il", w_tau, tvals, inner)
    return mat * _kernel_scale(alpha)


# Layer ratio for the graded t-quadrature of near blocks.  Each layer sees
# the kernel singularity at ellipse parameter rho >= 1.87, and sigma^19
# puts the truncated sliver below machine precision.
_NEAR_SIGMA = 0.15

# Far-field switch.  Once the gap between source and target reaches
# _FAR_RATIO times the larger step, the kernel singularity sits at ellipse
# parameter rho >= 5 + sqrt(24) ~ 9.9 in both directions, and tensor
# Gauss-Legendre with max degree + _FAR_PADDING points per direction is
# accurate to about rho^-8 ~ 1e-8 relative, the tolerance of the far-field
# oracle tests.  Both directions use the same reference rule, so the block
# is L K R with L and R cached per (points, degree) (`_far_block`).
_FAR_RATIO = 2.0
_FAR_PADDING = 4


def _near_t_layers(tl, tr, gap, deg):
    """Gauss-Legendre rules (nodes, weights) of the t-layers of a near block.

    The inner integral loses analyticity in t as t approaches the source
    interval, which ends `gap` below tl, so the layers grade geometrically
    toward tl; the ladder stops at the gap (or at a machine-negligible
    sliver when the intervals are adjacent, which is dropped).
    """
    k_n = tr - tl
    offsets = [k_n]
    while offsets[-1] * _NEAR_SIGMA > max(gap, 1e-16 * k_n):
        offsets.append(offsets[-1] * _NEAR_SIGMA)
    offsets.append(0.0)
    layers = []
    for hi_off, lo_off in zip(offsets[:-1], offsets[1:]):
        width = hi_off - lo_off
        if width <= 1e-15 * k_n:
            continue
        lo = tl + lo_off
        # singularity sits at sr = tl - gap, below the layer by gap + lo_off
        rho = _ellipse_rho(gap + lo_off, width)
        layers.append(_gauss_legendre(_gl_point_count(deg, rho), lo, lo + width))
    return layers


def _near_rows(sl, sr, t, alpha, p_j):
    """Rows int_sl^sr (t_q - s)^alpha P_l'(s) ds, l <= p_j, for an array t >= sr.

    One basis evaluation at the nodes of every rule, then one product per
    branch group of the power rules; neither is repeated per t_q.
    """
    groups = _right_power_rules(sl, sr, t, alpha, p_j - 1)
    dvals = legendre_derivative_values(
        np.concatenate([s_nodes.ravel() for _, s_nodes, _ in groups]), sl, sr, p_j, 1
    )
    out = np.empty((t.size, p_j + 1))
    start = 0
    for rows, s_nodes, s_w in groups:
        group_dvals = dvals[start : start + s_nodes.size].reshape(s_nodes.shape + (p_j + 1,))
        start += s_nodes.size
        out[rows] = (s_w[:, None, :] @ group_dvals)[:, 0]
    return out


def _near_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """Block for intervals too close for smooth tensor quadrature.

    At every time node the s-integral against the kernel is a signed power
    rule, stable at any ratio of step sizes; the t-integral sums the graded
    layers of `_near_t_layers`.  The rows and target basis values of every
    layer's nodes come from one `_near_rows` and one `legendre_values` call;
    the layers are then summed one slice at a time, in layer order.
    """
    if p_j == 0:
        return np.zeros((p_n + 1, p_j + 1))
    layers = _near_t_layers(tl, tr, tl - sr, p_n + p_j)
    t_nodes = np.concatenate([nodes for nodes, _ in layers])
    tvals = legendre_values(t_nodes, tl, tr, p_n)
    rows = _near_rows(sl, sr, t_nodes, alpha, p_j)
    total = np.zeros((p_n + 1, p_j + 1))
    start = 0
    for _, t_w in layers:
        layer = slice(start, start + t_w.size)
        start += t_w.size
        total += np.einsum("q,qi,ql->il", t_w, tvals[layer], rows[layer])
    return total * _kernel_scale(alpha)


def _far_block(sl, sr, tl, tr, alpha, p_n, p_j):
    """Tensor Gauss-Legendre for well-separated intervals (smooth kernel).

    One reference rule (x, w) mapped to both intervals makes the block
    L K R (k_n/2): L[i, q] = w_q P_i(x_q) and R[r, l] = w_r P_l'(x_r) are
    cached reference tables (the source half-step cancels against the chain
    rule of the derivative), the mapped nodes come from the build's table,
    and only K[q, r] = (t_q - s_r)^alpha is built per pair.
    """
    if p_j == 0:
        return np.zeros((p_n + 1, p_j + 1))
    npts = max(p_n, p_j, 1) + _FAR_PADDING
    t_nodes = _interval_rule(npts, tl, tr, None)[0]
    s_nodes = _interval_rule(npts, sl, sr, None)[0]
    kern = (t_nodes[:, None] - s_nodes[None, :]) ** alpha
    left = _weighted_reference_basis(npts, p_n, 0).T
    right = _weighted_reference_basis(npts, p_j, 1)
    return left @ kern @ right * (0.5 * (tr - tl) * _kernel_scale(alpha))


def memory_block(mesh, j, n, order, degrees=None):
    """Memory-matrix block of source interval j acting on target interval n.

    Intervals are 1-based and `order` is alpha.  `degrees` optionally
    overrides (p_j, p_n) from the mesh.  Near-diagonal blocks (and the jump
    columns) use exact closed forms; once the gap t_{n-1} - t_j reaches
    _FAR_RATIO times the larger of the two step sizes, the smooth
    Gauss-Legendre branch takes over with max degree + _FAR_PADDING points
    per direction.
    """
    if not 1 <= j <= n <= mesh.interval_count:
        raise IndexError(f"interval pair (j={j}, n={n}) outside 1..{mesh.interval_count}")
    alpha = _check_alpha(order)
    tl, tr = mesh.interval(n)
    sl, sr = mesh.interval(j)
    if degrees is None:
        p_j, p_n = mesh.degree(j), mesh.degree(n)
    else:
        p_j, p_n = degrees
    # jump column: kernel anchored at the source interval's left node
    _, weights, values = _left_power_rule(tl, tr, sl, alpha, p_n, basis=True)
    jump_col = (values.T @ weights) * _kernel_scale(alpha)
    if j == n:
        mat = _local_block(tl, tr, alpha, p_n, p_j)
    else:
        gap = tl - sr
        if gap >= _FAR_RATIO * max(tr - tl, sr - sl):
            mat = _far_block(sl, sr, tl, tr, alpha, p_n, p_j)
        else:
            mat = _near_block(sl, sr, tl, tr, alpha, p_n, p_j)
    return MemoryBlock(j, n, mat, jump_col)


# ---------------------------------------------------------------------------
# The assembled memory operator and its bilinear form
# ---------------------------------------------------------------------------


def _parity(p):
    return (-1.0) ** np.arange(p + 1)


def _jump_values(coeffs):
    """Values multiplying each source's jump column: v(0+), then [v]^1, [v]^2, ...

    Each entry of `coeffs` is one interval's Legendre coefficients, a vector
    or a (p+1, modes) block; the result has one row per interval.
    """
    vals = []
    left = None
    for c in coeffs:
        right_limit = _parity(len(c) - 1) @ c
        vals.append(right_limit if left is None else right_limit - left)
        left = np.sum(c, axis=0)
    return np.array(vals)


class MemoryOperator:
    """Every memory block of one mesh and order, built once, stacked per target.

    Source interval j carries degree source_degrees[j-1] and target n degree
    target_degrees[n-1]; both are the mesh's degrees for the DG march, and
    those of the two arguments for a bilinear form.  For target n,
    matrices[n-1] has shape (n, q_n+1, P+1) with q_n its degree and P the
    largest source degree: slice j-1 holds the block of source j in its
    first p_j+1 columns and zeros after them.  jump_columns[n-1] has shape
    (n, q_n+1), row j-1 the jump column of source j.  Each block comes from
    `memory_block`, once per (j, n).

    A build empties the table of mapped Gauss-Legendre rules and basis
    values (`_interval_rule`) when it starts; within the build, the jump
    columns of one target share an entry per point count and the far
    blocks one per interval, so a rule is mapped and its basis evaluated
    once per build, not once per pair.
    """

    def __init__(self, mesh, alpha, source_degrees, target_degrees):
        self.alpha = _check_alpha(alpha)
        _interval_rule.cache_clear()
        width = int(max(source_degrees)) + 1
        matrices = []
        jump_columns = []
        for n in range(1, mesh.interval_count + 1):
            q = int(target_degrees[n - 1])
            target_matrices = np.zeros((n, q + 1, width))
            target_jumps = np.empty((n, q + 1))
            for j in range(1, n + 1):
                p = int(source_degrees[j - 1])
                blk = memory_block(mesh, j, n, self.alpha, degrees=(p, q))
                target_matrices[j - 1, :, : p + 1] = blk.matrix
                target_jumps[j - 1] = blk.jump_column
            matrices.append(target_matrices)
            jump_columns.append(target_jumps)
        self.matrices = tuple(matrices)
        self.jump_columns = tuple(jump_columns)

    def apply(self, n, coeffs, jumps):
        """Sum over the sources supplied of M_jn c_j + J_jn (x) [c]_j on target n.

        coeffs[j-1] are the coefficients of source j (a vector, or a block
        with one column per mode) and jumps[j-1] the values multiplying its
        jump column (`_jump_values`); sources j = 1..len(coeffs) <= n.
        """
        matrices = self.matrices[n - 1]
        jump_columns = self.jump_columns[n - 1]
        out = np.zeros(matrices.shape[1:2] + np.shape(jumps)[1:])
        for j, (c, jump) in enumerate(zip(coeffs, jumps)):
            out += matrices[j, :, : len(c)] @ c
            out += np.multiply.outer(jump_columns[j], jump)
        return out


def operator_form(operator, coeffs_v, coeffs_w):
    """int_0^T (B v)(t) w(t) dt with an operator built for the degrees of v and w."""
    jumps = _jump_values(coeffs_v)
    return sum(
        float(w_n @ operator.apply(n, coeffs_v[:n], jumps[:n]))
        for n, w_n in enumerate(coeffs_w, start=1)
    )


def memory_form(mesh, alpha, coeffs_v, coeffs_w):
    """Bilinear form int_0^T (B v)(t) w(t) dt for broken Legendre coefficients.

    The degrees of v and w need not be the mesh's; the operator is built for
    theirs and applied once.
    """
    operator = MemoryOperator(
        mesh, alpha, [len(c) - 1 for c in coeffs_v], [len(c) - 1 for c in coeffs_w]
    )
    return operator_form(operator, coeffs_v, coeffs_w)


def l2_form(mesh, coeffs_v, coeffs_w):
    """int_0^T v w dt for broken Legendre coefficients (orthogonality-exact)."""
    total = 0.0
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        v, w = coeffs_v[n - 1], coeffs_w[n - 1]
        size = min(len(v), len(w))
        ell = np.arange(size)
        total += float((b - a) * np.sum(v[:size] * w[:size] / (2.0 * ell + 1.0)))
    return total

