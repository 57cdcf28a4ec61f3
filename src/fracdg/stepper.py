"""DG time stepping for the scalar modes of u' + B A u = f.

Each interval solves a small dense system per mode.  In the Legendre
basis on I_n the matrix is

    K_il = (-1)^{i+l} + T_il + lambda (D_il + J_i (-1)^l),

where the first term is the upwind pairing w(t_{n-1}+) against the new
right limit, T is the transport term int P_l' P_i, D is the local memory
block and J its jump column.  Everything already computed on intervals
1..n-1 enters the right-hand side through the memory load, one application
of the memory operator (`kernel.MemoryOperator`) to the stored coefficients,
so a full march costs O(N^2) block evaluations shared across modes.  The
march builds the operator once and keeps it on the solution, where the
stability report applies it again to the energy term int A(B U, U) dt.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    FractionalOrder,
    MemoryOperator,
    _gauss_legendre,
    _jump_values,
    _parity,
    fractional_integral_values,
    gauss_jacobi_rule,
    legendre_values,
    power_rule,
)
# the block seam stays bound here too: the perfbench trace checks that it
# wraps every binding of kernel.memory_block, this one included
from .kernel import memory_block  # noqa: F401
from .problems import PowerSum

__all__ = [
    "ModeProblem",
    "DgSolution",
    "StabilityReport",
    "mode_problems",
    "solve",
    "pi_projection",
    "stability_report",
]


@dataclass(frozen=True)
class ModeProblem:
    """One scalar mode: u' + lambda B u = f with initial value u0."""

    eigenvalue: float
    forcing: object
    initial_value: float
    forcing_singularity: float = None

    def __post_init__(self):
        if self.eigenvalue < 0.0:
            raise ValueError(f"eigenvalue must be >= 0, got {self.eigenvalue}")
        if self.forcing_singularity is not None and self.forcing_singularity <= -1.0:
            raise ValueError("declared forcing singularity must be integrable (> -1)")


def mode_problems(problem):
    """ModeProblem list for a manufactured problem's components."""
    return [
        ModeProblem(m.eigenvalue, m.forcing, m.profile.at_zero(), m.singular_exponent)
        for m in problem.modes
    ]


def _transport_matrix(p):
    # int_ref P_l' P_i = 2 when l > i with odd difference, else 0
    mat = np.zeros((p + 1, p + 1))
    for i in range(p + 1):
        mat[i, i + 1 :: 2] = 2.0
    return mat


def _call_vec(f, x):
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.array([float(f(xi)) for xi in x], dtype=float)
    return vals


def _interval_load(forcing, singularity, a, b, p, is_first, extra=6):
    """Load vector int_In f P_i dt; exact for power-sum forcings."""
    if forcing is None:
        return np.zeros(p + 1)
    if isinstance(forcing, PowerSum):
        load = np.zeros(p + 1)
        for coeff, exponent in forcing.terms:
            nodes, weights = power_rule(a, b, 0.0, exponent, p)
            load += coeff * (weights @ legendre_values(nodes, a, b, p))
        return load
    if is_first and singularity is not None and singularity != 0.0:
        nodes, weights = gauss_jacobi_rule(p + extra, singularity, (a, b))
        vals = _call_vec(forcing, nodes) / nodes**singularity
    else:
        nodes, weights = _gauss_legendre(p + extra, a, b)
        vals = _call_vec(forcing, nodes)
    return (weights * vals) @ legendre_values(nodes, a, b, p)


@dataclass(frozen=True)
class DgSolution:
    """Piecewise-Legendre solution: per interval a (p_n+1, M) block.

    `memory_operator` is the memory operator the march built, for the alpha
    it ran with, so that `stability_report` need not build it again; it is
    None for solutions that were not marched (projections, hand-built
    coefficients).
    """

    mesh: object
    initial_values: np.ndarray
    coefficients: tuple
    memory_operator: MemoryOperator = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for n, block in enumerate(self.coefficients, start=1):
            if block.shape[0] != self.mesh.degree(n) + 1:
                raise ValueError(f"coefficient block {n} does not match mesh degree")

    @property
    def mode_count(self):
        return self.initial_values.size

    def coefficients_for(self, n):
        if not 1 <= n <= self.mesh.interval_count:
            raise IndexError(f"interval {n} outside 1..{self.mesh.interval_count}")
        return self.coefficients[n - 1]

    def evaluate(self, t):
        """Values at times t, shape (len(t), modes); right-closed intervals."""
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0.0) or np.any(t > self.mesh.horizon):
            raise ValueError("evaluation time outside [0, T]")
        idx = np.clip(
            np.searchsorted(self.mesh.nodes, t, side="left"),
            1,
            self.mesh.interval_count,
        )
        out = np.empty((t.size, self.mode_count))
        for n in np.unique(idx):
            sel = idx == n
            a, b = self.mesh.interval(int(n))
            basis = legendre_values(t[sel], a, b, self.mesh.degree(int(n)))
            out[sel] = basis @ self.coefficients[n - 1]
        return out[0] if scalar else out

    def left_traces(self):
        """U(t_n-) for n = 1..N, shape (N, modes)."""
        return np.vstack([block.sum(axis=0) for block in self.coefficients])

    def right_traces(self):
        """U(t_{n-1}+) for n = 1..N, shape (N, modes)."""
        return np.vstack(
            [_parity(block.shape[0] - 1) @ block for block in self.coefficients]
        )

    def jumps(self):
        """[U]^n = U(t_n+) - U(t_n-) at t_0..t_{N-1}, with [U]^0 against U0-."""
        jumps = _jump_values(self.coefficients)
        jumps[0] -= self.initial_values
        return jumps

    def final_values(self):
        return self.left_traces()[-1]


def _solve_modes(systems, rhs, n):
    """Coefficients (p+1, modes) of interval n from its stacked local systems.

    Raises RuntimeError naming the interval and the first mode whose system
    is singular or whose coefficients are not finite.
    """
    try:
        block = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        for m in range(len(systems)):
            try:
                np.linalg.solve(systems[m], rhs[m])
            except np.linalg.LinAlgError:
                raise RuntimeError(f"singular local system on interval {n}, mode {m + 1}") from exc
        raise
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        m = int(np.flatnonzero(~finite)[0])
        raise RuntimeError(f"non-finite coefficients on interval {n}, mode {m + 1}")
    return np.ascontiguousarray(block.T)


def solve(problems, mesh, order, initial_values=None):
    """March the DG scheme over the mesh for all modes at once.

    Memory blocks depend only on the interval pair, so the memory operator
    builds each once per (j, n) and applies it to every mode's stored
    coefficients.  The solution keeps the operator
    (`DgSolution.memory_operator`) for `stability_report`.
    """
    problems = list(problems)
    modes = len(problems)
    lam = np.array([pr.eigenvalue for pr in problems])
    if initial_values is None:
        initial_values = np.array([pr.initial_value for pr in problems], dtype=float)
    else:
        initial_values = np.asarray(initial_values, dtype=float)
        if initial_values.shape != (modes,):
            raise ValueError("one initial value per mode is required")
    operator = MemoryOperator(mesh, order, mesh.degrees, mesh.degrees)
    coeffs = []
    jump_vals = np.empty((mesh.interval_count, modes))
    incoming = initial_values.copy()
    for n in range(1, mesh.interval_count + 1):
        p = mesh.degree(n)
        a, b = mesh.interval(n)
        parity = _parity(p)
        history = operator.apply(n, coeffs, jump_vals[: n - 1])
        local_jump = operator.jump_columns[n - 1][n - 1]
        base = np.outer(parity, parity) + _transport_matrix(p)
        memory = operator.matrices[n - 1][n - 1, :, : p + 1] + np.outer(local_jump, parity)
        rhs = np.empty((modes, p + 1))
        for m, pr in enumerate(problems):
            load = _interval_load(pr.forcing, pr.forcing_singularity, a, b, p, n == 1)
            rhs[m] = incoming[m] * parity + load - lam[m] * history[:, m]
            if n >= 2:
                rhs[m] += lam[m] * local_jump * incoming[m]
        block = _solve_modes(base + lam[:, None, None] * memory, rhs, n)
        coeffs.append(block)
        right_limit = parity @ block
        jump_vals[n - 1] = right_limit if n == 1 else right_limit - incoming
        incoming = block.sum(axis=0)
    return DgSolution(mesh, initial_values, tuple(coeffs), operator)


def pi_projection(profiles, mesh):
    """Interpolatory projection: right-endpoint match plus orthogonality
    of the residual to P_{p_n - 1} on each interval."""
    coeffs = []
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        p = mesh.degree(n)
        width = b - a
        block = np.empty((p + 1, len(profiles)))
        for m, u in enumerate(profiles):
            if isinstance(u, PowerSum):
                moments = np.zeros(p + 1)
                for coeff, exponent in u.terms:
                    nodes, weights = power_rule(a, b, 0.0, exponent, p)
                    moments += coeff * (weights @ legendre_values(nodes, a, b, p))
                end_value = u(b)
            else:
                nodes, weights = _gauss_legendre(p + 8, a, b)
                moments = (weights * _call_vec(u, nodes)) @ legendre_values(nodes, a, b, p)
                end_value = float(u(b))
            c = np.zeros(p + 1)
            ell = np.arange(p)
            c[:p] = moments[:p] * (2.0 * ell + 1.0) / width
            c[p] = end_value - c[:p].sum()
            block[:, m] = c
        coeffs.append(block)
    initial = np.array(
        [u.at_zero() if isinstance(u, PowerSum) else float(u(0.0)) for u in profiles]
    )
    return DgSolution(mesh, initial, tuple(coeffs))


@dataclass(frozen=True)
class StabilityReport:
    """Both sides of the discrete energy inequality at every node."""

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def _forcing_pair_integrand(problems, alpha):
    """Pointwise |<g, A^{-1} f>| with g the fractional integral of f."""
    reps = []
    for pr in problems:
        f = pr.forcing
        if f is None or (isinstance(f, PowerSum) and not f.terms):
            continue
        if pr.eigenvalue == 0.0:
            raise ValueError("stability bound requires positive eigenvalues with forcing")
        if isinstance(f, PowerSum):
            reps.append(("exact", f, f.frac_integral(alpha), pr.eigenvalue))
        else:
            reps.append(("quad", f, pr.forcing_singularity, pr.eigenvalue))
    exponent = None
    if reps and all(kind == "exact" for kind, *_ in reps):
        exponent = min(f.min_exponent + g.min_exponent for _, f, g, _ in reps)

    def integrand(ts):
        total = np.zeros(ts.size)
        for kind, f, aux, lam_m in reps:
            if kind == "exact":
                total += f(ts) * aux(ts) / lam_m
            else:
                g_vals = fractional_integral_values(alpha, f, ts, singular_exponent=aux)
                total += _call_vec(f, ts) * g_vals / lam_m
        return np.abs(total)

    return integrand, exponent, bool(reps)


def _forcing_increments(problems, mesh, alpha):
    """Per-interval integrals of |<g, A^{-1} f>| dt."""
    integrand, exponent, active = _forcing_pair_integrand(problems, alpha)
    out = np.zeros(mesh.interval_count)
    if not active:
        return out
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        if n == 1 and exponent is not None and exponent != 0.0:
            nodes, weights = gauss_jacobi_rule(16, exponent, (a, b))
            out[0] = float(weights @ (integrand(nodes) / nodes**exponent))
        elif n == 1:
            # split geometrically toward 0 in case f is merely bounded
            edges = b * 0.2 ** np.arange(12, -1, -1.0)
            acc = 0.0
            lo = 0.0
            for hi in edges:
                nodes, weights = _gauss_legendre(10, lo, hi)
                acc += float(weights @ integrand(nodes))
                lo = hi
            out[0] = acc
        else:
            nodes, weights = _gauss_legendre(12, a, b)
            out[n - 1] = float(weights @ integrand(nodes))
    return out


def stability_report(solution, problems, order, slack=1e-8):
    """Evaluate the discrete energy inequality

        |U_-^n|^2 + |U_+^{n-1}|^2 + 2 int_0^{t_n} A(B U, U) dt
            <= 4 |U_-^0|^2 + 4 d^2 int_0^{t_n} |<g, A^{-1} f>| dt

    at every node and flag violations beyond the relative slack.  The memory
    term applies the operator a `solve` for the same alpha kept on the
    solution; it is built only when the solution carries none (say, a
    projection) or carries one for another alpha.
    """
    problems = list(problems)
    order = order if isinstance(order, FractionalOrder) else FractionalOrder.of(order)
    alpha = order.alpha
    mesh = solution.mesh
    operator = solution.memory_operator
    if operator is None or operator.alpha != alpha:
        operator = MemoryOperator(mesh, order, mesh.degrees, mesh.degrees)
    lam = np.array([pr.eigenvalue for pr in problems])
    coeffs = solution.coefficients
    jumps = _jump_values(coeffs)
    # per interval, int_{I_n} A(B U, U) dt: the operator's action against U
    increments = [
        float(lam @ np.einsum("im,im->m", c, operator.apply(n, coeffs[:n], jumps[:n])))
        for n, c in enumerate(coeffs, start=1)
    ]
    left = solution.left_traces()
    right = solution.right_traces()
    energy = np.cumsum(increments)
    forcing = np.cumsum(_forcing_increments(problems, mesh, alpha))
    lhs = np.sum(left**2, axis=1) + np.sum(right**2, axis=1) + 2.0 * energy
    rhs = 4.0 * float(np.sum(solution.initial_values**2)) + 4.0 * order.d_alpha**2 * forcing
    violations = tuple(
        int(n)
        for n in range(1, mesh.interval_count + 1)
        if lhs[n - 1] > rhs[n - 1] * (1.0 + slack) + 1e-12
    )
    return StabilityReport(mesh.nodes[1:], lhs, rhs, violations)
