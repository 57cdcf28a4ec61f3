"""DG time stepping for the scalar modes of u' + B A u = f.

Each interval solves a small dense system per mode.  In the Legendre
basis on I_n the matrix is

    K_il = (-1)^{i+l} + T_il + lambda (D_il + J_i (-1)^l),

where the first term is the upwind pairing w(t_{n-1}+) against the new
right limit, T is the transport term int P_l' P_i, D is the local memory
block and J its jump column, the weight of [U]^{n-1} = U(t_{n-1}+) -
U(t_{n-1}-): [U]^0 = U(0+), the history before t_0 being zero.  Everything
already computed on intervals 1..n-1 enters the right-hand side through
the memory load, one application of the memory operator
(`kernel.MemoryOperator.apply`) to the coefficients stored so far,
zero-padded in one (N, P+1, modes) array, so a full march costs O(N^2)
block evaluations shared across modes.  The march, the stability report
(energy term int A(B U, U) dt) and `kernel.memory_form` each stack their
coefficients once per call and get the operator from
`kernel.memory_operator`, shared by its key while the solution holds it;
nothing keeps it after.

Forcings are power sums (`problems.PowerSum`), so the load vectors are
exact: `solve` computes every interval's before the march, from one
left-singular moment pass (`kernel._left_moments`, the jump columns' too)
over every interval and forcing exponent: one mapped rule per
Gauss-Legendre interval with one kernel power per exponent (one broadcast
power over two exponents or more would move bits), and one `power_rule`
and one product per exponent on the exact first interval and on each
difference interval.  Each exponent's moment on an interval is shared by
every sum that carries it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    MemoryOperator,
    _gauss_legendre,
    _jacobi_rule,
    _left_moments,
    _parity,
    _stacked,
    _traces,
    coercivity_constants,
    legendre_values,
    memory_operator,
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
    "stability_report",
]


@dataclass(frozen=True)
class ModeProblem:
    """One scalar mode: u' + lambda B u = f with initial value u0.

    The forcing f is a `PowerSum`, integrated exactly; None means f = 0.
    ValueError unless lambda >= 0, u0 and every term of f are finite.
    """

    eigenvalue: float
    forcing: PowerSum
    initial_value: float

    def __post_init__(self):
        if not 0.0 <= self.eigenvalue < math.inf:
            raise ValueError(f"eigenvalue must be finite and >= 0, got {self.eigenvalue}")
        if not math.isfinite(self.initial_value):
            raise ValueError(f"initial value must be finite, got {self.initial_value}")
        if self.forcing is None:
            object.__setattr__(self, "forcing", PowerSum.of())
        elif not isinstance(self.forcing, PowerSum):
            kind = type(self.forcing).__name__
            raise TypeError(f"forcing must be a PowerSum or None, got {kind}")
        if not all(math.isfinite(coeff) and math.isfinite(exponent) for coeff, exponent in self.forcing.terms):
            raise ValueError(f"forcing terms must be finite, got {self.forcing.terms}")


def mode_problems(problem):
    """ModeProblem list for a manufactured problem's components."""
    return [
        ModeProblem(m.eigenvalue, m.forcing, m.profile.at_zero()) for m in problem.modes
    ]


def _transport_matrix(p):
    # int_ref P_l' P_i = 2 when l > i with odd difference, else 0
    mat = np.zeros((p + 1, p + 1))
    for i in range(p + 1):
        mat[i, i + 1 :: 2] = 2.0
    return mat


def _power_table(power_sums):
    """The exponents of a list of power sums, sorted, each with the rows of
    the sums that carry it, and their coefficients of it as a column."""
    table = {}
    for m, u in enumerate(power_sums):
        for coeff, exponent in u.terms:
            column = table.setdefault(float(exponent), {})
            column[m] = column.get(m, 0.0) + coeff
    return [
        (exponent, np.array(list(column)), np.array(list(column.values()))[:, None])
        for exponent, column in sorted(table.items())
    ]


def _power_moments(table, count, mesh):
    """Moments int_{I_n} u P_i dt, i <= p_n, of each of the `count` power
    sums u of a `_power_table` on every interval n of the mesh: one
    (count, p_n+1) array per interval, one row per sum; exact.

    One `kernel._left_moments` pass with singular point t_0 = 0 gives the
    moment of every exponent on every interval, those of `power_rule` bit
    for bit.  Every exponent in increasing order, as each sum's terms are,
    adds its moments only into the rows of the sums that carry it (a sum
    without it never sees that moment, finite or not).
    """
    intervals = mesh.interval_count
    moments = np.zeros((count, intervals, max(mesh.degrees) + 1))
    if table:
        exponents = [exponent for exponent, _, _ in table]
        power = _left_moments(mesh.nodes, mesh.degrees, np.arange(intervals), np.zeros(intervals), exponents)
        for row, (_, rows, coeffs) in zip(power, table):
            moments[rows] += coeffs[:, None] * row
    return [moments[:, n, : p + 1] for n, p in enumerate(mesh.degrees.tolist())]


def _power_values(table, count, t):
    """Values at points t > 0 of each of the `count` power sums of a
    `_power_table`, one row per sum.

    One power per exponent, added only into the rows of the sums that
    carry it, in increasing exponent order: the sum `PowerSum.__call__`
    forms term by term.
    """
    values = np.zeros((count, t.size))
    for exponent, rows, coeffs in table:
        values[rows] += coeffs * t**exponent
    return values


@dataclass(frozen=True)
class DgSolution:
    """Piecewise-Legendre solution: per interval a (p_n+1, M) block.

    `memory_operator` is the memory operator of the march, for the alpha it
    ran with.  Holding it keeps it live, so `stability_report` and
    `kernel.memory_form` share it (`kernel.memory_operator`) while the
    solution lives; it is None for solutions that were not marched
    (projections, hand-built coefficients).
    """

    mesh: object
    initial_values: np.ndarray
    coefficients: tuple
    memory_operator: MemoryOperator = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for n, block in enumerate(self.coefficients, start=1):
            if block.shape != (self.mesh.degree(n) + 1, self.initial_values.size):
                raise ValueError(f"coefficient block {n} has shape {block.shape}, not (mesh degree + 1, modes)")

    @property
    def mode_count(self):
        return self.initial_values.size

    def evaluate(self, t):
        """Values at times t, shape (len(t), modes); right-closed intervals."""
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t >= 0.0) & (t <= self.mesh.horizon)):
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
        return _traces(self.coefficients)[1]

    def right_traces(self):
        """U(t_{n-1}+) for n = 1..N, shape (N, modes)."""
        return _traces(self.coefficients)[0]

    def jumps(self):
        """[U]^n = U(t_n+) - U(t_n-) at t_0..t_{N-1}, with [U]^0 against U0-."""
        right, left = _traces(self.coefficients)
        return right - np.vstack([self.initial_values, left[:-1]])


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


def solve(problems, mesh, alpha):
    """March the DG scheme over the mesh for all modes at once.

    Memory blocks depend only on the interval pair, so the memory operator
    builds each once per (j, n) and applies it to every mode's stored
    coefficients: the blocks go into one (N, P+1, modes) array, zero past
    each degree, and the history of interval n applies its first n-1 rows;
    the solution's blocks are (p_n+1, modes) views into it.  Every
    interval's loads are computed before the march, from one moment pass
    (`_power_moments`): one moment per forcing exponent and interval,
    shared by every mode that carries that exponent.  The operator comes from
    `kernel.memory_operator`, and the solution holds it
    (`DgSolution.memory_operator`) for `stability_report` and the forms.
    """
    problems = list(problems)
    modes = len(problems)
    lam = np.array([pr.eigenvalue for pr in problems])
    initial_values = np.array([pr.initial_value for pr in problems], dtype=float)
    loads = _power_moments(_power_table([pr.forcing for pr in problems]), modes, mesh)
    operator = memory_operator(mesh, alpha, mesh.degrees, mesh.degrees)
    stacked = np.zeros((mesh.interval_count, max(mesh.degrees) + 1, modes))
    jump_vals = np.empty((mesh.interval_count, modes))
    # U(t_{n-1}-) as the upwind term sees it, u0 before t_0, and as the
    # memory's jump [U]^{n-1} = U(t_{n-1}+) - U(t_{n-1}-) sees it, zero before t_0
    incoming, memory_left = initial_values, np.zeros(modes)
    for n in range(1, mesh.interval_count + 1):
        p = mesh.degree(n)
        parity = _parity(p)
        history = operator.apply(n, stacked[: n - 1], jump_vals[: n - 1])
        local_jump = operator.jump_columns[n - 1][n - 1]
        base = np.outer(parity, parity) + _transport_matrix(p)
        memory = operator.matrices[n - 1][n - 1, :, : p + 1] + np.outer(local_jump, parity)
        rhs = incoming[:, None] * parity + loads[n - 1] - lam[:, None] * history.T
        rhs += lam[:, None] * local_jump * memory_left[:, None]
        block = _solve_modes(base + lam[:, None, None] * memory, rhs, n)
        stacked[n - 1, : p + 1] = block
        jump_vals[n - 1] = parity @ block - memory_left
        incoming = memory_left = block.sum(axis=0)
    blocks = tuple(stacked[n, : p + 1] for n, p in enumerate(mesh.degrees))
    return DgSolution(mesh, initial_values, blocks, operator)


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


def _forcing_increments(problems, mesh, alpha):
    """Per-interval integrals of |<g, A^{-1} f>| dt, g the fractional
    integral of f.

    The integrand behaves like t^e at 0, e the smallest exponent of the
    products f g, so on the first interval a Gauss-Jacobi rule absorbs that
    weight; the later intervals are smooth and take Gauss-Legendre.  The
    forced modes' f and g come from one exponent table each
    (`_power_values`), and their products are summed in mode order.

    RuntimeError names the first non-finite interval (a subnormal eigenvalue
    overflows f g / lambda) and the first mode whose running sum has no finite integral.
    """
    out = np.zeros(mesh.interval_count)
    forced = [m for m, pr in enumerate(problems) if pr.forcing.terms]
    if any(problems[m].eigenvalue == 0.0 for m in forced):
        raise ValueError("stability bound requires positive eigenvalues with forcing")
    if not forced:
        return out
    fs = [problems[m].forcing for m in forced]
    gs = [f.frac_integral(alpha) for f in fs]
    f_table, g_table = _power_table(fs), _power_table(gs)
    lam = np.array([problems[m].eigenvalue for m in forced])[:, None]
    exponent = min(f.min_exponent + g.min_exponent for f, g in zip(fs, gs))
    for n in range(1, mesh.interval_count + 1):
        a, b = mesh.interval(n)
        if n == 1:
            nodes, weights = _jacobi_rule(16, exponent, a, b, at_a=True)
        else:
            nodes, weights = _gauss_legendre(12, a, b)
        # an overflow warns nothing: the check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            products = _power_values(f_table, len(fs), nodes) * _power_values(g_table, len(gs), nodes) / lam
            # a running sum over the modes, in their order
            running = np.cumsum(products, axis=0)
            # the Gauss-Jacobi weights of interval 1 already carry the t^e
            scale = nodes**exponent if n == 1 else 1.0
            out[n - 1] = float(weights @ (np.abs(running[-1]) / scale))
            if not np.isfinite(out[n - 1]):
                bad = np.flatnonzero(~np.isfinite((np.abs(running) / scale) @ weights))
                m = forced[bad[0] if bad.size else -1]
                raise RuntimeError(f"non-finite stability forcing on interval {n}, mode {m + 1}")
    return out


# relative slack of the energy inequality before a node counts as a violation
_STABILITY_SLACK = 1e-8


def stability_report(solution, problems, alpha):
    """Evaluate the discrete energy inequality

        |U_-^n|^2 + |U_+^{n-1}|^2 + 2 int_0^{t_n} A(B U, U) dt
            <= 4 |U_-^0|^2 + 4 d^2 int_0^{t_n} |<g, A^{-1} f>| dt

    at every node and flag violations beyond the relative slack
    `_STABILITY_SLACK` (plus 1e-12).  The memory term applies the operator
    of the mesh, its degrees and alpha (`kernel.memory_operator`): the
    march's while the solution holds it, else a new build.  ValueError
    unless there is one problem per mode.
    """
    problems = list(problems)
    if len(problems) != solution.mode_count:
        raise ValueError(f"{len(problems)} problems for a solution of {solution.mode_count} modes")
    _, d_alpha = coercivity_constants(alpha)
    mesh = solution.mesh
    operator = memory_operator(mesh, alpha, mesh.degrees, mesh.degrees)
    lam = np.array([pr.eigenvalue for pr in problems])
    coeffs = solution.coefficients
    right, left = _traces(coeffs)
    # the memory's jumps: [U]^0 = U(0+), the history before t_0 being zero
    stacked, jumps = _stacked(coeffs), right - np.concatenate([np.zeros_like(left[:1]), left[:-1]])
    # per interval, int_{I_n} A(B U, U) dt: the operator's action against U
    increments = [
        float(lam @ np.einsum("im,im->m", c, operator.apply(n, stacked[:n], jumps[:n])))
        for n, c in enumerate(coeffs, start=1)
    ]
    energy = np.cumsum(increments)
    forcing = np.cumsum(_forcing_increments(problems, mesh, alpha))
    lhs = np.sum(left**2, axis=1) + np.sum(right**2, axis=1) + 2.0 * energy
    rhs = 4.0 * float(np.sum(solution.initial_values**2)) + 4.0 * d_alpha**2 * forcing
    violations = tuple(
        int(n)
        for n in range(1, mesh.interval_count + 1)
        if lhs[n - 1] > rhs[n - 1] * (1.0 + _STABILITY_SLACK) + 1e-12
    )
    return StabilityReport(mesh.nodes[1:], lhs, rhs, violations)
