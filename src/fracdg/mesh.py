"""Time partitions: graded and geometric meshes.

Graded meshes concentrate steps near t=0 as t_n = (n k)^gamma to compensate
the startup singularity at fixed polynomial degree; geometric meshes refine
t_n = delta^(L+1-n) T_1 with linearly increasing degrees p_n = floor(mu n)
for exponential accuracy in the degrees of freedom.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TimeMesh",
    "graded_mesh",
    "geometric_mesh",
    "fine_grid",
    "dof_count",
]


@dataclass(frozen=True)
class TimeMesh:
    """Strictly increasing nodes t_0=0 < ... < t_N=T with per-interval degrees."""

    nodes: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        degrees = np.asarray(self.degrees)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time mesh needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            bad = int(np.argmax(~np.isfinite(nodes)))
            raise ValueError(f"time mesh nodes must be finite; node {bad} is {nodes[bad]}")
        if nodes[0] != 0.0:
            raise ValueError(f"time meshes start at t_0 = 0, got {nodes[0]}")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            bad = int(np.argmax(steps <= 0.0))
            raise ValueError(
                f"nodes must be strictly increasing; step {bad + 1} has size {steps[bad]}"
            )
        if degrees.shape != (nodes.size - 1,):
            raise ValueError(
                f"degree vector length {degrees.size} does not match {nodes.size - 1} intervals"
            )
        whole = np.isfinite(degrees) & (np.floor(degrees) == degrees)
        if not whole.all():
            bad = int(np.argmax(~whole))
            raise ValueError(f"interval degrees must be integers; degree {bad + 1} is {degrees[bad]}")
        degrees = degrees.astype(int)
        if np.any(degrees < 0):
            raise ValueError("interval degrees must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "degrees", degrees)

    @cached_property
    def _node_list(self):
        # the nodes as Python floats, for code that reads a few per call
        return self.nodes.tolist()

    @property
    def interval_count(self):
        return self.nodes.size - 1

    @property
    def horizon(self):
        return float(self.nodes[-1])

    def _check_index(self, n):
        if not 1 <= n <= self.interval_count:
            raise IndexError(f"interval index {n} outside 1..{self.interval_count}")

    def interval(self, n):
        """Endpoints (t_{n-1}, t_n) of the 1-based interval n."""
        self._check_index(n)
        return float(self.nodes[n - 1]), float(self.nodes[n])

    def degree(self, n):
        self._check_index(n)
        return int(self.degrees[n - 1])


def graded_mesh(T, N, gamma, p, first_interval_linear=False):
    """Graded nodes t_n = (n k)^gamma, k = T^(1/gamma)/N.

    Step sizes are nondecreasing for gamma >= 1.  Degrees are uniform p, or
    (1, p, ..., p) when the first-interval flag is set (the strongly graded
    first step carries only a linear space).
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    if N < 1:
        raise ValueError(f"interval count N must be >= 1, got {N}")
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"mesh grading gamma must be finite and >= 1, got {gamma}")
    if not 1 <= p < math.inf:
        raise ValueError(f"polynomial degree p must be finite and >= 1, got {p}")
    k = T ** (1.0 / gamma) / N
    nodes = (np.arange(N + 1) * k) ** gamma
    nodes[-1] = T
    degrees = np.full(N, p, dtype=int)
    if first_interval_linear:
        degrees[0] = 1
    return TimeMesh(nodes, degrees)


def geometric_mesh(T, T_1, delta, L, mu):
    """Geometrically refined nodes t_n = delta^(L+1-n) T_1 on (0, T_1].

    Degrees grow linearly, p_n = floor(mu n), floored at 1.  If T_1 < T the
    remainder is covered by the fewest uniform coarse intervals of width at
    most T_1, all carrying the last geometric degree.
    """
    if not (0.0 < T < math.inf and 0.0 < T_1 < math.inf):
        raise ValueError(f"horizons must be positive and finite, got T={T}, T_1={T_1}")
    if T_1 > T:
        raise ValueError(f"first coarse interval T_1={T_1} exceeds the horizon T={T}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"geometric grading delta must lie in (0, 1), got {delta}")
    if L < 0:
        raise ValueError(f"refinement level count L must be >= 0, got {L}")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"degree slope mu must be positive and finite, got {mu}")
    nodes = [0.0] + [delta ** (L + 1 - n) * T_1 for n in range(1, L + 2)]
    degrees = [max(1, int(math.floor(mu * n + 1e-12))) for n in range(1, L + 2)]
    if T_1 < T:
        coarse = max(1, int(math.ceil((T - T_1) / T_1 - 1e-12)))
        width = (T - T_1) / coarse
        nodes += [T_1 + i * width for i in range(1, coarse + 1)]
        nodes[-1] = T
        degrees += [degrees[-1]] * coarse
    return TimeMesh(nodes, degrees)


def fine_grid(mesh, m):
    """Evaluation grid subdividing every interval into m equal parts.

    Returns the N*m + 1 points t_{j-1} + n k_j / m (0 <= n <= m), each
    interior node appearing once.
    """
    if m < 1:
        raise ValueError(f"fine grid factor m must be >= 1, got {m}")
    pieces = []
    nodes = mesh.nodes
    for j in range(mesh.interval_count):
        k_j = nodes[j + 1] - nodes[j]
        pieces.append(nodes[j] + k_j * np.arange(m) / m)
    pieces.append(nodes[-1:])
    return np.concatenate(pieces)


def dof_count(mesh):
    """Temporal degrees of freedom per mode: sum of (p_n + 1)."""
    return int(np.sum(mesh.degrees + 1))
