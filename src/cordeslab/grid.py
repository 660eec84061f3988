"""Uniform space-time discretization and discrete norms.

Node-centered grids with the Dirichlet boundary eliminated: a grid
function stores interior values only and carries an implicit zero trace,
so every grid function conforms to the zero-boundary function spaces by
construction.  Spatial quadrature is trapezoidal (which reduces to
``prod(h) * sum`` for zero-boundary data), time quadrature is the left
rectangle rule, and sup-in-time norms take maxima over the stored slices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import Box, _validate_gamma

__all__ = ["Grid", "build_grid", "GridFunction", "apply_stencil",
           "NormWeights", "NormBundle", "discrete_norms", "pair"]


@dataclass(frozen=True)
class Grid:
    n: int
    lo: tuple
    hi: tuple
    m: tuple          # interior nodes per axis
    nt: int
    T: float

    @property
    def h(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / \
            (np.asarray(self.m) + 1)

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def shape(self) -> tuple:
        return self.m

    @property
    def size(self) -> int:
        return int(np.prod(self.m))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_nodes(self, i: int) -> np.ndarray:
        """Interior node coordinates along 0-based axis ``i``."""
        return self.lo[i] + self.h[i] * np.arange(1, self.m[i] + 1)

    def nodes(self) -> np.ndarray:
        """All interior nodes as a read-only (N, n) array in C order, built
        once per grid."""
        return self._nodes

    @functools.cached_property
    def _nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*[self.axis_nodes(i) for i in range(self.n)],
                           indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        nodes.setflags(write=False)
        return nodes

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    def level(self, t: float) -> int:
        """The time level nearest to ``t`` (halves up), within 0..nt."""
        return min(self.nt, max(0, int(np.floor(t / self.dt + 0.5))))


def build_grid(domain, m, nt: int, T: float) -> Grid:
    """Validating grid constructor; ``m`` is scalar or per-axis."""
    if not isinstance(domain, Box):
        domain = Box(*domain)
    n = domain.n
    m = (m,) * n if np.isscalar(m) else tuple(m)
    if len(m) != n:
        raise ValueError("m must give one interior node count per axis")
    if not all(float(v).is_integer() for v in m + (nt,)):
        raise ValueError(f"node and step counts must be whole numbers: "
                         f"m = {m}, nt = {nt}")
    m, nt = tuple(int(v) for v in m), int(nt)
    if any(v < 3 for v in m):
        raise ValueError("need at least 3 interior nodes per axis")
    if nt < 1:
        raise ValueError("need at least one time step")
    if T <= 0:
        raise ValueError("horizon must be positive")
    return Grid(n, domain.lo, domain.hi, m, nt, float(T))


@dataclass(frozen=True)
class GridFunction:
    """Interior values on one time slice ``(*m)`` or a block ``(nt+1, *m)``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape == self.grid.shape:
            pass
        elif v.shape == (self.grid.nt + 1,) + self.grid.shape:
            pass
        else:
            raise ValueError(
                f"values of shape {v.shape} fit neither a slice "
                f"{self.grid.shape} nor a block "
                f"{(self.grid.nt + 1,) + self.grid.shape}")
        object.__setattr__(self, "values", v)

    @property
    def is_spacetime(self) -> bool:
        return self.values.ndim == self.grid.n + 1


def _padded(values: np.ndarray, n: int) -> np.ndarray:
    """The zero Dirichlet ghost layer added on the last ``n`` (spatial) axes."""
    return np.pad(values, [(0, 0)] * (values.ndim - n) + [(1, 1)] * n)


def _diff(padded: np.ndarray, grid: Grid, i: int, j: int | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """Central difference at the interior nodes of a padded block, along
    0-based axes: the first (``j`` is None), second (``j == i``) or mixed
    (``j != i``) one.  Every stencil point is a view of ``padded``; the
    difference is formed in ``out`` (a new array when None), one ufunc
    at a time in the order of ``(a - 2.0*b + c) / h**2`` and its kin."""
    lead = padded.ndim - grid.n
    h = grid.h

    def at(*shifts):
        # the interior, moved by (axis, offset) pairs
        sl = [slice(None)] * lead + [slice(1, -1)] * grid.n
        for ax, s in shifts:
            sl[lead + ax] = slice(1 + s, padded.shape[lead + ax] - 1 + s)
        return padded[tuple(sl)]

    if out is None:
        out = np.empty(at().shape, np.result_type(padded, np.float64))
    if j is None:
        np.subtract(at((i, 1)), at((i, -1)), out=out)
        return np.divide(out, 2.0 * h[i], out=out)
    if i == j:
        np.multiply(2.0, at(), out=out)
        np.subtract(at((i, 1)), out, out=out)
        np.add(out, at((i, -1)), out=out)
        return np.divide(out, h[i] ** 2, out=out)
    np.subtract(at((i, 1), (j, 1)), at((i, 1), (j, -1)), out=out)
    np.subtract(out, at((i, -1), (j, 1)), out=out)
    np.add(out, at((i, -1), (j, -1)), out=out)
    return np.divide(out, 4.0 * h[i] * h[j], out=out)


def apply_stencil(u: GridFunction, kind: str, i: int,
                  j: int | None = None) -> GridFunction:
    """Central differences on a single slice with zero Dirichlet ghosts.

    ``kind`` is ``"d1"``, ``"d2"`` or ``"cross"``; ``i``/``j`` are 1-based
    coordinate indices (``"cross"`` with ``j == i`` is the ``"d2"`` stencil).
    """
    if u.is_spacetime:
        raise ValueError("apply_stencil expects a single time slice")
    n = u.grid.n
    if not 1 <= i <= n or (kind == "cross" and not 1 <= (j or 0) <= n):
        raise IndexError("coordinate index out of range")
    if kind == "d1":
        j = None
    elif kind == "d2":
        j = i
    elif kind != "cross":
        raise ValueError(f"unknown stencil kind {kind!r}")
    out = _diff(_padded(u.values, n), u.grid, i - 1,
                None if j is None else j - 1)
    return GridFunction(u.grid, out)


# ----------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class NormWeights:
    """Weights of the strengthened second-order and space-time norms."""

    index_set: tuple
    gamma: dict
    alpha1: float = 0.1
    alpha2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "index_set",
                           tuple(sorted(int(k) for k in self.index_set)))
        object.__setattr__(self, "gamma",
                           _validate_gamma(self.gamma, self.index_set))
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ValueError("alpha weights must be positive")

    @staticmethod
    def default(n: int, alpha1: float = 0.1, alpha2: float = 1.0) -> "NormWeights":
        return NormWeights(tuple(range(1, n + 1)),
                           {k: 1.0 for k in range(1, n + 1)}, alpha1, alpha2)


@dataclass(frozen=True)
class NormBundle:
    """Per-slice norms (arrays over time slices) and space-time aggregates.

    ``Hhat2`` strengthens the plain second-order norm by the weighted
    cross-derivative bracket; ``Y2 = X2 + C1`` and ``Yhat2 = Xhat2 +
    alpha2 * C1`` combine integral and sup-in-time parts.
    """

    H0: np.ndarray
    H1: np.ndarray
    W22: np.ndarray
    Hhat2: np.ndarray
    X0: float
    X2: float
    Xhat2: float
    C0: float
    C1: float
    Y2: float
    Yhat2: float

    def as_dict(self) -> dict:
        return {
            "H0": list(map(float, self.H0)),
            "H1": list(map(float, self.H1)),
            "W22": list(map(float, self.W22)),
            "Hhat2": list(map(float, self.Hhat2)),
            "X0": self.X0, "X2": self.X2, "Xhat2": self.Xhat2,
            "C0": self.C0, "C1": self.C1, "Y2": self.Y2, "Yhat2": self.Yhat2,
        }


def _slice_l2(block: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoidal L2 over space for each leading slice."""
    axes = tuple(range(block.ndim - grid.n, block.ndim))
    return np.sqrt((np.abs(block) ** 2).sum(axis=axes) * grid.cell_volume)


def _time_l2(per_slice: np.ndarray, grid: Grid) -> float:
    """L2 in time of per-slice norms: the left rectangle rule over a
    space-time block (its last slice left out), the whole horizon for a
    single slice."""
    if len(per_slice) == 1:
        return float(np.sqrt(np.sum(per_slice ** 2) * grid.T))
    return float(np.sqrt(np.sum(per_slice[:-1] ** 2) * grid.dt))


def discrete_norms(u: GridFunction, weights: NormWeights | None = None) -> NormBundle:
    """Norm bundle of a grid function (single slice or space-time block)."""
    grid = u.grid
    n = grid.n
    if weights is None:
        weights = NormWeights.default(n)
    block = u.values if u.is_spacetime else u.values[None, ...]
    nslices = block.shape[0]

    # one padded block and one difference buffer (plus its moduli for a
    # complex block) hold every difference and its square in turn: these
    # set the peak memory of the fixed-point iteration, which takes two
    # norms a sweep
    diff = np.empty(block.shape, np.result_type(block, np.float64))
    square = diff if diff.dtype.kind == "f" else np.empty(block.shape)
    axes = tuple(range(1, n + 1))

    def l2(d):
        """``_slice_l2(d)``, squaring in ``square``: ``x*x`` is
        ``abs(x)**2`` bit for bit for real ``x``"""
        if square is diff:
            np.multiply(d, d, out=square)
        else:
            np.multiply(np.abs(d, out=square), square, out=square)
        return np.sqrt(square.sum(axis=axes) * grid.cell_volume)

    H0 = l2(block)
    padded = _padded(block, n)
    grad_sq = sum(l2(_diff(padded, grid, i, out=diff)) ** 2
                  for i in range(n))
    H1 = np.sqrt(H0 ** 2 + grad_sq)

    second_sq = np.zeros(nslices)
    bracket = np.zeros(nslices)
    inset = set(weights.index_set)
    for k in range(n):
        row_sq = [l2(_diff(padded, grid, k, i, out=diff)) ** 2
                  for i in range(n)]
        second_sq += sum(row_sq)
        if (k + 1) in inset:
            g = weights.gamma[k + 1]
            bracket += sum(row_sq) - 0.5 * g * row_sq[k]
    W22 = np.sqrt(H1 ** 2 + second_sq)
    bracket = np.maximum(bracket, 0.0)  # guards roundoff; >= 0 since gamma < 2
    Hhat2 = np.sqrt(bracket) + weights.alpha1 * W22

    X0 = _time_l2(H0, grid)
    X2 = _time_l2(W22, grid)
    Xhat2 = _time_l2(Hhat2, grid)
    C0 = float(H0.max())
    C1 = float(H1.max())
    return NormBundle(H0=H0, H1=H1, W22=W22, Hhat2=Hhat2, X0=X0, X2=X2,
                      Xhat2=Xhat2, C0=C0, C1=C1, Y2=X2 + C1,
                      Yhat2=Xhat2 + weights.alpha2 * C1)


def _trapezoid_weights(m: int) -> np.ndarray:
    """Composite trapezoid with linearly extrapolated boundary values.

    Exact on linear integrands; reduces to the plain interior sum (up to
    O(h^3) end effects) when the integrand vanishes near the boundary.
    """
    w = np.ones(m)
    w[0] += 1.0
    w[1] -= 0.5
    w[-1] += 1.0
    w[-2] -= 0.5
    return w


def pair(u, rho) -> complex:
    """Trapezoidal inner product ``(u, rho)`` over the domain (rho conjugated)."""
    if isinstance(u, GridFunction):
        grid, uv = u.grid, u.values
    else:
        raise TypeError("pair expects a GridFunction first argument")
    rv = rho.values if isinstance(rho, GridFunction) else np.asarray(rho)
    if rv.shape != grid.shape or uv.shape != grid.shape:
        raise ValueError("pair needs two single-slice functions on one grid")
    prod = uv * np.conj(rv)
    for ax in range(grid.n):
        shape = [1] * grid.n
        shape[ax] = grid.m[ax]
        prod = prod * _trapezoid_weights(grid.m[ax]).reshape(shape)
    return complex(prod.sum() * grid.cell_volume)
