"""Uniform space-time discretization and discrete norms.

Node-centered grids with the Dirichlet boundary eliminated: a grid
function stores interior values only and carries an implicit zero trace,
so every grid function conforms to the zero-boundary function spaces by
construction.  Spatial quadrature is trapezoidal (which reduces to
``prod(h) * sum`` for zero-boundary data), time quadrature is the left
rectangle rule, and sup-in-time norms take maxima over the stored slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import Box

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
        """All interior nodes as an (N, n) array in C order."""
        mesh = np.meshgrid(*[self.axis_nodes(i) for i in range(self.n)],
                           indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    @property
    def box(self) -> Box:
        return Box(self.lo, self.hi)


def build_grid(domain, m, nt: int, T: float) -> Grid:
    """Validating grid constructor; ``m`` is scalar or per-axis."""
    if not isinstance(domain, Box):
        domain = Box(*domain)
    n = domain.n
    m = (m,) * n if np.isscalar(m) else tuple(int(v) for v in m)
    if len(m) != n:
        raise ValueError("m must give one interior node count per axis")
    if any(v < 3 for v in m):
        raise ValueError("need at least 3 interior nodes per axis")
    if nt < 1:
        raise ValueError("need at least one time step")
    if T <= 0:
        raise ValueError("horizon must be positive")
    return Grid(n, domain.lo, domain.hi, m, int(nt), float(T))


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

    def slice(self, k: int) -> np.ndarray:
        return self.values[k] if self.is_spacetime else self.values


def _pad_axes(values: np.ndarray, n: int, axes) -> np.ndarray:
    pad = [(0, 0)] * values.ndim
    for ax in axes:
        pad[values.ndim - n + ax] = (1, 1)
    return np.pad(values, pad)


def _shift(padded: np.ndarray, n: int, axis: int, offset: int,
           trimmed) -> np.ndarray:
    """Slice a padded array back to interior shape, shifted along one axis."""
    sl = [slice(None)] * padded.ndim
    for ax in trimmed:
        pos = padded.ndim - n + ax
        if ax == axis:
            sl[pos] = slice(1 + offset, padded.shape[pos] - 1 + offset)
        else:
            sl[pos] = slice(1, -1)
    return padded[tuple(sl)]


def _d1(values: np.ndarray, grid: Grid, i: int) -> np.ndarray:
    p = _pad_axes(values, grid.n, [i])
    return (_shift(p, grid.n, i, 1, [i]) - _shift(p, grid.n, i, -1, [i])) / \
        (2.0 * grid.h[i])


def _d2(values: np.ndarray, grid: Grid, i: int) -> np.ndarray:
    p = _pad_axes(values, grid.n, [i])
    return (_shift(p, grid.n, i, 1, [i]) - 2.0 * values
            + _shift(p, grid.n, i, -1, [i])) / grid.h[i] ** 2


def _cross(values: np.ndarray, grid: Grid, i: int, j: int) -> np.ndarray:
    p = _pad_axes(values, grid.n, [i, j])
    n = grid.n

    def corner(si, sj):
        sl = [slice(None)] * p.ndim
        for ax, s in ((i, si), (j, sj)):
            pos = p.ndim - n + ax
            sl[pos] = slice(1 + s, p.shape[pos] - 1 + s)
        return p[tuple(sl)]

    return (corner(1, 1) - corner(1, -1) - corner(-1, 1) + corner(-1, -1)) / \
        (4.0 * grid.h[i] * grid.h[j])


def _second_derivative(values: np.ndarray, grid: Grid, i: int,
                       j: int) -> np.ndarray:
    return _d2(values, grid, i) if i == j else _cross(values, grid, i, j)


def apply_stencil(u: GridFunction, kind: str, i: int,
                  j: int | None = None) -> GridFunction:
    """Central differences on a single slice with zero Dirichlet ghosts.

    ``kind`` is ``"d1"``, ``"d2"`` or ``"cross"``; ``i``/``j`` are 1-based
    coordinate indices.
    """
    if u.is_spacetime:
        raise ValueError("apply_stencil expects a single time slice")
    n = u.grid.n
    if not 1 <= i <= n or (kind == "cross" and not 1 <= (j or 0) <= n):
        raise IndexError("coordinate index out of range")
    if kind == "d1":
        out = _d1(u.values, u.grid, i - 1)
    elif kind == "d2":
        out = _d2(u.values, u.grid, i - 1)
    elif kind == "cross":
        if j is None:
            raise ValueError("cross stencil needs two coordinate indices")
        out = _cross(u.values, u.grid, i - 1, j - 1)
    else:
        raise ValueError(f"unknown stencil kind {kind!r}")
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
        gamma = {int(k): float(v) for k, v in dict(self.gamma).items()}
        object.__setattr__(self, "gamma", gamma)
        if set(gamma) != set(self.index_set):
            raise ValueError("gamma keys must match the index set")
        if any(not 0.0 < g < 2.0 for g in gamma.values()):
            raise ValueError("gamma weights must lie in (0, 2)")
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
    weights: NormWeights = dc_field(repr=False, default=None)

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

    H0 = _slice_l2(block, grid)
    # one derivative block alive at a time: these blocks set the peak
    # memory of the fixed-point iteration, which takes two norms a sweep
    grad_sq = sum(_slice_l2(_d1(block, grid, i), grid) ** 2 for i in range(n))
    H1 = np.sqrt(H0 ** 2 + grad_sq)

    second_sq = np.zeros(nslices)
    bracket = np.zeros(nslices)
    inset = set(weights.index_set)
    for k in range(n):
        row_sq = []
        for i in range(n):
            d = _second_derivative(block, grid, k, i)
            row_sq.append(_slice_l2(d, grid) ** 2)
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
                      Yhat2=Xhat2 + weights.alpha2 * C1, weights=weights)


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
