"""Coefficient data for the operator and the associated diffusion.

A :class:`CoefficientField` bundles the second-order matrix ``b``, the
drift ``f`` and the complex zero-order rate ``lambda`` as evaluable
fields on ``D x [0, T]``, plus an optional diffusion factor ``beta`` with
``b = 0.5 * beta @ beta.T``.  Entries are expression-backed, constant, or
piecewise-constant tables; no opaque function plug-ins, so every field is
reproducible from its textual configuration.

Essential suprema are realized throughout as maxima over a declared
:class:`SampleSet` (grid nodes plus cell midpoints).
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .expr import Expr, Num, parse_expression
from .linalg import symmetric_sqrt

__all__ = [
    "Box", "SampleSet", "sample_set",
    "ConstField", "ExprField", "TableField", "as_scalar_field",
    "CoefficientField", "make_field", "eval_field",
    "Decomposition", "decompose", "minimal_vertex_cover",
    "MollifiedField", "mollify",
    "builtin_problem", "builtin_signature", "builtin_solve_data",
    "BUILTIN_NAMES", "FieldConstructionError",
]

PATTERN_TOL = 1e-12
GAMMA_RANGE = (1e-9, 2.0 - 1e-9)   # the open range of a split weight gamma_k


class FieldConstructionError(ValueError):
    """Raised when coefficient data violates a structural invariant."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; the closure is used for membership tests."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise FieldConstructionError("box lo/hi dimension mismatch")
        if not np.isfinite(self.lo + self.hi).all():
            raise FieldConstructionError(
                f"box bounds must be finite: lo {self.lo}, hi {self.hi}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise FieldConstructionError("degenerate box")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def contains(self, x: np.ndarray, open_set: bool = False) -> np.ndarray:
        """Vectorized membership; ``open_set`` tests the interior."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        if open_set:
            return np.all((x > lo) & (x < hi), axis=-1)
        return np.all((x >= lo) & (x <= hi), axis=-1)


# ----------------------------------------------------------------------------
# scalar entries


class ConstField:
    def __init__(self, value: float):
        self.value = float(value)

    time_dependent = False

    def max_x_index(self) -> int:
        return 0

    def eval_raw(self, x: np.ndarray, t) -> np.ndarray:
        n_pts = np.atleast_2d(x).shape[0]
        return np.full(n_pts, self.value)

    def describe(self) -> str:
        return repr(self.value)


class ExprField:
    """An expression entry.  At a read-only points array that owns its
    data (``Grid.nodes()``), the time-free values that time-dependent
    subtrees read are held, read-only, for the next level's call at the
    same array; at any other array every call evaluates afresh."""

    def __init__(self, expr):
        self.expr = parse_expression(expr) if isinstance(expr, str) else expr
        if not isinstance(self.expr, Expr):
            raise FieldConstructionError("expected an expression or text")
        # (points, frontier values), replaced whole so concurrent callers
        # always see a matching pair
        self._hold = (None, None)

    @property
    def time_dependent(self) -> bool:
        return self.expr.uses_t()

    def max_x_index(self) -> int:
        return self.expr.max_x_index()

    def eval_raw(self, x: np.ndarray, t) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        env = {f"x{i + 1}": x[:, i] for i in range(x.shape[1])}
        env["t"] = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        points, held = self._hold
        if points is not x:
            held = None
        # overflow ends at the non-finite guards, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            value, frontier = self.expr.program.run(env, held)
        if held is None and not x.flags.writeable and x.flags.owndata:
            for v in frontier:
                if isinstance(v, np.ndarray):
                    v.setflags(write=False)
            self._hold = (x, frontier)
        return np.broadcast_to(np.asarray(value, dtype=float),
                               (x.shape[0],)).copy()

    def describe(self) -> str:
        return str(self.expr)


class TableField:
    """Piecewise-constant values on a uniform cell partition of a box.

    Outside the box the nearest cell value is continued; ``eval_field``
    applies the vanish-outside-Q mask on top of that.
    """

    def __init__(self, box: Box, cells, values):
        self.box = box
        self.cells = tuple(int(c) for c in cells)
        self.values = np.asarray(values, dtype=float).reshape(self.cells)
        if any(c < 1 for c in self.cells):
            raise FieldConstructionError("table needs at least one cell per axis")

    time_dependent = False

    def max_x_index(self) -> int:
        return self.box.n

    def eval_raw(self, x: np.ndarray, t) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lo = np.asarray(self.box.lo)
        width = self.box.sides / np.asarray(self.cells)
        idx = np.floor((x - lo) / width).astype(int)
        idx = np.clip(idx, 0, np.asarray(self.cells) - 1)
        return self.values[tuple(idx[:, i] for i in range(self.box.n))]

    def describe(self) -> str:
        return f"table{self.cells}"


def as_scalar_field(entry):
    """Coerce numbers, expression text, ``Expr`` or field objects."""
    if isinstance(entry, (ConstField, ExprField, TableField)):
        return entry
    if isinstance(entry, (int, float)):
        return ConstField(entry)
    if isinstance(entry, (str, Expr)):
        f = ExprField(entry)
        if isinstance(f.expr, Num):
            return ConstField(f.expr.value)
        return f
    raise FieldConstructionError(f"cannot interpret coefficient entry {entry!r}")


# ----------------------------------------------------------------------------
# sampling sets


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Spatial sample points times a list of sample times."""

    points: np.ndarray   # (Ns, n)
    times: np.ndarray    # (Nt,)
    descriptor: dict = dc_field(default_factory=dict)
    _memo: dict = dc_field(default_factory=dict, repr=False)

    @property
    def count(self) -> int:
        return self.points.shape[0] * self.times.shape[0]


def _nodes_and_midpoints(lo: float, hi: float, nodes: int) -> np.ndarray:
    base = np.linspace(lo, hi, nodes)
    mids = 0.5 * (base[:-1] + base[1:])
    return np.sort(np.concatenate([base, mids]))


def _lattice(axes) -> np.ndarray:
    """The points of the tensor lattice of the axes, in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def sample_set(box: Box, T: float, space: int = 9, time: int = 3) -> SampleSet:
    """Nodes plus cell midpoints of a uniform lattice over ``box x [0, T]``."""
    if space < 2 or time < 1:
        raise ValueError("need at least 2 spatial and 1 temporal node")
    axes = [_nodes_and_midpoints(lo, hi, space)
            for lo, hi in zip(box.lo, box.hi)]
    points = _lattice(axes)
    if time == 1:
        times = np.array([0.5 * T])
    else:
        times = _nodes_and_midpoints(0.0, T, time)
    return SampleSet(points, times,
                     {"space_nodes": space, "time_nodes": time,
                      "box": [list(box.lo), list(box.hi)], "T": T})


# ----------------------------------------------------------------------------
# the coefficient field


def _matrix_eval(entries, x, t) -> np.ndarray:
    n = len(entries)
    npts = np.atleast_2d(x).shape[0]
    out = np.empty((npts, n, n))
    for i in range(n):
        for j in range(n):
            out[:, i, j] = entries[i][j].eval_raw(x, t)
    return out


@dataclass(frozen=True)
class CoefficientField:
    """Immutable coefficient bundle; evaluation is reentrant.  Its kind is
    read from its entries: it moves in time when one reads ``t``, and its
    rate is real exactly when ``lam_im`` is the constant 0."""

    n: int
    T: float
    domain: Box | None
    b: tuple          # n x n of scalar fields, symmetric
    f: tuple          # n scalar fields
    lam_re: object
    lam_im: object
    beta: tuple | None = None

    # -- structural helpers ---------------------------------------------

    @functools.cached_property
    def time_dependent(self) -> bool:
        entries = [e for row in self.b for e in row] + list(self.f)
        entries += [self.lam_re, self.lam_im]
        if self.beta is not None:
            entries += [e for row in self.beta for e in row]
        return any(e.time_dependent for e in entries)

    def sampling_box(self) -> Box:
        if self.domain is not None:
            return self.domain
        return Box((-1.0,) * self.n, (1.0,) * self.n)

    # -- evaluation: the entries' formulas at any (x, t), also outside Q --

    def eval_b(self, x, t) -> np.ndarray:
        return _matrix_eval(self.b, x, t)

    def eval_f(self, x, t) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        return np.stack([fi.eval_raw(x2, t) for fi in self.f], axis=-1)

    def eval_lambda(self, x, t) -> np.ndarray:
        re = self.lam_re.eval_raw(x, t)
        im = self.lam_im.eval_raw(x, t)
        return re + 1j * im

    def eval_beta(self, x, t) -> np.ndarray:
        if self.beta is None:
            raise FieldConstructionError("field carries no diffusion factor beta")
        return _matrix_eval(self.beta, x, t)

    @property
    def lambda_is_real(self) -> bool:
        return isinstance(self.lam_im, ConstField) and self.lam_im.value == 0.0

    def describe(self) -> dict:
        d = {
            "n": self.n, "T": self.T,
            "domain": None if self.domain is None
            else [list(self.domain.lo), list(self.domain.hi)],
            "b": [[e.describe() for e in row] for row in self.b],
            "f": [e.describe() for e in self.f],
            "lambda": {"re": self.lam_re.describe(), "im": self.lam_im.describe()},
        }
        if self.beta is not None:
            d["beta"] = [[e.describe() for e in row] for row in self.beta]
        return d


def _probe_points(box: Box, T: float):
    """Deterministic construction-time probe: corners, center, random fill."""
    rng = np.random.default_rng(1234)
    corners = np.array(list(itertools.islice(
        itertools.product(*zip(box.lo, box.hi)), 16)))
    center = 0.5 * (np.asarray(box.lo) + np.asarray(box.hi))[None, :]
    rand = rng.uniform(box.lo, box.hi, size=(48, box.n))
    pts = np.concatenate([corners, center, rand], axis=0)
    return [(pts, t) for t in (0.0, 0.5 * T, T)]


def make_field(n, T, domain, b, f=None, lam=0.0, beta=None) -> CoefficientField:
    """Validating constructor.

    ``b``/``beta`` are n x n nested sequences, ``f`` a length-n sequence,
    ``lam`` a scalar entry, a complex number, or a ``(re, im)`` pair.
    Symmetry of ``b`` and ``b = 0.5 beta beta^T`` (when ``beta`` is given)
    are checked on a deterministic probe set to 1e-12.
    """
    n, T = int(n), float(T)
    if n < 1:
        raise FieldConstructionError(f"n = {n!r}: expected an integer >= 1")
    if not 0.0 < T < np.inf:
        raise FieldConstructionError(f"T = {T!r}: expected a finite number > 0")
    if domain is not None and not isinstance(domain, Box):
        domain = Box(*domain)
    if domain is not None and domain.n != n:
        raise FieldConstructionError("domain dimension does not match n")
    b_entries = tuple(tuple(as_scalar_field(b[i][j]) for j in range(n))
                      for i in range(n))
    if f is None:
        f = [0.0] * n
    f_entries = tuple(as_scalar_field(fi) for fi in f)
    if isinstance(lam, tuple):
        lam_re, lam_im = (as_scalar_field(lam[0]), as_scalar_field(lam[1]))
    elif isinstance(lam, complex):
        lam_re, lam_im = ConstField(lam.real), ConstField(lam.imag)
    else:
        lam_re, lam_im = as_scalar_field(lam), ConstField(0.0)
    beta_entries = None
    if beta is not None:
        beta_entries = tuple(tuple(as_scalar_field(beta[i][j]) for j in range(n))
                             for i in range(n))

    fld = CoefficientField(n, T, domain, b_entries, f_entries,
                           lam_re, lam_im, beta_entries)

    for e in [x for row in b_entries for x in row] + list(f_entries) + \
            [lam_re, lam_im] + ([x for row in beta_entries for x in row]
                                if beta_entries else []):
        if e.max_x_index() > n:
            raise FieldConstructionError(
                f"entry {e.describe()!r} references x{e.max_x_index()} but n={n}")

    box = fld.sampling_box()
    for x, t in _probe_points(box, fld.T):
        bm = fld.eval_b(x, t)
        mism = np.abs(bm - np.swapaxes(bm, -1, -2)).max()
        if mism > 1e-12:
            raise FieldConstructionError(
                f"b is not symmetric (entry-wise mismatch {mism:.3e})")
        if not np.all(np.isfinite(bm)):
            raise FieldConstructionError("b is unbounded on the probe set")
        if beta_entries is not None:
            bb = fld.eval_beta(x, t)
            prod = 0.5 * np.einsum("pik,pjk->pij", bb, bb)
            if np.abs(prod - bm).max() > 1e-12 * max(1.0, np.abs(bm).max()):
                raise FieldConstructionError(
                    "beta does not factor b: 0.5*beta*beta^T mismatch")
        fv = fld.eval_f(x, t)
        lv = fld.eval_lambda(x, t)
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(lv))):
            raise FieldConstructionError("f or lambda is unbounded on the probe set")
    return fld


def eval_field(field: CoefficientField, x, t):
    """Point evaluation: returns ``(b, f, lam)``, all zero outside
    ``Q = D x [0, T]`` (the coefficients vanish there)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    b = field.eval_b(x, t)[0]
    f = field.eval_f(x, t)[0]
    lam = field.eval_lambda(x, t)[0]
    if not (0.0 <= t <= field.T
            and (field.domain is None or field.domain.contains(x)[0])):
        b[...], f[...], lam = 0.0, 0.0, 0.0
    return b, f, complex(lam)


# ----------------------------------------------------------------------------
# decomposition b = b_bar + b_hat


@dataclass(frozen=True)
class Decomposition:
    """Split of ``b`` into a continuous reference part and a remainder.

    ``index_set`` (1-based coordinates) must cover the sparsity pattern of
    the remainder: entries with both indices outside the set vanish.
    ``gamma`` maps covered coordinates to weights in (0, 2); it stays
    ``None`` until optimized or supplied.
    """

    field: CoefficientField
    b_bar: tuple
    index_set: tuple
    gamma: dict | None = None

    def eval_b_bar(self, x, t) -> np.ndarray:
        return _matrix_eval(self.b_bar, x, t)

    def eval_b_hat(self, x, t) -> np.ndarray:
        return self.field.eval_b(x, t) - self.eval_b_bar(x, t)

    def with_gamma(self, gamma) -> "Decomposition":
        gamma = _validate_gamma(gamma, self.index_set)
        return Decomposition(self.field, self.b_bar, self.index_set, gamma)

    def with_index_set(self, index_set, samples: SampleSet) -> "Decomposition":
        index_set = _validate_index_set(index_set, self.field.n)
        if not _covers(index_set, sparsity_pattern(self, samples)):
            raise FieldConstructionError(
                f"index set {index_set} does not cover the remainder's "
                f"sparsity pattern")
        return Decomposition(self.field, self.b_bar, index_set, self.gamma)

    def describe(self) -> dict:
        return {
            "b_bar": [[e.describe() for e in row] for row in self.b_bar],
            "index_set": list(self.index_set),
            "gamma": None if self.gamma is None
            else {str(k): v for k, v in sorted(self.gamma.items())},
        }


def _validate_index_set(index_set, n: int) -> tuple:
    """``index_set`` as sorted, distinct 1-based coordinates: a repeated
    index counts once, and one that is not a whole number in 1..n
    raises."""
    ks = [float(k) for k in index_set]
    if not all(k.is_integer() and 1 <= k <= n for k in ks):
        raise FieldConstructionError(
            f"indices outside 1..n: {list(index_set)} with n = {n}")
    return tuple(sorted({int(k) for k in ks}))


def _validate_gamma(gamma, index_set) -> dict:
    gamma = {int(k): float(v) for k, v in dict(gamma).items()}
    if set(gamma) != set(index_set):
        raise FieldConstructionError("gamma keys must equal the index set")
    lo, hi = GAMMA_RANGE
    for k, g in gamma.items():
        if not lo < g < hi:
            raise FieldConstructionError(
                f"gamma[{k}]={g} outside ({lo!r}, {hi!r})")
    return gamma


def _memoized(samples: SampleSet, key: tuple, build):
    """Per-sample-set cache.  ``key`` is a tag followed by the objects the
    entry depends on; the entry pins them, so their ids stay unique."""
    memo_key = (key[0],) + tuple(id(obj) for obj in key[1:])
    hit = samples._memo.get(memo_key)
    if hit is None:
        hit = samples._memo[memo_key] = (key, build())
    return hit[1]


def unique_rows(flat: np.ndarray) -> np.ndarray:
    """Sorted unique rows (lexsort; much faster than unique(axis=0))."""
    if len(flat) <= 1:
        return flat.copy()
    order = np.lexsort(flat.T[::-1])
    srt = flat[order]
    keep = np.ones(len(srt), dtype=bool)
    keep[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    return srt[keep]


def _sampled_matrices(samples: SampleSet, key: tuple, evaluate) -> np.ndarray:
    """Deduplicated matrices ``evaluate(points, t)`` over the sample set,
    memoized under ``key`` (a tag and everything ``evaluate`` reads)."""
    def build():
        stacked = np.concatenate([evaluate(samples.points, t)
                                  for t in samples.times], axis=0)
        flat = stacked.reshape(stacked.shape[0], -1)
        return unique_rows(flat).reshape(-1, *stacked.shape[1:])
    return _memoized(samples, key, build)


def unique_b_hat(decomp: Decomposition, samples: SampleSet) -> np.ndarray:
    """Deduplicated remainder matrices over the sample set (memoized)."""
    return _sampled_matrices(samples, ("b_hat", decomp.field, decomp.b_bar),
                             decomp.eval_b_hat)


def sparsity_pattern(decomp: Decomposition, samples: SampleSet,
                     tol: float = PATTERN_TOL) -> np.ndarray:
    """Boolean n x n mask of remainder entries that are active on the samples."""
    bh = unique_b_hat(decomp, samples)
    return np.abs(bh).max(axis=0) > tol


def _covers(index_set, pattern: np.ndarray) -> bool:
    n = pattern.shape[0]
    inset = np.zeros(n, dtype=bool)
    for k in index_set:
        inset[k - 1] = True
    viol = pattern & ~inset[:, None] & ~inset[None, :]
    return not viol.any()


def _all_covers(pattern: np.ndarray):
    """Every index set covering the pattern, smallest first, then in
    lexicographic order (the empty set covers an empty pattern)."""
    n = pattern.shape[0]
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if _covers(combo, pattern):
                yield combo


def minimal_vertex_cover(pattern: np.ndarray) -> tuple:
    """Smallest (then lexicographically first) cover of the pattern."""
    return next(_all_covers(pattern))


def decompose(field: CoefficientField, spec="identity",
              samples: SampleSet | None = None,
              index_set=None) -> Decomposition:
    """Split ``b`` into reference plus remainder.

    ``spec`` is ``"identity"`` (reference is the identity matrix),
    ``"constant"`` (reference is the arithmetic mean of ``b`` over the
    sample set), or an explicit n x n matrix of entries.  The default
    index set is the minimal vertex cover of the remainder's sparsity.
    """
    n = field.n
    if samples is None:
        samples = sample_set(field.sampling_box(), field.T)
    if isinstance(spec, str) and spec == "identity":
        b_bar = tuple(tuple(ConstField(1.0 if i == j else 0.0)
                            for j in range(n)) for i in range(n))
    elif isinstance(spec, str) and spec == "constant":
        acc = np.zeros((n, n))
        for t in samples.times:
            acc += field.eval_b(samples.points, t).mean(axis=0)
        acc /= len(samples.times)
        acc = 0.5 * (acc + acc.T)
        b_bar = tuple(tuple(ConstField(acc[i, j]) for j in range(n))
                      for i in range(n))
    elif isinstance(spec, str):
        raise FieldConstructionError(f"unknown split spec {spec!r}")
    else:
        b_bar = tuple(tuple(as_scalar_field(spec[i][j]) for j in range(n))
                      for i in range(n))
    decomp = Decomposition(field, b_bar, ())
    if index_set is not None:
        return decomp.with_index_set(index_set, samples)
    return Decomposition(field, b_bar,
                         minimal_vertex_cover(sparsity_pattern(decomp, samples)))


# ----------------------------------------------------------------------------
# mollification diagnostics


@dataclass(frozen=True)
class MollifiedField:
    """Smoothed coefficients on a uniform lattice over ``D1`` plus moduli.

    ``b_eps`` smooths the reference part ``b_bar``; ``f_eps`` and
    ``lam_eps`` smooth the low-order coefficients.  ``moduli`` holds the
    sampled convergence/derivative diagnostics ``nu_b, nu_b_bar, nu_f,
    nu_f_bar, nu_lambda, nu_lambda_bar``; ``r = max(1, n/2)`` is the
    integrability exponent used for the lambda modulus.
    """

    eps: float
    box: Box
    axes: tuple
    times: np.ndarray
    b_eps: np.ndarray      # (Nt, n, n, *grid)
    f_eps: np.ndarray      # (Nt, n, *grid)
    lam_eps: np.ndarray    # (Nt, *grid) complex
    moduli: dict
    r: float


def _bump_kernel(eps: float, spacing):
    """Polynomial bump (1 - |u|^2/eps^2)^3 on |u| <= eps, lattice-normalized.

    Returns the tap offsets ``(taps, n)`` and their weights ``(taps,)``.
    A radius at or below the spacing of an axis would keep the centre tap
    alone there, so it is refused.
    """
    if eps <= max(spacing):
        raise ValueError(f"mollification radius eps={eps:.6g} is at or below "
                         f"the lattice spacing {max(spacing):.6g}")
    taps = [np.arange(-int(np.floor(eps / s)), int(np.floor(eps / s)) + 1) * s
            for s in spacing]
    mesh = np.meshgrid(*taps, indexing="ij")
    r2 = sum(m ** 2 for m in mesh) / eps ** 2
    w = np.where(r2 <= 1.0, (1.0 - np.minimum(r2, 1.0)) ** 3, 0.0)
    return np.stack([m.ravel() for m in mesh], axis=-1), (w / w.sum()).ravel()


def _axis_cap(n: int) -> int:
    return {1: 321, 2: 121, 3: 41}.get(n, 17)


def mollify(source, eps: float, box: Box | None = None) -> MollifiedField:
    """Convolve the smoothable coefficients with a compact bump kernel.

    ``source`` is a :class:`Decomposition` (its reference part is
    smoothed) or a :class:`CoefficientField` (whose ``b`` is treated as
    its own continuous part).  Smoothing acts in space only; the moduli
    are sampled on the lattice over ``box`` (the field domain by default)
    at the times ``0``, ``T/2`` and ``T``.  Coefficients are continued by
    their raw formulas beyond the domain, and a constant entry is its own
    average (see ``_smooth_parts``), so constants are exact fixed points
    of the smoothing.  A radius at or below the lattice spacing of an axis
    is refused.
    """
    if eps <= 0:
        raise ValueError("mollification radius must be positive")
    if isinstance(source, Decomposition):
        field, b_src = source.field, source.b_bar
    else:
        field, b_src = source, source.b
    n = field.n
    box = box or field.sampling_box()
    axes = [np.linspace(lo, hi, min(_axis_cap(n),
                                    max(9, int(np.ceil(4 * side / eps)) + 1)))
            for lo, hi, side in zip(box.lo, box.hi, box.sides)]
    spacing = [a[1] - a[0] for a in axes]
    gshape = tuple(len(a) for a in axes)
    times = np.linspace(0.0, field.T, 3)
    pts = _lattice(axes)
    domain = field.domain or box
    probes = _lattice([np.linspace(lo, hi, 17)
                       for lo, hi in zip(domain.lo, domain.hi)])
    probes = probes[~box.contains(probes)]

    cellvol, dt = float(np.prod(spacing)), field.T / len(times)
    r = max(1.0, n / 2.0)
    shapes, powers = ((n, n), (n,), ()), (None, n, r)
    smoothed = [None] * 3   # each part's values over the times
    # by part, one number a time: the error on the box's lattice (the sup
    # for b_bar; for f and lambda the L^n and L^r integrands, cell volume
    # times T/3 a node), the sup of the error outside, the sup slope
    errors, outside, slopes = [[], [], []], [[], [], []], [[], [], []]

    def take(k, values, errs, errs_out):
        """Store time ``k``'s parts; reduce its errors and slopes."""
        for part, (v, e, shape, p) in enumerate(zip(values, errs, shapes,
                                                    powers)):
            if smoothed[part] is None:
                smoothed[part] = np.empty((len(times),) + shape + gshape,
                                          v.dtype)
            smoothed[part][k] = v.T.reshape(shape + gshape)
            errors[part].append(float(e.max()) if p is None
                                else float(np.sum(e ** p) * cellvol * dt))
            if errs_out[part] is not None:
                outside[part].append(float(errs_out[part].max()))
            # the slope: the lattice gradient's Euclidean norm
            grad_sq = sum(np.abs(np.gradient(v.reshape(gshape + (-1,)), s,
                                             axis=ax)) ** 2
                          for ax, s in enumerate(spacing))
            slopes[part].append(float(np.sqrt(grad_sq.sum(axis=-1)).max()))

    # time by time, so that one time's values are held at once; outside
    # the box only the f and lambda errors are read
    for k, t in enumerate(times):
        take(k, *_smoothing_errors(b_src, field, pts, eps, spacing, t),
               _smoothing_errors(None, field, probes, eps, spacing, t)[1]
               if len(probes) else [None] * 3)
    moduli = {}
    for name, p, err, out, slope in zip(("b", "f", "lambda"), powers,
                                        errors, outside, slopes):
        moduli[f"nu_{name}"] = max(err) if p is None else (
            sum(err) ** (1.0 / p) + max(out, default=0.0))
        moduli[f"nu_{name}_bar"] = max(0.0, *slope)
    return MollifiedField(float(eps), box, tuple(axes), times, *smoothed,
                          moduli, r)


def _smoothing_errors(b_src, field: CoefficientField, pts: np.ndarray,
                      eps: float, spacing, t: float):
    """``_smooth_parts`` at the points, each part a ``(points, components)``
    array, and each part's error there against its raw formulas (the
    Frobenius norm, the Euclidean norm and the modulus); without
    ``b_src`` (``None``) the matrix part and its error are ``None``."""
    raw = (None if b_src is None else _matrix_eval(b_src, pts, t),
           field.eval_f(pts, t), field.eval_lambda(pts, t))
    values = [v if v is None else v.reshape(len(pts), -1)
              for v in _smooth_parts(b_src, field, pts, eps, spacing, t)]
    return values, [v if v is None else
                    np.linalg.norm(v - w.reshape(v.shape), axis=1)
                    for v, w in zip(values, raw)]


def _smooth_parts(b_src, field: CoefficientField, pts: np.ndarray,
                  eps: float, spacing, t: float):
    """Bump-kernel averages at arbitrary points of the matrix ``b_src``
    (symmetric, entry rows), the drift ``field.f`` and the rate
    ``field.lam_re + i field.lam_im``, with kernel taps on a lattice of the
    given spacing.

    Each entry is evaluated once per non-zero tap on the shifted points
    and the taps are summed in lattice order, so the working set stays at
    a few arrays of ``len(pts)`` values; a constant entry is its own
    average.  Returns the read-only ``b (P, n, n)`` (``None`` without
    ``b_src``; one matrix broadcast over the points when every entry is
    constant), ``f (P, n)`` and the complex ``lam (P,)``.
    """
    offsets, w = _bump_kernel(eps, spacing)
    taps = np.flatnonzero(w)

    def smooth(entry):
        if isinstance(entry, ConstField):
            return entry.eval_raw(pts, t)
        out = np.zeros(pts.shape[0])
        for k in taps:
            out += w[k] * entry.eval_raw(pts + offsets[k], t)
        return out
    n = field.n
    b = None
    if b_src is not None:
        const = all(isinstance(e, ConstField) for row in b_src for e in row)
        b = np.empty((1 if const else pts.shape[0], n, n))
        for i in range(n):
            for j in range(i, n):
                b[:, i, j] = b[:, j, i] = (b_src[i][j].value if const
                                           else smooth(b_src[i][j]))
        b = np.broadcast_to(b, (pts.shape[0], n, n))
    f = np.stack([smooth(fi) for fi in field.f], axis=-1)
    lam = smooth(field.lam_re) + 1j * smooth(field.lam_im)
    return b, f, lam


# ----------------------------------------------------------------------------
# builtin problems


def _unit_diffusion(n: int, T: float, lo: float, hi: float):
    """``b = I`` and ``beta = sqrt(2) I`` on the box ``[lo, hi]^n``."""
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    beta = [[np.sqrt(2.0) if i == j else 0.0 for j in range(n)] for i in range(n)]
    return make_field(n, T, Box((lo,) * n, (hi,) * n), eye, beta=beta)


def _identity_heat(n=1, T=1.0):
    return _unit_diffusion(n, T, 0.0, 1.0)


def _paper_3x3(alpha, beta, T=1.0):
    b = [[1.0, alpha, beta], [alpha, 1.0, 0.0], [beta, 0.0, 1.0]]
    beta_mat = None
    if alpha ** 2 + beta ** 2 < 1.0 - 1e-12:
        beta_mat = symmetric_sqrt(2.0 * np.asarray(b))
    return make_field(3, T, Box((-1.0,) * 3, (1.0,) * 3), b, beta=beta_mat)


def _checkerboard_2d(low, high, cells=4, T=1.0):
    if low <= 0 or high <= 0:
        raise ValueError("checkerboard coefficients must be positive")
    box = Box((0.0, 0.0), (1.0, 1.0))
    ii, jj = np.meshgrid(np.arange(cells), np.arange(cells), indexing="ij")
    vals = np.where((ii + jj) % 2 == 0, low, high).astype(float)
    diag = TableField(box, (cells, cells), vals)
    zero = ConstField(0.0)
    root = TableField(box, (cells, cells), np.sqrt(2.0 * vals))
    return make_field(2, T, box, [[diag, zero], [zero, diag]],
                      beta=[[root, zero], [zero, root]])


def _manufactured_1d(T=0.5):
    return _unit_diffusion(1, T, 0.0, 1.0)


def _gaussian_free_space(n=1, half_width=8.0, T=0.5):
    return _unit_diffusion(n, T, -half_width, half_width)


_BUILTINS = {
    "identity_heat": _identity_heat,
    "paper_3x3": _paper_3x3,
    "checkerboard_2d": _checkerboard_2d,
    "manufactured_1d": _manufactured_1d,
    "gaussian_free_space": _gaussian_free_space,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))

_PI = repr(float(np.pi))
_PI2 = repr(float(np.pi ** 2))

# companion expressions for problems that ship a known solution: the
# source, the terminal datum at t = T, and the exact solution
_SOLVE_DATA = {
    "manufactured_1d": lambda T: (
        f"(1 + {_PI2}) * exp(-t) * sin({_PI} * x1)",
        f"exp(-{T!r}) * sin({_PI} * x1)",
        f"exp(-t) * sin({_PI} * x1)",
    ),
}


def builtin_signature(name: str) -> inspect.Signature:
    """The keyword parameters of a registered problem and their defaults
    (an int default marks a count); raises ``KeyError`` on unknown names."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin problem {name!r}; "
                       f"choose from {', '.join(BUILTIN_NAMES)}")
    return inspect.signature(_BUILTINS[name])


def builtin_problem(name: str, params: dict | None = None) -> CoefficientField:
    """Construct a registered problem from the keyword ``params``; raises
    ``KeyError`` on an unknown name, parameter or missing parameter."""
    try:
        bound = builtin_signature(name).bind(**(params or {}))
    except TypeError as err:
        raise KeyError(f"builtin problem {name!r}: {err}") from None
    return _BUILTINS[name](**bound.arguments)


def builtin_solve_data(name: str, T: float):
    """Source/terminal/exact expressions for builtins with a known solution.

    Returns ``(phi, Phi, exact)`` as expression fields (``Phi`` is the
    exact solution frozen at ``t = T``), or ``None``.
    """
    maker = _SOLVE_DATA.get(name)
    if maker is None:
        return None
    phi_s, Phi_s, exact_s = maker(float(T))
    return ExprField(phi_s), ExprField(Phi_s), ExprField(exact_s)
