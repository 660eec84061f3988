"""Backward terminal-value solver, its discrete adjoint, and the
fixed-point construction with mollified coefficients.

The backward problem ``dv/dt + A v = -phi`` with ``A v = sum b_ij
d2v/dx_i dx_j + sum f_i dv/dx_i - lambda v``, zero Dirichlet data and
``v(., T) = Phi`` is marched implicitly from ``t = T`` down to ``t = 0``
with a theta scheme:

    (I - theta*dt*A_h) v_k = (I + (1-theta)*dt*A_h) v_{k+1} + dt*phi_bar

Coefficients and the source are frozen at the theta-weighted time level
``t_k + (1-theta)*dt`` (the unknown level for the default ``theta = 1``),
with coefficients sampled pointwise at the nodes.  The forward density
solve propagates with the conjugate transposes of the very same step
matrices, so the discrete duality pairing holds to solver precision.

The fixed-point construction splits ``A = A_s + R`` into the operator of
bump-smoothed coefficients and the rough remainder and iterates on ``v``:
each sweep marches the smooth scheme with ``R`` applied to the previous
increment, so its limit is the direct solve.  The weight
``exp(-K*(T-t))`` of the contraction argument enters only the norm in
which the increments are measured, not the operator.

This is the package's one module that imports ``scipy.sparse``.  The
config loader imports it for a config with grid keys, and a run of any
other config does not load it.
"""

from __future__ import annotations

import contextlib
import functools
import warnings
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .conditions import ellipticity_delta, nu_hat
from .fields import CoefficientField, Decomposition, SampleSet, _smooth_parts
from .grid import Grid, GridFunction, NormBundle, NormWeights, discrete_norms
from .grid import _eval_space_fn, _slice_l2
from .linalg import SolverError, _real_if_possible, _usable_cores

__all__ = [
    "SolverError", "BackwardProblem", "DiscreteSolution", "FixedPointTrace",
    "assemble_operator", "assemble_step", "solve_backward",
    "solve_forward_adjoint", "fixed_point_solve", "estimate_R_norm",
    "apriori_ratio",
]

LIN_RTOL = 1e-10
LAGGED_MAXITER = 8  # BiCGStab iterations before a level is refactorized
MAX_KT = 200.0      # largest weight exponent K*T; exp(K*T) stays finite
SWEEP_WORKERS = 2   # pipelined sweeps in flight: one sweep runs ahead


# ----------------------------------------------------------------------------
# problem data


@dataclass
class BackwardProblem:
    """Data of one terminal-value problem on a coefficient field.

    The field is the operator: its ``b``, ``f`` and rate ``lambda`` (real
    or complex) are read at the nodes, and it alone says whether the
    operator moves in time.  ``phi`` and ``Phi`` follow the conventions
    of ``_eval_points``: callables are ``phi(points, t)`` and
    ``Phi(points)``.  Whether the solve runs in complex arithmetic is
    decided by the march from the values it evaluates.
    """

    field: CoefficientField
    phi: object = None
    Phi: object = None

    def eval_phi(self, grid: Grid, t: float) -> np.ndarray:
        return _eval_space_fn(self.phi, grid, t)

    def eval_Phi(self, grid: Grid) -> np.ndarray:
        return _eval_space_fn(self.Phi, grid, None)

    def coefficients(self, grid: Grid, t: float):
        """``(b, f, lambda)`` at the nodes at time ``t``."""
        nodes = grid.nodes()
        return (self.field.eval_b(nodes, t), self.field.eval_f(nodes, t),
                self.field.eval_lambda(nodes, t))


@dataclass
class DiscreteSolution:
    """A grid solution.  Its space-time norm bundle ``norms``, under the
    solution's own ``weights`` (``None``: the defaults), is computed on
    first read."""

    v: GridFunction
    meta: dict = dc_field(default_factory=dict)
    weights: NormWeights | None = None
    # (phi spec, theta, L2 norms over space of the source at the levels
    # 0 .. nt-1 the march evaluated)
    _source: tuple | None = dc_field(default=None, repr=False, compare=False)

    @functools.cached_property
    def norms(self) -> NormBundle:
        return discrete_norms(self.v, self.weights)


@dataclass
class FixedPointTrace:
    eps: float
    K: float
    increments: list
    contraction_est: float
    converged: bool
    agreement: float | None = None

    def as_dict(self) -> dict:
        return {"eps": self.eps, "K": self.K,
                "increments": [float(x) for x in self.increments],
                "contraction_est": self.contraction_est,
                "converged": self.converged,
                "agreement_vs_direct": self.agreement}


# ----------------------------------------------------------------------------
# sparse assembly


class _Pattern:
    """CSR structure of an operator on one grid shape.

    ``offsets`` are the stencil's couplings, distinct tuples of integer
    steps along the axes, the zero offset (the node itself) among them: a
    node couples with the node ``offset`` away wherever that lies in the
    grid.  Assembly stacks one value array per offset, in their order, and
    ``source`` picks each stored entry from that stack; ``diagonal`` holds
    the stored positions of the zero offset.
    """

    def __init__(self, m: tuple, offsets: tuple):
        n = len(m)
        N = int(np.prod(m))
        multi = np.indices(m).reshape(n, N)
        rows, cols, stack_at = [], [], []
        for k, offset in enumerate(offsets):
            moved = multi + np.array(offset)[:, None]
            inside = np.flatnonzero(
                ((moved >= 0) & (moved < np.array(m)[:, None])).all(axis=0))
            rows.append(inside)
            cols.append(np.ravel_multi_index(moved[:, inside], m))
            stack_at.append(k * N + inside)
        stack_at = np.concatenate(stack_at)
        # scipy's own COO -> CSR conversion of the entry numbers tells
        # which entry lands at each stored position
        order = sparse.csr_matrix(
            (np.arange(len(stack_at), dtype=float),
             (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))
        self.shape = (N, N)
        self.indices = order.indices
        self.indptr = order.indptr
        self.source = stack_at[order.data.astype(np.int64)]
        self.diagonal = np.flatnonzero(
            self.source // N == offsets.index((0,) * n))
        for arr in (self.indices, self.indptr, self.source, self.diagonal):
            arr.setflags(write=False)  # shared by every matrix of the shape

    def matrix(self, data: np.ndarray) -> sparse.csr_matrix:
        """The matrix with the stored entries ``data`` (in CSR order)."""
        return sparse.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=self.shape)


@functools.lru_cache(maxsize=4)
def _pattern(m: tuple, offsets: tuple) -> _Pattern:
    return _Pattern(m, offsets)


def _assemble_from_arrays(grid: Grid, b_arr, f_arr, lam_arr, dtype):
    """The operator's ``_pattern`` on the grid and its stored entries, in
    CSR order.

    The stencil is one table ``{offset: weight at every node}``: the axis
    neighbours ``+-e_i`` where ``b_ii`` or ``f_i`` is non-zero at some
    node, the plane diagonals ``+-(e_i + e_j)`` and ``+-(e_i - e_j)``
    where ``b_ij`` is, and the node itself always.  A coupling left out
    weighs exactly 0 at every node.
    """
    n, h = grid.n, grid.h
    e = np.eye(n, dtype=np.int64)
    table = {}  # offset -> weight at every node

    def couple(offset, weight):
        table[tuple(offset.tolist())] = weight
    diag = -np.asarray(lam_arr, dtype=dtype).ravel()
    for i in range(n):
        c2 = b_arr[:, i, i]
        c1 = f_arr[:, i]
        diag = diag - 2.0 * c2 / h[i] ** 2
        if c2.any() or c1.any():
            couple(e[i], c2 / h[i] ** 2 + c1 / (2 * h[i]))
            couple(-e[i], c2 / h[i] ** 2 - c1 / (2 * h[i]))
        for j in range(i + 1, n):
            if b_arr[:, i, j].any():
                cc = 2.0 * b_arr[:, i, j] / (4.0 * h[i] * h[j])
                couple(e[i] + e[j], cc)
                couple(-e[i] - e[j], cc)
                couple(e[i] - e[j], -cc)
                couple(e[j] - e[i], -cc)
    table[(0,) * n] = diag
    pattern = _pattern(tuple(grid.m), tuple(table))
    return pattern, np.array(list(table.values()),
                             dtype=dtype).ravel()[pattern.source]


def _step_matrices(pattern: _Pattern, data: np.ndarray, dt: float,
                   theta: float):
    """``B = I - theta dt A`` and ``C = I + (1-theta) dt A`` (``None`` for
    the implicit scheme, where ``C`` is the identity) from the stored
    entries ``data`` of ``A`` on ``pattern``.

    Each entry is rounded as scipy's sparse sum ``eye -/+ s*A`` rounds it
    and exact zeros are dropped, so both equal that sum bit for bit.
    """
    def on_pattern(values):
        mat = pattern.matrix(values)
        if not values.all():
            mat.eliminate_zeros()
        return mat

    diag = pattern.diagonal
    y = theta * dt * data
    b = -y
    b[diag] = 1.0 - y[diag]
    C = None
    if theta < 1.0:
        z = (1.0 - theta) * dt * data
        z[diag] += 1.0
        C = on_pattern(z)
    return on_pattern(b), C


def _operator_values(problem: BackwardProblem, grid: Grid, t: float):
    b, f, lam = problem.coefficients(grid, t)
    lam = _real_if_possible(lam)
    return _assemble_from_arrays(grid, b, f, lam, lam.dtype)


def assemble_operator(problem: BackwardProblem, grid: Grid,
                      t: float) -> sparse.csr_matrix:
    """Sparse discretization of the spatial operator at time ``t``."""
    pattern, data = _operator_values(problem, grid, t)
    return pattern.matrix(data)


def assemble_step(problem: BackwardProblem, grid: Grid, t: float,
                  theta: float = 1.0):
    """Step matrices ``(B, C, phi_bar)`` for the move onto time level ``t``.

    ``B v_t = C v_{t+dt} + dt * phi_bar`` with the operator and the source
    frozen at ``t + (1-theta)*dt``.
    """
    _check_theta(theta)
    dt = grid.dt
    t_eval = t + (1.0 - theta) * dt
    B, C = _step_matrices(*_operator_values(problem, grid, t_eval), dt, theta)
    if C is None:
        C = sparse.identity(grid.size, dtype=B.dtype, format="csr")
    phi_bar = problem.eval_phi(grid, t_eval)
    return B, C, phi_bar


def _check_theta(theta: float):
    if not 0.5 <= theta <= 1.0:
        raise ValueError("theta must lie in [0.5, 1]")


# ----------------------------------------------------------------------------
# linear solves and marching


class _StepSolver:
    """One factorization per march, reused as a lagged preconditioner.

    The first step matrix it is given is factorized.  Every step matrix
    has the symmetric pattern of the stencil, so the factor takes a
    minimum-degree order of ``B + B^T`` with diagonal-preferring partial
    pivots (about 0.6 times the fill of a column order on 3-D grids).  A
    system with that very matrix (a static operator's) is solved
    directly.  Any other level's system is solved by BiCGStab
    preconditioned with the lagged LU, started from the caller's ``x0``
    (a march passes the start ``_start`` picks from its last levels) and
    capped at ``LAGGED_MAXITER`` iterations; when the cap is hit, the
    residual check fails or the norm of the data overflows, that level's
    matrix is factorized, solved directly, and becomes the lagged factor.
    Every step is deterministic.
    """

    def __init__(self):
        self._B = None
        self._lu = None

    def hold(self, B):
        """Factorize ``B`` unless it is the held matrix already."""
        if B is self._B:
            return
        try:
            self._lu = splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A",
                            options={"SymmetricMode": True})
        except RuntimeError as err:
            raise SolverError(
                f"step system of size {B.shape[0]} is singular "
                f"({err}); reduce dt or check the coefficients") from None
        self._B = B

    def _lagged(self, B, rhs, x0, trans):
        lu = self._lu
        mat = B if trans == "N" else B.T if trans == "T" else B.conj().T
        precond = LinearOperator(B.shape, dtype=B.dtype,
                                 matvec=lambda r: lu.solve(r, trans=trans))
        # BiCGStab's breakdown tests are absolute; solve for unit data
        with np.errstate(over="ignore"):
            scale = np.linalg.norm(rhs)
        if scale == 0.0:
            return np.zeros_like(rhs)
        if not np.isfinite(scale):  # entries above ~1e154: solve directly
            return None
        x, info = bicgstab(mat, rhs / scale, x0 / scale, rtol=LIN_RTOL,
                           atol=0.0, maxiter=LAGGED_MAXITER, M=precond)
        x *= scale
        if info != 0 or np.linalg.norm(mat @ x - rhs) > 1e-8 * scale:
            return None
        return x

    def solve(self, B, rhs, x0, adjoint: bool = False) -> np.ndarray:
        """Solve ``B x = rhs`` (``B^H x = rhs`` when ``adjoint``); ``x0``
        starts the iteration when one runs."""
        trans = "N"
        if adjoint:
            trans = "H" if np.iscomplexobj(B.data) else "T"
        rhs = np.asarray(rhs, dtype=B.dtype)
        if B is not self._B and self._lu is not None:
            x = self._lagged(B, rhs, x0, trans)
            if x is not None:
                return x
        self.hold(B)
        return self._lu.solve(rhs, trans=trans)


def _start(mat, rhs: np.ndarray, recent) -> np.ndarray:
    """The start of a march's lagged solve of ``mat x = rhs``: of the
    last level ``u_1``, the linear extrapolation ``2 u_1 - u_2`` and the
    quadratic one ``3 (u_1 - u_2) + u_3`` from the last levels ``recent``
    (newest first, as many as exist), the one of least residual."""
    # huge levels may overflow a start or a residual norm to inf, and an
    # infinite step matrix makes it nan; min prefers neither to a finite one
    with np.errstate(over="ignore", invalid="ignore"):
        starts = [recent[0]]
        if len(recent) >= 2:
            starts.append(2.0 * recent[0] - recent[1])
        if len(recent) >= 3:
            starts.append(3.0 * (recent[0] - recent[1]) + recent[2])
        return min(starts, key=lambda x: np.linalg.norm(mat @ x - rhs))


class _Stepper:
    """Prepared marching machinery for one grid, theta and coefficient
    source ``coefficients(key, t) -> (b, f, lambda)`` at the nodes, asked
    by the level key of a step's system (``key(k)``: ``k``, or 0 for a
    static operator) and its ``t_eval(k)``; a memo keys by level.

    ``levels`` is the one loop that solves step systems, for the backward
    and the adjoint march; ``_fill`` copies it into a space-time block.
    Arithmetic starts real and switches to complex once, the first time a
    rate, a source slice or the datum (terminal data or density) that the
    march evaluates carries an imaginary part.  It holds one step system:
    the static operator's for the whole march, or the current level's.  A
    time-dependent operator's lagged solves start from the level that
    ``_start`` picks from the march's last three.
    """

    def __init__(self, grid: Grid, theta: float, coefficients,
                 time_dependent: bool):
        _check_theta(theta)
        self.grid = grid
        self.theta = theta
        self.coefficients = coefficients
        self.time_dependent = time_dependent
        self.dtype = float
        self.solver = _StepSolver()
        self._held = None  # (level key, B, C)

    def t_eval(self, k: int) -> float:
        return (k + 1.0 - self.theta) * self.grid.dt

    def _admit(self, values) -> np.ndarray:
        """``values`` in the march's arithmetic; switches it to complex
        (dropping the real step system and factor) when they have
        imaginary parts."""
        values = _real_if_possible(values)
        if self.dtype is float and np.iscomplexobj(values):
            self.dtype = complex
            self._held = None
            self.solver = _StepSolver()
        return values

    def key(self, k: int) -> int:
        return k if self.time_dependent else 0

    def system(self, k: int):
        key = self.key(k)
        if self._held is None or self._held[0] != key:
            t = self.t_eval(k)
            b, f, lam = self.coefficients(key, t)
            if not all(np.isfinite(c).all() for c in (b, f, lam)):
                raise SolverError(
                    f"non-finite coefficients in the step between time "
                    f"level {k} and time level {k + 1} (frozen at t = "
                    f"{t:.6g}); check b, f and the rate")
            lam = self._admit(lam)
            self._held = (key,) + _step_matrices(
                *_assemble_from_arrays(self.grid, b, f, lam, self.dtype),
                self.grid.dt, self.theta)
        return self._held[1:]

    def block(self) -> np.ndarray:
        """A zero space-time block in the march's current arithmetic."""
        return np.zeros((self.grid.nt + 1,) + self.grid.shape, self.dtype)

    def _finite(self, level: np.ndarray, k: int) -> np.ndarray:
        """The march's time level ``k``; raises when it is not finite."""
        if not np.isfinite(level).all():
            raise SolverError(
                f"the march turned non-finite at time level {k} "
                f"(t = {k * self.grid.dt:.6g}); check the data and the "
                f"coefficients for overflow")
        return level

    def levels(self, first: np.ndarray, source=None, adjoint: bool = False):
        """Yield the march's levels ``(k, x_k)`` (flat) in solve order.

        Backward: ``first`` is ``Phi`` at level ``nt``, and ``B_k v_k =
        C_k v_{k+1} + dt*source(k)`` (``source`` ``None``: zero) is solved
        down to level 0.  Adjoint: ``B_k^H p_k = q_k`` is solved up from
        ``q_0 = first`` (the density), with ``q_{k+1} = C_k^H p_k``, and
        ``q_nt`` comes last.  A time-dependent operator's lagged solve
        starts from the last level ``x_1``, ``2 x_1 - x_2`` or ``3 (x_1 -
        x_2) + x_3`` (as many as the march has), whichever has the least
        residual (``_start``, given ``B^H`` in the adjoint); the adjoint's
        first solve starts from ``q_0``.  A static operator's direct
        solves need no start."""
        nt = self.grid.nt
        x = self._finite(self._admit(first), 0 if adjoint else nt).ravel()
        recent = deque(maxlen=3)    # the last solved levels, newest first
        if not adjoint:
            yield nt, x
            recent.append(x)
        for k in range(nt) if adjoint else range(nt - 1, -1, -1):
            src = None if source is None else self._admit(source(k))
            B, C = self.system(k)
            x = x.astype(self.dtype, copy=False)
            rhs = x if adjoint or C is None else C @ x
            if src is not None:
                rhs = rhs + self.grid.dt * src.ravel()
            x0 = (_start(B.getH() if adjoint else B, rhs, recent)
                  if recent and self.time_dependent else rhs)
            x = self._finite(self.solver.solve(B, rhs, x0, adjoint), k)
            recent.appendleft(x)
            yield k, x
            if adjoint and C is not None:
                x = C.getH() @ x
        if adjoint:
            yield nt, self._finite(x, nt)


def _fill(block: np.ndarray, levels, on_level=None) -> np.ndarray:
    """``block`` with a march's ``levels`` ``(k, x_k)`` (flat) stored in
    it, widened to complex (a copy) once a level is complex;
    ``on_level(k, block)``, when given, follows the store of level ``k``."""
    for k, level in levels:
        if np.iscomplexobj(level) and not np.iscomplexobj(block):
            block = block.astype(complex)
        block[k] = level.reshape(block.shape[1:])
        if on_level is not None:
            on_level(k, block)
    return block


def solve_backward(problem: BackwardProblem, grid: Grid,
                   theta: float = 1.0, _on_level=None) -> DiscreteSolution:
    """March the terminal-value problem down to ``t = 0``.

    The terminal slice is the sampled ``Phi`` exactly; each linear system
    is solved directly or to a relative residual of 1e-10 (see
    ``_StepSolver``).  Complex arithmetic switches on
    automatically when the rate or the data have imaginary parts.
    ``_on_level(k, v_k)`` (private), when given, gets each level as the
    march solves it, from ``nt`` down to 0.
    """
    stepper = _Stepper(grid, theta, lambda _, t: problem.coefficients(grid, t),
                       problem.field.time_dependent)
    norms = np.zeros(grid.nt)   # the source levels' L2 norms, by level

    def phi_at(k):
        vals = problem.eval_phi(grid, stepper.t_eval(k))
        norms[k] = _slice_l2(vals[None], grid)[0]
        return vals
    v = _fill(stepper.block(), stepper.levels(problem.eval_Phi(grid), phi_at),
              on_level=_on_level and (lambda k, out: _on_level(k, out[k])))
    meta = {"theta": theta, "dt": grid.dt, "rtol": LIN_RTOL,
            "time_dependent": problem.field.time_dependent}
    return DiscreteSolution(GridFunction(grid, v), meta,
                            _source=(problem.phi, theta, norms))


def solve_forward_adjoint(rho, problem: BackwardProblem, grid: Grid,
                          theta: float = 1.0) -> DiscreteSolution:
    """Propagate a density with the transposed step matrices.

    Slices ``0 .. nt-1`` hold the densities paired with the backward
    sources; slice ``nt`` is the terminal density paired with ``Phi``.
    A signed input density triggers a warning, not an error.
    """
    rho_arr = rho.values if isinstance(rho, GridFunction) else np.asarray(rho)
    if rho_arr.shape != grid.shape:
        raise ValueError("density shape does not match the grid")
    if not np.isfinite(rho_arr).all():
        raise ValueError("density has non-finite values")
    if np.min(rho_arr.real) < -1e-12:
        warnings.warn("initial density has negative parts", RuntimeWarning)
    stepper = _Stepper(grid, theta, lambda _, t: problem.coefficients(grid, t),
                       problem.field.time_dependent)
    p = _fill(stepper.block(), stepper.levels(rho_arr, adjoint=True))
    return DiscreteSolution(GridFunction(grid, p), {"theta": theta})


# ----------------------------------------------------------------------------
# fixed-point construction


class _Splitting:
    """``A = A_s + R`` for the fixed-point construction: a stepper of the
    smoothed operator ``A_s`` and the rough remainder ``R``, both frozen at
    each step's ``t_eval`` exactly as the direct theta scheme freezes
    ``A``, and the weighted norm of the increments (``norm``).

    The bump-smoothed coefficients (three kernel taps per radius along each
    axis) are computed once per level, or once for a static field, by the
    stepper's source, a closure over their memo.  ``R``, assembled like
    ``A`` from the coefficient differences, is held for the current level
    as a step system is.  Every cache is keyed by the level ``k`` (0 for a
    static operator), never by a time, and none refers back to the
    splitting.  One stepper serves every march of a solve or an R-norm
    estimate, so a static operator's smooth step matrix is factorized once.
    """

    def __init__(self, problem: BackwardProblem, grid: Grid,
                 decomp: Decomposition, eps: float, theta: float, K: float):
        if not 0.0 < eps < np.inf:
            raise ValueError(f"mollification radius eps = {eps} must be "
                             f"finite and positive")
        if not np.isfinite(K):
            raise SolverError(f"weight rate K = {K} is not finite; fix K")
        if abs(K) * grid.T > MAX_KT:
            raise SolverError(f"weight exponent K*T = {K * grid.T:.3g} would "
                              f"overflow; shorten the horizon or fix K")
        self.problem = problem
        self.grid = grid
        self.theta = theta
        gamma = decomp.gamma or {k: 1.0 for k in decomp.index_set}
        self.weights = (NormWeights(decomp.index_set, gamma)
                        if decomp.index_set else NormWeights.default(grid.n))
        self.weight = np.exp(-K * (grid.T - grid.times())).reshape(
            (-1,) + (1,) * grid.n)
        smoothed = {}   # level key -> smoothed (b, f, lambda)

        def smooth(key, t):
            if key not in smoothed:
                smoothed[key] = _smooth_parts(
                    decomp.b_bar, decomp.field, grid.nodes(), float(eps),
                    [float(eps) / 3.0] * grid.n, t)
            return smoothed[key]
        self.stepper = _Stepper(grid, theta, smooth,
                                decomp.field.time_dependent)
        self.time_dependent = (problem.field.time_dependent
                               or decomp.field.time_dependent)
        self._held = None  # (level key, R)

    def norm(self, block: np.ndarray) -> float:
        """``Yhat2`` of ``exp(-K (T-t)) block`` in the index-set weights."""
        return discrete_norms(GridFunction(self.grid, self.weight * block),
                              self.weights).Yhat2

    def remainder(self, k: int) -> sparse.csr_matrix:
        key = k if self.time_dependent else 0
        if self._held is None or self._held[0] != key:
            t = self.stepper.t_eval(k)
            b, f, lam = self.problem.coefficients(self.grid, t)
            b_s, f_s, lam_s = self.stepper.coefficients(self.stepper.key(k), t)
            dl = _real_if_possible(lam - lam_s)
            pattern, data = _assemble_from_arrays(
                self.grid, b - b_s, f - f_s, dl, dl.dtype)
            self._held = (key, pattern.matrix(data))
        return self._held[1]

    def source(self, d):
        """The source ``R_k (theta d_k + (1-theta) d_{k+1})`` of the smooth
        march from zero terminal data that makes the next Picard
        increment after ``d``; level ``k`` of ``d`` is read as ``d[k]``."""
        shape, theta = self.grid.shape, self.theta

        def at(k):
            x = theta * d[k] + (1.0 - theta) * d[k + 1]
            return (self.remainder(k) @ x.ravel()).reshape(shape)
        return at

    def increments(self, d: np.ndarray, sweeps: int, before_sweep):
        """Yield the increments of up to ``sweeps`` sweeps after ``d``, in
        sweep order.

        Every sweep runs on a pool and publishes its levels as it fills
        them (``_Published``).  A static operator's sweeps share one
        read-only ``R``, step system and factor, built first in the
        arithmetic every sweep uses, so the pool takes up to
        ``SWEEP_WORKERS`` usable cores: sweep ``i + 1`` follows sweep
        ``i`` one level behind, since its level ``k`` needs levels ``k``
        and ``k + 1`` of sweep ``i`` and every march goes down from
        ``nt``.  Each sweep in flight holds a full space-time block, and
        the ones past the stop are cancelled, so the look-ahead stays at
        the one sweep that was measured.  A time-dependent operator
        builds its levels as it goes, so its pool has one worker and its
        sweeps run one after the other.  Either way the increments are
        the same bits.  Closing the generator cancels the sweeps ahead of
        the consumer.  ``before_sweep()`` is called before each sweep
        starts; an exception it raises ends the sweeps.
        """
        if sweeps < 1:
            return
        workers = 1
        if not self.time_dependent:
            self.stepper._admit(self.remainder(0).data)
            self.stepper.solver.hold(self.stepper.system(0)[0])
            workers = min(SWEEP_WORKERS, _usable_cores(), sweeps)
        pool = ThreadPoolExecutor(workers)
        pending = deque()   # (block, pool future) of each sweep in flight
        try:
            for i in range(sweeps):
                while len(pending) < workers and i + len(pending) < sweeps:
                    out = _Published(self.grid.nt)
                    before_sweep()
                    # the worker may widen the block: a moving remainder
                    # can turn complex after the zero terminal level
                    levels = self.stepper.levels(np.zeros(self.grid.shape),
                                                 self.source(d))
                    pending.append((out, pool.submit(
                        out.fill, self.stepper.block(), levels)))
                    d = out
                yield pending.popleft()[1].result()
        finally:
            for out, _ in pending:
                out.cancel()
            pool.shutdown(cancel_futures=True)


class _Published:
    """The block of one sweep in flight, filled from level ``nt`` down to
    0 by its worker, which publishes each level through that level's
    future, set to the block that holds the level.  Reading level ``k``
    waits for it, and raises ``CancelledError`` once the sweep is
    cancelled or ends without it."""

    def __init__(self, nt: int):
        self.filled = [Future() for _ in range(nt + 1)]

    def fill(self, block: np.ndarray, levels):
        try:
            return _fill(block, levels,
                         lambda k, out: self.filled[k].set_result(out))
        finally:
            self.cancel()

    def cancel(self):
        """Cancel the levels not filled yet; a worker still filling them
        stops at its next level."""
        for level in self.filled:
            level.cancel()

    def __getitem__(self, k: int) -> np.ndarray:
        return self.filled[k].result()[k]


def fixed_point_solve(problem: BackwardProblem, grid: Grid,
                      decomp: Decomposition, eps: float | None = None,
                      K="auto", theta: float = 1.0, tol: float = 1e-8,
                      max_iter: int = 200,
                      direct=None):
    """Solve by the contraction construction with smoothed coefficients.

    The operator splits as ``A = A_s + R``: the bump-smoothed part ``A_s``
    is solved directly and the rough remainder ``R`` is iterated on ``v``
    itself, each sweep one smooth theta march ``B_s d_k = C_s d_{k+1} +
    dt R_k (theta d_k + (1-theta) d_{k+1})`` with ``R`` frozen at the
    step's ``t_eval``, so the limit is the direct solve.  ``K`` weights
    the norm, not the operator: increments, the stopping test and the
    contraction estimate use ``Yhat2`` of ``exp(-K (T-t)) d``, and
    ``K="auto"`` is the a-priori weight ``max|lambda| + max|f|^2/delta + 1``.

    Returns ``(solution, trace)``; ``trace.converged`` is the iteration's
    own verdict (an increment below ``tol`` times the iterate), and a run
    that stops otherwise warns.  On convergence the max-node difference
    from the direct solve is stored in ``trace.agreement``.  ``direct``
    passes in that direct solve when the caller already has it, or a
    ``Future`` of it, read only then, after the last sweep; once that
    future holds an exception, the construction raises it before its
    next sweep.  The sweeps of a static operator run pipelined, one
    sweep ahead (see ``_Splitting.increments``); the results are the bits
    of one sweep at a time.
    """
    if eps is None:
        eps = 2.0 * float(np.max(grid.h))
    samples = SampleSet(grid.nodes(), grid.times()[:: max(1, grid.nt // 3)])
    _warn_if_condition_fails(decomp, samples)
    if K == "auto":     # delta is memoized on the samples
        delta = ellipticity_delta(decomp, samples)
        b, f, lam = problem.coefficients(grid, 0.0)
        f0 = np.sqrt((f ** 2).sum(axis=1)).max()
        K = np.abs(lam).max() + f0 ** 2 / delta + 1.0
        del b, f, lam   # not held through the sweeps
    K = float(K)
    split = _Splitting(problem, grid, decomp, eps, theta, K)

    def before_sweep():
        if isinstance(direct, Future) and direct.done():
            direct.result()     # raises the direct solve's fault

    before_sweep()
    v = _fill(split.stepper.block(), split.stepper.levels(
        problem.eval_Phi(grid),
        lambda k: problem.eval_phi(grid, split.stepper.t_eval(k))))
    d = v
    increments = [split.norm(d)]
    converged = increments[0] == 0.0
    grow = 0
    with contextlib.closing(split.increments(d, max_iter - 1,
                                             before_sweep)) as sweeps:
        for d in sweeps:
            v = v + d
            increments.append(split.norm(d))
            # Yhat2 is subadditive: norm(v) <= sum(increments), up to rounding
            small = tol * max(sum(increments), 1e-300) * (1 + 1e-12)
            if increments[-1] <= small \
                    and increments[-1] <= tol * max(split.norm(v), 1e-300):
                converged = True
                break
            grow = grow + 1 if increments[-1] > increments[-2] else 0
            if grow >= 5:
                break
    ratios = [b / a for a, b in zip(increments, increments[1:])
              if a > 1e-14 * max(increments[0], 1e-300)]
    contraction = float(max(ratios)) if ratios else 0.0
    if not converged:
        if grow >= 5:
            contraction = max(contraction, 1.0)
        warnings.warn(
            f"fixed-point iteration did not converge in {len(increments)} "
            f"sweeps (K={K:.4g}, contraction estimate {contraction:.3f})",
            RuntimeWarning)

    solution = DiscreteSolution(GridFunction(grid, v),
                                {"theta": theta, "eps": eps, "K": K,
                                 "iterations": len(increments)},
                                split.weights)
    agreement = None
    if converged:
        if isinstance(direct, Future):
            direct = direct.result()
        if direct is None:
            direct = solve_backward(problem, grid, theta)
        agreement = float(np.abs(direct.v.values - v).max())
    trace = FixedPointTrace(float(eps), K, increments, contraction,
                            bool(converged), agreement)
    return solution, trace


def _warn_if_condition_fails(decomp: Decomposition, samples: SampleSet):
    if not decomp.index_set or decomp.gamma is None:
        return
    try:
        delta = ellipticity_delta(decomp, samples)
        value = nu_hat(decomp, samples)
    except ValueError:
        warnings.warn("split condition could not be evaluated", RuntimeWarning)
        return
    if value >= delta ** 2:
        warnings.warn(
            f"split condition violated (nu_hat={value:.4g} >= "
            f"delta^2={delta ** 2:.4g}); attempting the iteration anyway",
            RuntimeWarning)


def estimate_R_norm(problem: BackwardProblem, grid: Grid,
                    decomp: Decomposition, eps: float, K: float,
                    trials: int = 8, seed: int = 0,
                    theta: float = 1.0) -> float:
    """Empirical norm of one fixed-point sweep in the weighted norm.

    ``K`` weights the norm, not the operator: the norm of a space-time
    field ``w`` is ``Yhat2`` of ``exp(-K (T-t)) w``.  Returns the maximum
    over ``trials`` random fields of unit weighted norm of the weighted
    norm after one sweep of the construction's own driver
    (``_Splitting.increments``; the remainder applied as a source that the
    smooth solver absorbs), all trials on one splitting.  Deterministic for
    a fixed seed.  A diagnostic only: ``fixed_point_solve`` does not call it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    split = _Splitting(problem, grid, decomp, eps, theta, float(K))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = rng.standard_normal((grid.nt + 1,) + grid.shape)
        w /= max(discrete_norms(GridFunction(grid, w), split.weights).Yhat2,
                 1e-300)
        rw, = split.increments(w / split.weight, 1, lambda: None)
        worst = max(worst, split.norm(rw))
    return float(worst)


# ----------------------------------------------------------------------------
# diagnostics


def apriori_ratio(solution: DiscreteSolution, phi, Phi,
                  weights: NormWeights | None = None) -> float:
    """Ratio of the solution's strengthened space-time norm to the data size.

    Returns ``Yhat2(v) / (X0(phi) + H1(Phi))``; zero when both sides
    vanish.  Stability of this ratio under refinement reflects the
    uniform a-priori bound.
    """
    grid = solution.v.grid
    default = NormWeights.default(grid.n)
    if (weights or default) == (solution.weights or default):
        num = solution.norms.Yhat2
    else:
        num = discrete_norms(solution.v, weights).Yhat2
    # X0 by the left rectangle rule: the levels before the horizon.  At
    # theta = 1 the march froze its own source at exactly those times;
    # otherwise between them
    spec, theta, norms = solution._source or (None, None, None)
    if spec is not phi or theta != 1.0:
        norms = [_slice_l2(_eval_space_fn(phi, grid, t)[None], grid)[0]
                 for t in grid.times()[:-1]]
    phi_norm = float(np.sqrt(np.sum(np.array(norms) ** 2) * grid.dt))
    Phi_arr = _eval_space_fn(Phi, grid, None)
    Phi_norm = float(discrete_norms(GridFunction(grid, Phi_arr)).H1[0])
    denom = phi_norm + Phi_norm
    if denom < 1e-300:
        return 0.0 if num < 1e-300 else float("inf")
    return float(num / denom)
