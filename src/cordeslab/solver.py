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
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import warnings
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .conditions import ellipticity_delta, nu_hat
from .fields import CoefficientField, Decomposition, SampleSet, _smooth_parts
from .grid import Grid, GridFunction, NormBundle, NormWeights, discrete_norms
from .grid import _slice_l2

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


class SolverError(RuntimeError):
    pass


def _usable_cores() -> int:
    """The cores this process may run on: the worker count of the path
    blocks and of the fixed-point sweeps."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity interface on this platform
        return os.cpu_count() or 1


# ----------------------------------------------------------------------------
# problem data


def _real_if_possible(values) -> np.ndarray:
    """``values`` as a real array when their imaginary parts all vanish."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and not np.abs(values.imag).any():
        return values.real
    return values


def _eval_points(spec, pts: np.ndarray, t: float, terminal: bool = False):
    """Evaluate a source, rate or terminal spec at arbitrary points.

    The one convention for callables: sources and rates are called as
    ``spec(points, t)``, terminal data as ``spec(points)``.  Objects with
    ``eval_raw`` are evaluated at ``(points, t)``; ``(re, im)`` pairs of
    either combine into complex values.
    """
    if isinstance(spec, tuple) and len(spec) == 2:
        return (_eval_points(spec[0], pts, t, terminal)
                + 1j * _eval_points(spec[1], pts, t, terminal))
    if hasattr(spec, "eval_raw"):
        return spec.eval_raw(pts, t)
    if callable(spec):
        return spec(pts) if terminal else spec(pts, t)
    raise TypeError(f"cannot interpret source spec {spec!r}")


def _eval_space_fn(spec, grid: Grid, t: float | None):
    """Evaluate a source/terminal spec on the interior nodes.

    ``t=None`` asks for terminal data.  Accepts ``None`` (zero), the specs
    of ``_eval_points``, space-time blocks ``(nt+1, *m)`` (sliced at the
    nearest time level), single-slice arrays, and ``(re, im)`` pairs of
    any of these.
    """
    if spec is None:
        return np.zeros(grid.shape)
    if isinstance(spec, tuple) and len(spec) == 2:
        re = _eval_space_fn(spec[0], grid, t)
        im = _eval_space_fn(spec[1], grid, t)
        return re + 1j * im
    if isinstance(spec, np.ndarray):
        if spec.shape == grid.shape:
            return spec
        if spec.shape == (grid.nt + 1,) + grid.shape:
            return spec[-1 if t is None else grid.level(t)]
        raise ValueError(f"array source of shape {spec.shape} does not fit "
                         f"the grid")
    # terminal data (t is None) live at the horizon
    vals = _eval_points(spec, grid.nodes(), grid.T if t is None else t,
                        terminal=t is None)
    return np.asarray(vals).reshape(grid.shape)


@dataclass
class BackwardProblem:
    """Data of one terminal-value problem on a coefficient field.

    ``phi`` and ``Phi`` follow the conventions of ``_eval_space_fn``:
    callables are ``phi(points, t)`` and ``Phi(points)``;
    ``lambda_override`` (same conventions as ``phi``, complex allowed)
    replaces the field's zero-order coefficient, which the
    characteristic-functional route uses to inject a purely imaginary
    rate.  Whether the solve runs in complex arithmetic is decided by the
    march from the values it evaluates.
    """

    field: CoefficientField
    phi: object = None
    Phi: object = None
    lambda_override: object = None

    def eval_phi(self, grid: Grid, t: float) -> np.ndarray:
        return _eval_space_fn(self.phi, grid, t)

    def eval_Phi(self, grid: Grid) -> np.ndarray:
        return _eval_space_fn(self.Phi, grid, None)

    def coefficients(self, grid: Grid, t: float):
        """``(b, f, lambda)`` at the nodes at time ``t``."""
        nodes = grid.nodes()
        b, f = self.field.eval_b(nodes, t), self.field.eval_f(nodes, t)
        if self.lambda_override is None:
            return b, f, self.field.eval_lambda(nodes, t)
        lam = _eval_space_fn(self.lambda_override, grid, t)
        return b, f, np.asarray(lam, dtype=complex).ravel()

    @property
    def operator_time_dependent(self) -> bool:
        return self.field.time_dependent or self.lambda_override is not None


@dataclass
class DiscreteSolution:
    """A grid solution.  Its space-time norm bundle ``norms``, under the
    solution's own ``weights`` (``None``: the defaults), is computed on
    first read."""

    v: GridFunction
    meta: dict = dc_field(default_factory=dict)
    weights: NormWeights | None = None
    # (phi spec, {t: L2 norm over space of phi at t}) of the source levels
    # the march evaluated
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
    """CSR structure of the operator on one grid shape.

    The stencil couples a node with its axis neighbours, its diagonal
    neighbours in every coordinate plane and itself; no two couplings
    share a matrix position.  Assembly stacks one value array per
    coupling (in the order below) and ``source`` picks each stored entry
    from that stack.
    """

    def __init__(self, m: tuple):
        n = len(m)
        N = int(np.prod(m))
        strides = np.ones(n, dtype=np.int64)
        for i in range(n - 2, -1, -1):
            strides[i] = strides[i + 1] * m[i + 1]
        multi = np.indices(m).reshape(n, N)
        flat = np.arange(N, dtype=np.int64)
        rows, cols, stack_at = [], [], []

        def add(mask, offset):
            rows.append(flat[mask])
            cols.append(flat[mask] + offset)
            stack_at.append(len(stack_at) * N + flat[mask])

        for i in range(n):
            iu, idn = multi[i] < m[i] - 1, multi[i] > 0
            add(iu, strides[i])
            add(idn, -strides[i])
            for j in range(i + 1, n):
                ju, jdn = multi[j] < m[j] - 1, multi[j] > 0
                add(iu & ju, strides[i] + strides[j])
                add(idn & jdn, -strides[i] - strides[j])
                add(iu & jdn, strides[i] - strides[j])
                add(idn & ju, -strides[i] + strides[j])
        add(slice(None), 0)
        stack_at = np.concatenate(stack_at)
        # scipy's own COO -> CSR conversion of the entry numbers tells
        # which entry lands at each stored position
        order = sparse.csr_matrix(
            (np.arange(len(stack_at), dtype=float),
             (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))
        self.shape = (N, N)
        self.couplings = len(rows)
        self.indices = order.indices
        self.indptr = order.indptr
        self.source = stack_at[order.data.astype(np.int64)]
        for arr in (self.indices, self.indptr, self.source):
            arr.setflags(write=False)  # shared by every matrix of the shape


@functools.lru_cache(maxsize=4)
def _pattern(m: tuple) -> _Pattern:
    return _Pattern(m)


def _assemble_from_arrays(grid: Grid, b_arr, f_arr, lam_arr,
                          dtype) -> sparse.csr_matrix:
    n, h = grid.n, grid.h
    pattern = _pattern(tuple(grid.m))
    values = []  # one array over all nodes per coupling, in pattern order
    diag = -np.asarray(lam_arr, dtype=dtype).ravel()
    for i in range(n):
        c2 = b_arr[:, i, i]
        c1 = f_arr[:, i]
        diag = diag - 2.0 * c2 / h[i] ** 2
        values += [c2 / h[i] ** 2 + c1 / (2 * h[i]),
                   c2 / h[i] ** 2 - c1 / (2 * h[i])]
        for j in range(i + 1, n):
            cc = 2.0 * b_arr[:, i, j] / (4.0 * h[i] * h[j])
            values += [cc, cc, -cc, -cc]
    values.append(diag)
    data = np.take(np.array(values, dtype=dtype), pattern.source)
    return sparse.csr_matrix(
        (data, pattern.indices.copy(), pattern.indptr.copy()),
        shape=pattern.shape)


def _step_matrices(A: sparse.csr_matrix, dt: float, theta: float):
    """``B = I - theta dt A`` and ``C = I + (1-theta) dt A`` (``None`` for
    the implicit scheme, where ``C`` is the identity).

    Both are formed on the pattern of ``A`` (which stores every diagonal
    entry), each entry rounded as scipy's sparse sum ``eye -/+ s*A``
    rounds it and exact zeros dropped, so they equal that sum bit for bit.
    """
    on_diag = A.indices == np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))

    def on_pattern(data):
        mat = sparse.csr_matrix((data, A.indices.copy(), A.indptr.copy()),
                                shape=A.shape)
        mat.eliminate_zeros()
        return mat

    y = theta * dt * A.data
    B = on_pattern(np.where(on_diag, 1.0 - y, 0.0 - y))
    C = None
    if theta < 1.0:
        z = (1.0 - theta) * dt * A.data
        C = on_pattern(np.where(on_diag, 1.0 + z, 0.0 + z))
    return B, C


def assemble_operator(problem: BackwardProblem, grid: Grid,
                      t: float) -> sparse.csr_matrix:
    """Sparse discretization of the spatial operator at time ``t``."""
    b, f, lam = problem.coefficients(grid, t)
    lam = _real_if_possible(lam)
    return _assemble_from_arrays(grid, b, f, lam, lam.dtype)


def assemble_step(problem: BackwardProblem, grid: Grid, t: float,
                  theta: float = 1.0):
    """Step matrices ``(B, C, phi_bar)`` for the move onto time level ``t``.

    ``B v_t = C v_{t+dt} + dt * phi_bar`` with the operator and the source
    frozen at ``t + (1-theta)*dt``.
    """
    _check_theta(theta)
    dt = grid.dt
    t_eval = t + (1.0 - theta) * dt
    A = assemble_operator(problem, grid, t_eval)
    B, C = _step_matrices(A, dt, theta)
    if C is None:
        C = sparse.identity(grid.size, dtype=A.dtype, format="csr")
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
    capped at ``LAGGED_MAXITER`` iterations; when the cap is hit or the
    residual check fails, that level's matrix is factorized, solved
    directly, and becomes the lagged factor.  Every step is
    deterministic.
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
        scale = np.linalg.norm(rhs)
        if scale == 0.0:
            return np.zeros_like(rhs)
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
    starts = [recent[0]]
    if len(recent) >= 2:
        starts.append(2.0 * recent[0] - recent[1])
    if len(recent) >= 3:
        starts.append(3.0 * (recent[0] - recent[1]) + recent[2])
    return min(starts, key=lambda x: np.linalg.norm(mat @ x - rhs))


class _Stepper:
    """Prepared marching machinery for one grid, theta and coefficient
    function ``coefficients(t) -> (b, f, lambda)`` at the nodes.

    Arithmetic starts real and switches to complex once, the first time a
    rate, a source slice or the terminal datum that the march evaluates
    carries an imaginary part.  It holds one step system: the static
    operator's for the whole march, or the current level's.  A
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

    def system(self, k: int):
        key = k if self.time_dependent else 0
        if self._held is None or self._held[0] != key:
            b, f, lam = self.coefficients(self.t_eval(k))
            lam = self._admit(lam)
            A = _assemble_from_arrays(self.grid, b, f, lam, self.dtype)
            self._held = (key,) + _step_matrices(A, self.grid.dt, self.theta)
        return self._held[1:]

    def _finite(self, level: np.ndarray, k: int) -> np.ndarray:
        """The march's time level ``k``; raises when it is not finite."""
        if not np.isfinite(level).all():
            raise SolverError(
                f"the march turned non-finite at time level {k} "
                f"(t = {k * self.grid.dt:.6g}); check the data and the "
                f"coefficients for overflow")
        return level

    def levels(self, source, Phi_arr: np.ndarray):
        """Yield ``(k, v_k)`` (flat) from ``Phi_arr`` at level ``nt`` down
        to level 0; ``source(k)`` is the source of the step onto level
        ``k``.  A time-dependent operator's lagged solve of level ``k``
        starts from ``v_{k+1}``, ``2 v_{k+1} - v_{k+2}`` or
        ``3 (v_{k+1} - v_{k+2}) + v_{k+3}``, whichever has the least
        residual (``_start``); a static operator's direct solves need no
        start."""
        grid = self.grid
        prev = self._finite(self._admit(Phi_arr), grid.nt).ravel()
        yield grid.nt, prev
        recent = deque([prev], maxlen=3)    # v_{k+1}, v_{k+2}, v_{k+3}
        for k in range(grid.nt - 1, -1, -1):
            src = self._admit(source(k))
            B, C = self.system(k)
            prev = prev.astype(self.dtype, copy=False)
            rhs = prev if C is None else C @ prev
            rhs = rhs + grid.dt * src.ravel()
            x0 = _start(B, rhs, recent) if self.time_dependent else prev
            prev = self._finite(self.solver.solve(B, rhs, x0), k)
            recent.appendleft(prev)
            yield k, prev

    def run_backward(self, source, Phi_arr: np.ndarray) -> np.ndarray:
        """The march of ``levels`` as one space-time block."""
        grid = self.grid
        v = np.zeros((grid.nt + 1,) + grid.shape)
        for k, level in self.levels(source, Phi_arr):
            if v.dtype != self.dtype:
                v = v.astype(self.dtype)
            v[k] = level.reshape(grid.shape)
        return v

    def run_forward_adjoint(self, rho_arr: np.ndarray) -> np.ndarray:
        """The adjoint march up from ``rho_arr``; a time-dependent
        operator's lagged solves start as ``levels`` starts them, from
        the march's own last ``p_hat`` levels."""
        grid = self.grid
        nt = grid.nt
        q = self._admit(rho_arr).ravel()
        p = np.zeros((nt + 1,) + grid.shape, dtype=self.dtype)
        recent = deque(maxlen=3)    # p_hat of levels k-1, k-2, k-3
        for k in range(nt):
            B, C = self.system(k)
            if p.dtype != self.dtype:
                p = p.astype(self.dtype)
            x0 = (_start(B.getH(), q, recent)
                  if recent and self.time_dependent else q)
            p_hat = self._finite(self.solver.solve(B, q, x0, adjoint=True), k)
            recent.appendleft(p_hat)
            p[k] = p_hat.reshape(grid.shape)
            q = p_hat if C is None else (C.getH() @ p_hat)
        p[nt] = self._finite(q, nt).reshape(grid.shape)
        return p


def solve_backward(problem: BackwardProblem, grid: Grid,
                   theta: float = 1.0) -> DiscreteSolution:
    """March the terminal-value problem down to ``t = 0``.

    The terminal slice is the sampled ``Phi`` exactly; each linear system
    is solved directly or to a relative residual of 1e-10 (see
    ``_StepSolver``).  Complex arithmetic switches on
    automatically when the rate or the data have imaginary parts.
    """
    stepper = _Stepper(grid, theta, lambda t: problem.coefficients(grid, t),
                       problem.operator_time_dependent)
    levels = {}     # the source levels' norms, kept for apriori_ratio

    def phi_at(k):
        t = stepper.t_eval(k)
        vals = problem.eval_phi(grid, t)
        if problem.phi is not None:
            levels[t] = _slice_l2(vals[None], grid)[0]
        return vals
    v = stepper.run_backward(phi_at, problem.eval_Phi(grid))
    meta = {"theta": theta, "dt": grid.dt, "rtol": LIN_RTOL,
            "time_dependent": problem.operator_time_dependent}
    return DiscreteSolution(GridFunction(grid, v), meta,
                            _source=(problem.phi, levels))


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
    if np.min(rho_arr.real) < -1e-12:
        warnings.warn("initial density has negative parts", RuntimeWarning)
    stepper = _Stepper(grid, theta, lambda t: problem.coefficients(grid, t),
                       problem.operator_time_dependent)
    p = stepper.run_forward_adjoint(rho_arr)
    return DiscreteSolution(GridFunction(grid, p), {"theta": theta})


# ----------------------------------------------------------------------------
# fixed-point construction


class _Splitting:
    """``A = A_s + R`` for the fixed-point construction: a stepper of the
    smoothed operator ``A_s`` and the rough remainder ``R``, both frozen at
    each step's ``t_eval`` exactly as the direct theta scheme freezes
    ``A``.

    The bump-smoothed coefficients (three kernel taps per radius along
    each axis) are computed once per level, or once for a static field.
    ``R``, assembled like ``A`` from the coefficient differences, is held
    for the current level as a step system is.  One stepper serves every
    march of a solve or an R-norm estimate, so a static operator's smooth
    step matrix is factorized once.
    """

    def __init__(self, problem: BackwardProblem, grid: Grid,
                 decomp: Decomposition, eps: float, theta: float):
        if not 0.0 < eps < np.inf:
            raise ValueError(f"mollification radius eps = {eps} must be "
                             f"finite and positive")
        self.problem = problem
        self.grid = grid
        self.theta = theta
        self._smooth_at = functools.partial(
            _smooth_parts, decomp.b_bar, decomp.field, grid.nodes(),
            float(eps), [float(eps) / 3.0] * grid.n)
        self._smoothed = {}  # level key -> smoothed (b, f, lambda)
        self.stepper = _Stepper(grid, theta, self.smooth,
                                decomp.field.time_dependent)
        self.time_dependent = (problem.operator_time_dependent
                               or decomp.field.time_dependent)
        self._held = None  # (level key, R)

    def smooth(self, t: float):
        key = round(float(t), 12) if self.stepper.time_dependent else 0.0
        if key not in self._smoothed:
            self._smoothed[key] = self._smooth_at(t)
        return self._smoothed[key]

    def remainder(self, k: int) -> sparse.csr_matrix:
        key = k if self.time_dependent else 0
        if self._held is None or self._held[0] != key:
            t = self.stepper.t_eval(k)
            b, f, lam = self.problem.coefficients(self.grid, t)
            b_s, f_s, lam_s = self.smooth(t)
            dl = _real_if_possible(lam - lam_s)
            self._held = (key, _assemble_from_arrays(
                self.grid, b - b_s, f - f_s, dl, dl.dtype))
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

    def march(self, d: np.ndarray) -> np.ndarray:
        """The next Picard increment after ``d``."""
        return self.stepper.run_backward(self.source(d),
                                         np.zeros(self.grid.shape))

    def freeze(self):
        """Build a static operator's ``R``, smooth step system and factor
        in the arithmetic every sweep uses, so that sweeps only read
        them."""
        self.stepper._admit(self.remainder(0).data)
        self.stepper.solver.hold(self.stepper.system(0)[0])


class _Published:
    """The block of one pipelined sweep, filled from level ``nt`` down to
    0 by its worker.  Reading level ``k`` waits until it is filled, and
    raises ``CancelledError`` once the pipeline halts or the sweep ends
    without it."""

    def __init__(self, block: np.ndarray, cond: threading.Condition,
                 halt: threading.Event):
        self.block, self.cond, self.halt = block, cond, halt
        self.low = len(block)   # the lowest filled level
        self.dead = False

    def fill(self, levels):
        try:
            for k, level in levels:
                self.block[k] = level.reshape(self.block.shape[1:])
                with self.cond:
                    self.low = k
                    self.cond.notify_all()
        finally:
            with self.cond:
                self.dead = self.low > 0
                self.cond.notify_all()
        return self.block

    def __getitem__(self, k: int) -> np.ndarray:
        with self.cond:
            self.cond.wait_for(lambda: self.low <= k or self.dead
                               or self.halt.is_set())
            if self.low > k or self.halt.is_set():
                raise CancelledError
        return self.block[k]


def _increments(split: _Splitting, d: np.ndarray, sweeps: int,
                before_sweep):
    """Yield the increments of up to ``sweeps`` sweeps after ``d``, in
    sweep order.

    A static operator's sweeps share one read-only ``R``, step system and
    factor, so they run on a pool of up to ``SWEEP_WORKERS`` usable
    cores: sweep ``i + 1`` follows sweep ``i`` one level behind, since its
    level ``k`` needs levels ``k`` and ``k + 1`` of sweep ``i`` and every
    march goes down from ``nt``.  Each sweep in flight holds a full
    space-time block, and the ones past the stop are computed and
    dropped, so the look-ahead stays at the one sweep that was measured.
    A time-dependent operator's sweeps run one after the other.  Either
    way the increments are the same bits.  Closing the generator cancels
    and drops the sweeps ahead of the consumer.  ``before_sweep()`` is
    called before each sweep starts; an exception it raises ends the
    sweeps.
    """
    if sweeps < 1:
        return
    workers = 1
    if not split.time_dependent:
        split.freeze()
        workers = min(SWEEP_WORKERS, _usable_cores(), sweeps)
    if workers == 1:
        for _ in range(sweeps):
            before_sweep()
            d = split.march(d)
            yield d
        return
    grid = split.grid
    cond, halt = threading.Condition(), threading.Event()
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for i in range(sweeps):
            while len(pending) < workers and i + len(pending) < sweeps:
                out = _Published(np.zeros((grid.nt + 1,) + grid.shape,
                                          dtype=split.stepper.dtype),
                                 cond, halt)
                before_sweep()
                levels = split.stepper.levels(split.source(d),
                                              np.zeros(grid.shape))
                pending.append(pool.submit(out.fill, levels))
                d = out
            yield pending.popleft().result()
    finally:
        with cond:
            halt.set()
            cond.notify_all()
        pool.shutdown(cancel_futures=True)


def _norm_weight(grid: Grid, K: float) -> np.ndarray:
    """The weight ``exp(-K (T - t_k))`` of level ``k``, shaped to scale a
    space-time block."""
    if not np.isfinite(K):
        raise SolverError(f"weight rate K = {K} is not finite; fix K")
    if abs(K) * grid.T > MAX_KT:
        raise SolverError(f"weight exponent K*T = {K * grid.T:.3g} would "
                          f"overflow; shorten the horizon or fix K")
    return np.exp(-K * (grid.T - grid.times())).reshape((-1,) + (1,) * grid.n)


def _default_weights(decomp: Decomposition, grid: Grid) -> NormWeights:
    if not decomp.index_set:
        return NormWeights.default(grid.n)
    gamma = decomp.gamma or {k: 1.0 for k in decomp.index_set}
    return NormWeights(decomp.index_set, gamma)


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
    sweep ahead (see ``_increments``); the results are the bits of one
    sweep at a time.
    """
    if eps is None:
        eps = 2.0 * float(np.max(grid.h))
    weights = _default_weights(decomp, grid)
    split = _Splitting(problem, grid, decomp, eps, theta)
    samples = SampleSet(grid.nodes(), grid.times()[:: max(1, grid.nt // 3)])
    _warn_if_condition_fails(decomp, samples)
    if K == "auto":     # delta is memoized on the samples
        delta = ellipticity_delta(decomp, samples)
        lam0 = np.abs(problem.coefficients(grid, 0.0)[2]).max()
        f0 = np.sqrt((problem.field.eval_f(samples.points, 0.0)
                      ** 2).sum(axis=1)).max()
        K = lam0 + f0 ** 2 / delta + 1.0
    K = float(K)
    weight = _norm_weight(grid, K)

    def norm(block):
        return discrete_norms(GridFunction(grid, weight * block),
                              weights).Yhat2

    def before_sweep():
        if isinstance(direct, Future) and direct.done():
            direct.result()     # raises the direct solve's fault

    before_sweep()
    v = split.stepper.run_backward(
        lambda k: problem.eval_phi(grid, split.stepper.t_eval(k)),
        problem.eval_Phi(grid))
    d = v
    increments = [norm(d)]
    converged = increments[0] == 0.0
    grow = 0
    with contextlib.closing(_increments(split, d, max_iter - 1,
                                        before_sweep)) as sweeps:
        for d in sweeps:
            v = v + d
            increments.append(norm(d))
            # Yhat2 is subadditive: norm(v) <= sum(increments), up to rounding
            small = tol * max(sum(increments), 1e-300) * (1 + 1e-12)
            if increments[-1] <= small \
                    and increments[-1] <= tol * max(norm(v), 1e-300):
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
                                 "iterations": len(increments)}, weights)
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
    norm after one sweep (the remainder applied as a source that the
    smooth solver absorbs).  Deterministic for a fixed seed.  A diagnostic
    only: ``fixed_point_solve`` does not call it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    weights = _default_weights(decomp, grid)
    split = _Splitting(problem, grid, decomp, eps, theta)
    weight = _norm_weight(grid, float(K))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = rng.standard_normal((grid.nt + 1,) + grid.shape)
        w /= max(discrete_norms(GridFunction(grid, w), weights).Yhat2, 1e-300)
        rw = split.march(w / weight)
        worst = max(worst, discrete_norms(GridFunction(grid, weight * rw),
                                          weights).Yhat2)
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
    spec, levels = solution._source or (None, {})
    if spec is not phi:     # the march's evaluations are of another source
        levels = {}
    # X0 by the left rectangle rule: the levels before the horizon
    phi_norm = float(np.sqrt(np.sum(np.array(
        [levels[t] if t in levels
         else _slice_l2(_eval_space_fn(phi, grid, t)[None], grid)[0]
         for t in grid.times()[:-1]]) ** 2) * grid.dt))
    Phi_arr = _eval_space_fn(Phi, grid, None)
    Phi_norm = float(discrete_norms(GridFunction(grid, Phi_arr)).H1[0])
    denom = phi_norm + Phi_norm
    if denom < 1e-300:
        return 0.0 if num < 1e-300 else float("inf")
    return float(num / denom)
