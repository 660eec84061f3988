"""Weak simulation of the associated diffusion and cross-checks against
the backward solver.

Paths follow the explicit weak scheme ``y_{k+1} = y_k + f dt + beta
sqrt(dt) xi_k`` with exit from the domain detected at step endpoints and
the zero-order rate accumulated as a continuous discount weight along
each path.  Noise is keyed by fixed groups of ``_GROUP`` paths: path
``p`` draws from the stream spawned for group ``p // _GROUP`` from the
master seed, and each group's stream is drawn step-major, so the normal
of step ``k``, path ``p`` and coordinate ``i`` sits at a fixed stream
position.  Block bounds fall on group bounds, every group is drawn at
full width and the values of dead or absent paths are dropped, so a
path's trajectory depends on neither ``M`` nor the block it runs in.
Every usable core (by the CPU affinity of the process) gets a block of
at most ``_BLOCK`` paths, and more than one block runs on a thread pool;
each block streams its noise in chunks of steps under its worker's share
of one in-flight budget per simulation and steps only the paths still
alive.  Outputs are byte-identical whatever the worker count and the
block partition.

With no ``beta`` given, each block holds the root table of ``2 b`` at
the grid level it is stepping (see ``SDE``), so blocks share nothing but
the read-only field and their disjoint output rows.

With a constant ``beta`` and no drift, rate, records or per-step hook,
a position is the start point plus the running sum of the increments:
such a block sums one group at a time in chunks of steps instead of
stepping, with the loop's bits and exits still found at step ends.

The path functionals of the checks (the Feynman-Kac source integral of
``verify_pairing`` and the arctangent phases of the characteristic
functional) are summed per path as the paths are stepped, through a
private per-step hook of ``simulate_paths``, so no check stores
trajectories.  ``record=`` stays a user option, under a memory budget.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence
from scipy.special import ndtr, ndtri

from .fields import Box, CoefficientField, ConstField
from .grid import Grid, GridFunction, pair
from .linalg import symmetric_sqrt
from .solver import (BackwardProblem, DiscreteSolution, _eval_points,
                     _real_if_possible, _Stepper, _usable_cores,
                     apriori_ratio, solve_backward)

__all__ = [
    "SDE", "PathEnsemble", "Estimate",
    "UniformBoxSampler", "TruncatedGaussianSampler", "HatSampler",
    "PointSampler", "simulate_paths", "feynman_kac", "verify_pairing",
    "density_compare", "characteristic_functional", "max_principle_check",
]

_MAX_RECORD_FLOATS = 4e8
_NOISE_FLOATS = 2 ** 19  # noise values in flight per simulation (4 MiB)
_GROUP = 512             # paths per noise stream
_BLOCK = 2 ** 16         # paths per block at most: bounds the step temporaries
_PANEL_UNKNOWNS = 2 ** 11  # step unknowns of one panel march at most


# ----------------------------------------------------------------------------
# initial-law samplers (each knows its own density)


class _GridDensity:
    def grid_density(self, grid: Grid) -> np.ndarray:
        return self.pdf(grid.nodes()).reshape(grid.shape)


class UniformBoxSampler(_GridDensity):
    def __init__(self, box: Box):
        self.box = box

    def sample(self, gen: Generator, M: int) -> np.ndarray:
        return gen.uniform(self.box.lo, self.box.hi, size=(M, self.box.n))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        vol = float(np.prod(self.box.sides))
        return self.box.contains(x).astype(float) / vol


class TruncatedGaussianSampler(_GridDensity):
    """Axis-aligned Gaussian restricted to a box, drawn by inverse CDF."""

    def __init__(self, mean, sigma, box: Box):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.sigma = np.broadcast_to(np.asarray(sigma, dtype=float),
                                     self.mean.shape).copy()
        self.box = box
        lo = (np.asarray(box.lo) - self.mean) / self.sigma
        hi = (np.asarray(box.hi) - self.mean) / self.sigma
        self._cdf_lo = ndtr(lo)
        self._cdf_hi = ndtr(hi)

    def sample(self, gen: Generator, M: int) -> np.ndarray:
        u = gen.uniform(size=(M, self.mean.size))
        z = ndtri(self._cdf_lo + u * (self._cdf_hi - self._cdf_lo))
        return self.mean + self.sigma * z

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        z = (x - self.mean) / self.sigma
        dens = np.exp(-0.5 * np.sum(z ** 2, axis=-1)) / \
            np.prod(np.sqrt(2 * np.pi) * self.sigma)
        mass = float(np.prod(self._cdf_hi - self._cdf_lo))
        return dens * self.box.contains(x) / mass


class HatSampler(_GridDensity):
    """Product of triangular bumps, normalized to unit mass."""

    def __init__(self, center, width):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.width = np.broadcast_to(np.asarray(width, dtype=float),
                                     self.center.shape).copy()

    def sample(self, gen: Generator, M: int) -> np.ndarray:
        u = gen.uniform(size=(M, self.center.size))
        v = gen.uniform(size=(M, self.center.size))
        return self.center + self.width * (u + v - 1.0)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        z = np.abs(x - self.center) / self.width
        return np.prod(np.clip(1.0 - z, 0.0, None) / self.width, axis=-1)


class PointSampler:
    """Deterministic start; carries no grid density."""

    def __init__(self, point):
        self.point = np.atleast_1d(np.asarray(point, dtype=float))

    def sample(self, gen: Generator, M: int) -> np.ndarray:
        return np.tile(self.point, (M, 1))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        raise ValueError("a point mass has no pointwise density")

    def grid_density(self, grid: Grid) -> np.ndarray:
        raise ValueError("a point mass has no grid density")


# ----------------------------------------------------------------------------
# the diffusion


@dataclass
class SDE:
    """Diffusion data: drift ``f``, factor ``beta`` (with ``b = 0.5 beta
    beta^T``), killing rate ``lambda`` and exit domain from the field.

    With no ``beta`` in the field it is the root of ``2 b`` on ``grid``,
    read at the nearest node and time level (level 0 for a static field)."""

    field: CoefficientField
    grid: Grid | None = None         # only needed when beta must be derived

    @property
    def T(self) -> float:
        return self.field.T

    @property
    def domain(self) -> Box | None:
        return self.field.domain

    def _const_beta(self):
        beta = self.field.beta
        if beta is None or not all(isinstance(e, ConstField)
                                   for row in beta for e in row):
            return None
        return np.array([[e.value for e in row] for row in beta])

    def beta_table(self, t: float, held: tuple | None = None) -> tuple:
        """``(level, roots)``: the grid level the derived beta is read at
        for time ``t`` and the ``(N, n, n)`` roots of ``2 b`` at its nodes;
        ``held``, an earlier result, is returned if of the same level."""
        if self.grid is None:
            raise ValueError("deriving beta from b requires a reference grid")
        level = self.grid.level(t) if self.field.time_dependent else 0
        if held is None or held[0] != level:
            b = self.field.eval_b(self.grid.nodes(), level * self.grid.dt)
            held = level, symmetric_sqrt(2.0 * b)
        return held

    def beta_at(self, y: np.ndarray, t: float,
                held: tuple | None = None) -> np.ndarray:
        """The field's ``beta`` at ``y`` and ``t``, or the derived one frozen
        per grid node and level (``held``: an earlier ``beta_table``)."""
        if self.field.beta is not None:
            return self.field.eval_beta(y, t)
        roots = self.beta_table(t, held)[1]
        pos = np.rint((y - self.grid.lo) / self.grid.h - 1.0).astype(int)
        pos = np.clip(pos, 0, np.asarray(self.grid.m) - 1)
        return roots[np.ravel_multi_index(pos.T, self.grid.m)]


@dataclass
class PathEnsemble:
    M: int
    dt: float
    nsteps: int
    master_seed: int
    T: float
    n: int
    final_y: np.ndarray
    tau: np.ndarray
    exited: np.ndarray
    discount: np.ndarray
    record_times: np.ndarray | None = None
    traj: np.ndarray | None = None        # (M, R, n) frozen after exit
    disc_traj: np.ndarray | None = None   # (M, R) accumulated rate integral
    lambda_is_real: bool = True

    def summary(self) -> dict:
        return {"M": self.M, "dt": self.dt, "seed": self.master_seed,
                "survived": int(np.count_nonzero(~self.exited)),
                "mean_tau": float(self.tau.mean())}


@dataclass
class Estimate:
    value: complex
    stderr: float
    M: int
    meta: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"re": float(np.real(self.value)),
                "im": float(np.imag(self.value)),
                "stderr": self.stderr, "M": self.M}


def _mean_and_stderr(vals: np.ndarray):
    M = len(vals)
    mean = complex(np.sum(vals) / M)
    if M < 2:
        return mean, 0.0
    var = float(np.var(vals.real, ddof=1))
    if np.iscomplexobj(vals):
        var += float(np.var(vals.imag, ddof=1))
    return mean, float(np.sqrt(var / M))


def _stream(master_seed: int, *spawn_key: int) -> Generator:
    """The noise stream of a group of paths (``spawn_key = (group,)``), or
    with no key the initial law's."""
    return Generator(SFC64(SeedSequence(master_seed, spawn_key=spawn_key)))


def _partition(M: int):
    """Bounds of contiguous path blocks of whole noise groups (the last
    one may end mid-group), and the worker count: one worker per usable
    core, never more than there are groups.  A block holds at most
    ``_BLOCK`` paths (a multiple of ``_GROUP``): the block count is the
    least multiple of the worker count that allows it, or the group count
    when that is smaller."""
    groups = -(-M // _GROUP)
    workers = min(_usable_cores(), groups)
    blocks = min(groups, -(-M // (_BLOCK * workers)) * workers)
    return [min(M, groups * i // blocks * _GROUP)
            for i in range(blocks + 1)], workers


def _step_count(T: float, dt: float):
    """Steps and step length of a run: ``round(T / dt)`` steps, so that
    the horizon is hit exactly."""
    nsteps = max(1, int(round(T / dt)))
    return nsteps, T / nsteps


def _rows(start: int, ids: np.ndarray):
    """Rows ``start + ids`` (``ids`` ascending, not empty), a slice when
    they are contiguous: the output rows of a block's live paths."""
    if ids[-1] - ids[0] == len(ids) - 1:
        return slice(start + ids[0], start + ids[-1] + 1)
    return start + ids


def simulate_paths(sde: SDE, sampler, dt: float, M: int, master_seed: int,
                   record=None, _on_step=None) -> PathEnsemble:
    """Run the weak explicit scheme for ``M`` paths.

    ``record`` selects stored snapshots: ``None`` (endpoints only),
    ``"all"`` (every step), or a sequence of times (snapped to steps).
    The step count is ``round(T / dt)`` so the horizon is hit exactly.
    Path ``p`` draws its noise from the stream of group ``p // _GROUP``.
    Paths run in the blocks of ``_partition``, more than one on a thread
    pool, each worker drawing at most its share of ``_NOISE_FLOATS``
    noise values at a time; the result depends on neither the partition
    nor ``M``: the first paths of a larger ensemble are those of a
    smaller one.  With a constant beta, no drift, no rate, no ``record``
    and no hook, a block runs as running sums of one group at a time, in
    chunks of steps under the same in-flight bound, instead of the step
    loop: the same bits, exits still detected at step ends.

    ``_on_step(start, ids, y_live, disc_live, k)`` (private) is called at
    the top of step ``k`` of a block starting at path ``start``, before
    that step's rate update and increment, with the block-local ids of
    the paths still alive, their positions and their discounts (not to
    be modified).  Calls of different blocks may run concurrently.
    """
    if dt <= 0 or M < 1:
        raise ValueError("need dt > 0 and M >= 1")
    T = sde.T
    nsteps, dt = _step_count(T, dt)
    n = sde.field.n
    domain = sde.domain
    lam_real = sde.field.lambda_is_real
    disc_dtype = float if lam_real else complex

    if record is None:
        rec_idx = None
    elif isinstance(record, str) and record == "all":
        rec_idx = np.arange(nsteps + 1)
    else:
        rec_idx = np.unique(np.clip(np.round(np.asarray(record, dtype=float)
                                             / dt).astype(int), 0, nsteps))
    if rec_idx is not None:
        if M * len(rec_idx) * (n + 1) > _MAX_RECORD_FLOATS:
            raise MemoryError("trajectory recording would exceed the budget; "
                              "record fewer times or fewer paths")
        traj = np.empty((M, len(rec_idx), n))
        disc_traj = np.zeros((M, len(rec_idx)), dtype=disc_dtype)
        rec_pos = {int(k): i for i, k in enumerate(rec_idx)}
    else:
        traj = disc_traj = None
        rec_pos = {}

    a = sampler.sample(_stream(master_seed), M)
    if a.shape != (M, n):
        raise ValueError("sampler produced the wrong shape")

    final_y = a.astype(float)
    tau = np.full(M, T)
    discount = np.zeros(M, dtype=disc_dtype)
    const_beta = sde._const_beta()
    f_zero = all(isinstance(fi, ConstField) and fi.value == 0.0
                 for fi in sde.field.f)
    lam_zero = (isinstance(sde.field.lam_re, ConstField)
                and sde.field.lam_re.value == 0.0 and lam_real)
    sqdt = np.sqrt(dt)
    bounds, workers = _partition(M)
    budget = _NOISE_FLOATS // workers   # noise values in flight per worker
    sums = (const_beta is not None and f_zero and lam_zero and _on_step is None
            and rec_idx is None)

    def run_sums(y, tau_b, ids, gens):
        # one group at a time, in chunks of steps under the in-flight
        # bound drawn into one buffer: positions as running sums of the
        # scaled noise, added row by row in the step loop's order (a
        # cumsum along the steps is slower on this layout), then one exit
        # scan per chunk
        chunk = min(nsteps, max(1, budget // (_GROUP * n)))
        buf = np.empty((chunk, _GROUP, n))
        for j, gen in enumerate(gens):
            lo = j * _GROUP
            i0, i1 = np.searchsorted(ids, (lo, lo + _GROUP))
            cols = ids[i0:i1] - lo      # the group's live paths
            pos = np.zeros((_GROUP, n))     # positions before the chunk
            pos[cols] = y[lo + cols]
            for k in range(0, nsteps, chunk):
                part = gen.standard_normal(out=buf[:nsteps - k])
                flat = part.reshape(-1, n)
                flat *= sqdt
                if n == 1:      # a 1x1 product is one rounded multiply
                    flat *= const_beta[0, 0]
                else:
                    flat[...] = flat @ const_beta.T
                part[0] += pos
                for c in range(1, len(part)):
                    part[c] += part[c - 1]
                if domain is not None:      # first exits at step ends
                    out = ~domain.contains(flat, open_set=True).reshape(
                        len(part), _GROUP)
                    first = out.argmax(axis=0)[cols]
                    gone = out[first, cols]
                    del out     # before the next chunk's exit scan
                    y[lo + cols[gone]] = part[first[gone], cols[gone]]
                    tau_b[lo + cols[gone]] = (k + first[gone] + 1) * dt
                    cols = cols[~gone]
                pos[...] = part[-1]
            y[lo + cols] = pos[cols]

    def increment(y_live, xi, t_k, held):
        # this order of operations fixes the bits of every path:
        # (sqdt * xi) @ beta^T, and f dt first, then the noise increment;
        # xi is the caller's own contiguous copy
        if const_beta is None:
            bmat = sde.beta_at(y_live, t_k, held)
            incr = sqdt * np.einsum("pij,pj->pi", bmat, xi)
        else:
            xi *= sqdt
            if n == 1:      # a 1x1 product is one rounded multiply
                xi *= const_beta[0, 0]
                incr = xi
            else:
                incr = xi @ const_beta.T
        if f_zero:
            return incr
        ydot = sde.field.eval_f(y_live, t_k) * dt
        ydot += incr
        return ydot

    def run_block(start: int, end: int):
        # the block's rows of the outputs; live paths are stepped in
        # compacted copies and written back on exit and at record times
        y, tau_b, disc_b = (final_y[start:end], tau[start:end],
                            discount[start:end])
        if domain is not None:
            alive = domain.contains(y, open_set=True)
            tau_b[~alive] = 0.0
            ids = np.flatnonzero(alive)
        else:
            ids = np.arange(end - start)
        gens = [_stream(master_seed, g)    # one stream per group
                for g in range(start // _GROUP, -(-end // _GROUP))]
        if sums:
            run_sums(y, tau_b, ids, gens)
            return
        y_live = y[ids]
        disc_live = disc_b[ids]
        held = None     # the block's derived beta table, one level's
        if 0 in rec_pos:
            traj[start:end, rec_pos[0]] = y
        k = 0
        while k < nsteps:
            # the next chunk of steps: at most the worker's budget of
            # noise values over the block's whole groups, each group's
            # drawn in place, step-major; a live path's row of step c is
            # rows + c * _GROUP
            steps = min(nsteps - k,
                        max(1, budget // (len(gens) * _GROUP * n)))
            buf = np.empty((len(gens), steps, _GROUP, n))
            # with no path left the streams are not read again
            for j, gen in enumerate(gens if len(ids) else ()):
                gen.standard_normal(out=buf[j])
            flat = buf.reshape(-1, n)
            rows = ids + ids // _GROUP * ((steps - 1) * _GROUP)
            for c in range(steps):
                t_k = k * dt
                if len(ids):
                    if _on_step is not None:
                        _on_step(start, ids, y_live, disc_live, k)
                    if not lam_zero:
                        lam = sde.field.eval_lambda(y_live, t_k)
                        disc_live += (lam.real if lam_real else lam) * dt
                    if sde.field.beta is None:     # derived beta
                        held = sde.beta_table(t_k, held)
                    y_live += increment(
                        y_live, np.take(flat, rows + c * _GROUP, axis=0),
                        t_k, held)
                    if domain is not None:
                        out = ~domain.contains(y_live, open_set=True)
                        if out.any():
                            gone = ids[out]
                            y[gone] = y_live[out]
                            disc_b[gone] = disc_live[out]
                            tau_b[gone] = (k + 1) * dt
                            keep = ~out
                            ids, rows, y_live, disc_live = (
                                ids[keep], rows[keep], y_live[keep],
                                disc_live[keep])
                k += 1
                if k in rec_pos:
                    y[ids] = y_live
                    traj[start:end, rec_pos[k]] = y
                    if not lam_zero:   # else disc_traj stays untouched zeros
                        disc_b[ids] = disc_live
                        disc_traj[start:end, rec_pos[k]] = disc_b
            del buf, flat       # before the next chunk's buffer exists
        y[ids] = y_live
        disc_b[ids] = disc_live

    if len(bounds) == 2:
        run_block(0, M)
    else:
        pool = ThreadPoolExecutor(workers)
        try:
            for job in [pool.submit(run_block, *b)
                        for b in zip(bounds[:-1], bounds[1:])]:
                job.result()
        finally:
            pool.shutdown(cancel_futures=True)

    return PathEnsemble(M=M, dt=dt, nsteps=nsteps, master_seed=master_seed,
                        T=T, n=n, final_y=final_y, tau=tau, exited=tau < T,
                        discount=discount,
                        record_times=None if rec_idx is None else rec_idx * dt,
                        traj=traj, disc_traj=disc_traj,
                        lambda_is_real=lam_real)


# ----------------------------------------------------------------------------
# estimators


def feynman_kac(ensemble: PathEnsemble, phi=None, Phi=None) -> Estimate:
    """Sample mean of the path functional.

    ``phi`` and ``Phi`` follow the solver's conventions (``phi(points,
    t)``, ``Phi(points)``, or fields evaluated at ``(points, t)``).
    ``Phi`` is evaluated at surviving terminal points with the full
    discount; ``phi`` (needs a fully recorded ensemble) is integrated by
    the left rectangle rule along each living segment with the running
    discount.  The standard error combines real and imaginary spreads.
    """
    vals = _terminal_values(ensemble, Phi)
    if phi is not None:
        if ensemble.traj is None or len(ensemble.record_times) != \
                ensemble.nsteps + 1:
            raise ValueError("the phi term needs record='all'")
        dt = ensemble.dt
        for k in range(ensemble.nsteps):
            t_k = k * dt
            living = ensemble.tau > t_k
            if not living.any():
                break
            vals[living] += _eval_points(phi, ensemble.traj[living, k, :],
                                         t_k) * \
                np.exp(-ensemble.disc_traj[living, k]) * dt
    return _path_estimate(vals, ensemble)


def _terminal_values(ensemble: PathEnsemble, Phi) -> np.ndarray:
    """Per path: ``Phi`` at the terminal point times the full discount
    factor for survivors, zero otherwise (complex)."""
    vals = np.zeros(ensemble.M, dtype=complex)
    if Phi is not None:
        surv = ~ensemble.exited
        if surv.any():
            w = np.exp(-ensemble.discount[surv])
            vals[surv] += _eval_points(Phi, ensemble.final_y[surv],
                                       ensemble.T, terminal=True) * w
    return vals


def _path_estimate(vals: np.ndarray, ensemble: PathEnsemble) -> Estimate:
    mean, stderr = _mean_and_stderr(_real_if_possible(vals))
    return Estimate(mean, stderr, ensemble.M,
                    {"dt": ensemble.dt, "seed": ensemble.master_seed})


def _streamed_source(sde: SDE, sampler, dt: float, M: int,
                     master_seed: int, phi, record=None):
    """An ensemble recorded at ``record`` and, per path, ``feynman_kac``'s
    discounted source integral of ``phi`` (``None`` without a source),
    summed in step order while the paths are stepped."""
    if phi is None:
        return simulate_paths(sde, sampler, dt, M, master_seed, record), None
    source = np.zeros(M, dtype=complex)
    h = _step_count(sde.T, dt)[1]

    def integrate(start, ids, y_live, disc_live, k):
        source[_rows(start, ids)] += _eval_points(phi, y_live, k * h) * \
            np.exp(-disc_live) * h
    return simulate_paths(sde, sampler, dt, M, master_seed, record,
                          _on_step=integrate), source


def verify_pairing(problem: BackwardProblem, grid: Grid, sde: SDE, sampler,
                   dt: float, M: int, master_seed: int, theta: float = 1.0,
                   allowance: float = 0.0,
                   solution: DiscreteSolution | None = None,
                   _streamed: tuple | None = None) -> dict:
    """Compare the solver-side pairing with the path-functional estimate.

    Returns a report with both values, their difference, the Monte Carlo
    standard error and a recorded (not asserted) size bound ratio.
    ``solution`` is the problem's backward solution on ``grid`` with
    ``theta`` when the caller has it already; it is solved otherwise.
    The path functional is ``feynman_kac``'s, with the source integral
    summed per path as the paths are stepped (nothing is recorded) and
    the terminal term added after it.  ``_streamed`` (private) passes in
    ``_streamed_source``'s result for the same arguments.
    """
    if solution is None:
        solution = solve_backward(problem, grid, theta)
    rho_grid = sampler.grid_density(grid)
    pde_value = pair(GridFunction(grid, solution.v.values[0]), rho_grid)
    ens, source = _streamed or _streamed_source(sde, sampler, dt, M,
                                                master_seed, problem.phi)
    vals = _terminal_values(ens, problem.Phi)
    if source is not None:
        vals += source
    mc = _path_estimate(vals, ens)
    diff = abs(complex(pde_value) - complex(mc.value))
    rho_norm = float(np.sqrt(np.sum(np.abs(rho_grid) ** 2) * grid.cell_volume))
    data_ratio = apriori_ratio(solution, problem.phi, problem.Phi)
    report = {
        "pde": {"re": float(np.real(pde_value)), "im": float(np.imag(pde_value))},
        "mc": mc.as_dict(),
        "diff": diff,
        "tolerance": 3.0 * mc.stderr + allowance,
        "pass": bool(diff <= 3.0 * mc.stderr + allowance),
        "bound_record": {"rho_H0": rho_norm,
                         "functional_abs": abs(complex(mc.value)),
                         "solution_data_ratio": data_ratio},
        "ensemble": ens.summary(),
    }
    return report


def density_compare(ensemble: PathEnsemble, density, t: float) -> float:
    """L1 distance between the path histogram and a grid density at time ``t``.

    Bins are the node-centered grid cells; paths are weighted by the real
    part of their running discount factor, so rate-killed mass decays the
    same way on both sides.
    """
    if ensemble.M < 1 or ensemble.traj is None:
        raise ValueError("need a recorded, non-empty ensemble")
    if isinstance(density, DiscreteSolution):
        density = density.v
    if not isinstance(density, GridFunction):
        raise TypeError("density must be a grid function or solution")
    grid = density.grid
    k_rec = int(np.argmin(np.abs(ensemble.record_times - t)))
    if abs(ensemble.record_times[k_rec] - t) > ensemble.dt:
        raise ValueError(f"time {t} was not recorded")
    if density.is_spacetime:
        p_ref = density.values[grid.level(t)].real
    else:
        p_ref = density.values.real
    alive = (~ensemble.exited) | (ensemble.tau > t)
    pos = ensemble.traj[alive, k_rec, :]
    w = np.exp(-ensemble.disc_traj[alive, k_rec].real)
    edges = [grid.axis_nodes(i) - grid.h[i] / 2.0 for i in range(grid.n)]
    edges = [np.append(e, e[-1] + grid.h[i]) for i, e in enumerate(edges)]
    hist, _ = np.histogramdd(pos, bins=edges, weights=w)
    p_hat = hist / (ensemble.M * grid.cell_volume)
    return float(np.sum(np.abs(p_hat - p_ref)) * grid.cell_volume)


def _xi_interpolant(xi_times, xi_values):
    """Panel ``xi(t)``, linear in time between the given rows; the times
    must increase strictly and every entry must be finite."""
    xi_times = np.asarray(xi_times, dtype=float)
    xi_values = np.atleast_2d(np.asarray(xi_values, dtype=float))
    if xi_values.shape[0] != xi_times.shape[0]:
        xi_values = xi_values.T
    if xi_times.ndim != 1 or xi_values.shape[0] != xi_times.shape[0]:
        raise ValueError("xi panel shapes do not line up")
    if not (np.isfinite(xi_times).all() and np.isfinite(xi_values).all()):
        raise ValueError("xi panel has non-finite entries")
    if (np.diff(xi_times) <= 0).any():
        raise ValueError("xi panel times must increase strictly")

    def xi_at(t: float) -> np.ndarray:
        return np.array([np.interp(t, xi_times, xi_values[:, c])
                         for c in range(xi_values.shape[1])])
    return xi_at


def _characteristic_panel_mc(sde: SDE, sampler, dt: float, M: int,
                             master_seed: int, panel) -> list:
    """Monte Carlo characteristic functionals of a panel, a sequence of
    ``(xi_times, xi_values)`` functions, over one unrecorded ensemble.

    Each path's phase ``sum_k dt * xi(t_k) . arctan(y(t_k))`` is summed in
    step order while the paths are stepped.  A path that left the box
    keeps its exit point for the remaining steps (a trajectory frozen at
    exit); those terms are added after the run, still in step order.  The
    dot product runs over the coordinates from the first, so a path's
    phase does not depend on the rows it is stepped with.
    """
    nsteps, dt = _step_count(sde.T, dt)
    xi_ats = [_xi_interpolant(t, v) for t, v in panel]
    xi = np.array([[xi_at(k * dt) for xi_at in xi_ats]
                   for k in range(nsteps)])     # (step, function, coordinate)
    if xi.shape[2] != sde.field.n:
        raise ValueError("xi panel shapes do not line up")
    phase = np.zeros((len(panel), M))     # one row per panel function

    def add(rows, z, k):
        inc = xi[k, :, :1] * z[:, 0]
        for i in range(1, z.shape[1]):
            inc += xi[k, :, i:i + 1] * z[:, i]
        inc *= dt
        phase[:, rows] += inc

    ens = simulate_paths(sde, sampler, dt, M, master_seed,
                         _on_step=lambda start, ids, y_live, disc_live, k:
                         add(_rows(start, ids), np.arctan(y_live), k))
    gone = np.flatnonzero(ens.exited)
    first = np.rint(ens.tau[gone] / dt).astype(np.int64)  # first frozen step
    order = np.argsort(first, kind="stable")
    gone, first = gone[order], first[order]
    z_exit = np.arctan(ens.final_y[gone])
    for k in range(first[0] if len(first) else nsteps, nsteps):
        frozen = np.searchsorted(first, k, side="right")
        add(gone[:frozen], z_exit[:frozen], k)
    return [Estimate(*_mean_and_stderr(np.exp(-1j * row)), M,
                     {"route": "mc", "dt": dt}) for row in phase]


def _characteristic_panel_pde(grid: Grid, field: CoefficientField, sampler,
                              theta: float, panel) -> list:
    """PDE characteristic functionals of a panel, a sequence of
    ``(xi_times, xi_values)`` functions: per function ``1 - i (V(., 0),
    rho)``, where ``V`` solves the complex backward problem with source
    ``xi(t) . arctan(x)``, a rate of ``i`` times that source and zero
    terminal data.

    The functions differ only in rate and source, so a batch of them
    marches as uncoupled blocks of one step system: the grid gains a
    leading axis of one node per function, along which every coefficient
    is zero, so its couplings drop from the step matrices as exact zeros.
    A batch holds at most ``_PANEL_UNKNOWNS`` unknowns (and at least one
    function), and of each march only level 0 is kept.
    """
    xi_ats = [_xi_interpolant(t, v) for t, v in panel]
    if any(xi_at(0.0).shape != (grid.n,) for xi_at in xi_ats):
        raise ValueError("xi panel shapes do not line up")
    nodes = grid.nodes()
    z = np.arctan(nodes)
    n, N = grid.n, grid.size
    rho = sampler.grid_density(grid)
    width = max(1, _PANEL_UNKNOWNS // N)
    values = []
    for lo in range(0, len(xi_ats), width):
        batch = xi_ats[lo:lo + width]
        F = len(batch)
        wide = Grid(n + 1, (0.0,) + tuple(grid.lo),
                    (F + 1.0,) + tuple(grid.hi), (F,) + tuple(grid.m),
                    grid.nt, grid.T)

        @functools.lru_cache(maxsize=1)     # the source, then the rate
        def phi(t):     # (F, N): xi(t) . arctan(x) of each function
            return np.stack([z @ xi_at(t) for xi_at in batch])

        def coefficients(t):
            b = np.zeros((F, N, n + 1, n + 1))
            b[:, :, 1:, 1:] = field.eval_b(nodes, t)
            f = np.zeros((F, N, n + 1))
            f[:, :, 1:] = field.eval_f(nodes, t)
            return (b.reshape(-1, n + 1, n + 1), f.reshape(-1, n + 1),
                    (1j * phi(t)).ravel())

        stepper = _Stepper(wide, theta, coefficients, True)
        for k, level in stepper.levels(np.zeros(wide.shape),
                                       lambda k: phi(stepper.t_eval(k))):
            pass    # the last level is level 0
        values += [1.0 - 1j * pair(GridFunction(grid, v), rho)
                   for v in level.reshape((F,) + grid.shape)]
    return [Estimate(complex(v), 0.0, 0, {"route": "pde"}) for v in values]


def characteristic_functional(xi_times, xi_values, via: str, *,
                              sde: SDE | None = None, sampler=None,
                              dt: float | None = None, M: int | None = None,
                              master_seed: int | None = None,
                              grid: Grid | None = None,
                              field: CoefficientField | None = None,
                              theta: float = 1.0) -> Estimate:
    """Characteristic functional of the bounded arctangent transform.

    ``via="mc"``: sample mean over simulated paths of
    ``exp(-i * integral of xi(t) . arctan(y(t)) dt)`` (rectangle rule on
    the simulation steps).  ``via="pde"``: one complex backward solve with
    source ``xi(t) . arctan(x)`` and a purely imaginary rate equal to
    ``i`` times the source, paired with the initial density:
    ``1 - i (V(., 0), rho)``.  Each is its panel route for one function.
    """
    panel = [(xi_times, xi_values)]
    if via == "mc":
        if None in (sde, sampler, dt, M, master_seed):
            raise ValueError("mc route needs sde, sampler, dt, M, master_seed")
        return _characteristic_panel_mc(sde, sampler, dt, M, master_seed,
                                        panel)[0]
    if via == "pde":
        if None in (grid, sampler, field):
            raise ValueError("pde route needs grid, sampler, field")
        return _characteristic_panel_pde(grid, field, sampler, theta,
                                         panel)[0]
    raise ValueError("via must be 'mc' or 'pde'")


def max_principle_check(solution: DiscreteSolution,
                        problem: BackwardProblem):
    """Sign check of the solution under nonnegative data and a real rate.

    Returns ``(min_value, verdict)`` with verdict ``"pass"``, ``"fail"``
    or ``"not applicable"`` when the preconditions (real rate,
    nonnegative source and terminal datum) do not hold.
    """
    grid = solution.v.grid

    def nonnegative(vals) -> bool:
        vals = _real_if_possible(vals)
        return not np.iscomplexobj(vals) and vals.min() >= -1e-12

    applicable = (problem.field.lambda_is_real
                  and problem.lambda_override is None
                  and all(nonnegative(problem.eval_phi(grid, t))
                          for t in grid.times())
                  and nonnegative(problem.eval_Phi(grid)))
    min_value = float(np.min(solution.v.values.real))
    if not applicable:
        return min_value, "not applicable"
    return min_value, "pass" if min_value >= -1e-10 else "fail"
