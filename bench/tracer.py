"""Outside-in tracing of cordeslab's layers.

The tracer replaces functions in the package's module namespaces (and a
few class attributes) with wrappers that time and count each call.  The
package's code is not changed; a wrapper calls the original with the same
arguments and returns its result untouched, so every artifact stays
byte-identical to an untraced run.

Calls nest: each wrapper keeps the time its callees spent in wrapped
functions, so a layer's self time is its own duration minus that.  Spans
of the coarse boundaries (a simulation, a condition report, a fixed-point
solve, ...) are kept in memory and written at exit; the hot leaves (one
generator, one LU solve, one expression evaluation) only add to totals,
so that tracing a million calls does not hold a million records.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class _Totals:
    __slots__ = ("calls", "seconds", "self_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


class _TimedLU:
    """Stands in for a ``SuperLU`` object and times its ``solve``."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TimedGenerator:
    """Stands in for a path's ``Generator`` and times its normal draws."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call("noise", self._gen.standard_normal, args,
                                 kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    # wrapped names whose calls are kept as spans
    SPANS = {"simulate_paths", "characteristic_mc", "feynman_kac",
             "full_report", "optimize_gamma", "fixed_point_solve",
             "estimate_R_norm", "splu", "bicgstab", "artifact_write"}

    def __init__(self, spans_path):
        self.spans_path = spans_path
        self.totals = defaultdict(_Totals)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []      # [child seconds, span index or None]
        self._undo = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        frame = [0.0, None]
        if name in self.SPANS:
            parent = self._stack[-1][1] if self._stack else None
            frame[1] = len(self.spans)
            self.spans.append({"name": name, "parent": parent})
        self._stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            self._stack.pop()
            dur = t1 - t0
            tot = self.totals[name]
            tot.calls += 1
            tot.seconds += dur
            tot.self_seconds += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur
            if frame[1] is not None:
                self.spans[frame[1]].update(start=t0, end=t1,
                                            self_s=dur - frame[0])

    def _wrap(self, name, fn, after=None, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                result = after(result, args, kwargs)
            return result
        return wrapper

    # -- installing -------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, attr, original, wrapper):
        """Rebind ``attr`` in every cordeslab module that binds ``original``."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cordeslab") and \
                    mod.__dict__.get(attr) is original:
                self._replace(mod, attr, wrapper)

    def _patch_function(self, module, attr, name, **hooks):
        original = getattr(module, attr, None)
        if original is not None:
            self._replace_everywhere(attr, original,
                                     self._wrap(name, original, **hooks))

    def _patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__.get(attr)
        if original is not None:
            self._replace(cls, attr, self._wrap(name, original, **hooks))

    def install(self):
        import cordeslab.cli as cli
        import cordeslab.conditions as conditions
        import cordeslab.fields as fields
        import cordeslab.grid as grid
        import cordeslab.solver as solver
        import cordeslab.stochastic as stochastic

        def count_points(result, args, kwargs, key):
            self.counts[key] += np.atleast_2d(args[1]).shape[0]
            return result

        self._patch_method(fields.ExprField, "eval_raw", "expr_eval",
                           after=lambda r, a, k: count_points(
                               r, a, k, "expr.eval_points"))
        for attr in ("eval_b", "eval_f", "eval_lambda", "eval_beta"):
            self._patch_method(fields.CoefficientField, attr, "coeff_eval")
        self._patch_function(fields, "smooth_at_points", "smooth",
                             after=lambda r, a, k: count_points(
                                 r, a, k, "fields.smooth_points"))

        self._patch_function(conditions, "full_report", "full_report")
        self._patch_function(conditions, "optimize_gamma", "optimize_gamma")
        self._patch_function(conditions, "symmetric_eigenvalues", "eigen")

        self._patch_function(grid, "discrete_norms", "norms")

        self._patch_function(solver, "_assemble_from_arrays", "assemble")
        self._patch_function(solver, "splu", "splu",
                             after=lambda r, a, k: _TimedLU(r, self))

        def krylov_callback(args, kwargs):
            if kwargs.get("callback") is None:
                def tick(_xk):
                    self.counts["solver.krylov_iterations"] += 1
                kwargs = dict(kwargs, callback=tick)
            return args, kwargs

        def krylov_info(result, args, kwargs):
            if result[1] != 0:
                self.counts["solver.krylov_fallbacks"] += 1
            return result
        self._patch_function(solver, "bicgstab", "bicgstab",
                             before=krylov_callback, after=krylov_info)

        def fixed_point_iterations(result, args, kwargs):
            self.counts["solver.fixed_point_iterations"] += \
                len(result[1].increments)
            return result
        self._patch_function(solver, "fixed_point_solve", "fixed_point_solve",
                             after=fixed_point_iterations)
        self._patch_function(solver, "estimate_R_norm", "estimate_R_norm")

        block_param = inspect.signature(
            stochastic.simulate_paths).parameters.get("block_size")

        def ensemble_sizes(ens, args, kwargs):
            self.counts["stochastic.path_steps"] += ens.M * ens.nsteps
            if block_param is not None:
                block = min(ens.M, kwargs.get("block_size",
                                              block_param.default))
                self.counts["stochastic.noise_block_mb"] = max(
                    self.counts["stochastic.noise_block_mb"],
                    block * ens.nsteps * ens.n * 8 / 1e6)
            recorded = sum(a.nbytes for a in (ens.traj, ens.disc_traj)
                           if a is not None)
            self.counts["stochastic.record_mb"] = max(
                self.counts["stochastic.record_mb"], recorded / 1e6)
            return ens
        self._patch_function(stochastic, "simulate_paths", "simulate_paths",
                             after=ensemble_sizes)
        self._patch_function(stochastic, "_path_generator", "generator",
                             after=lambda r, a, k: _TimedGenerator(r, self))
        self._patch_function(stochastic, "feynman_kac", "feynman_kac")

        route = getattr(stochastic, "characteristic_functional", None)
        if route is not None:
            mc_route = self._wrap("characteristic_mc", route)

            def characteristic(*args, **kwargs):
                via = args[2] if len(args) > 2 else kwargs.get("via")
                return (mc_route if via == "mc" else route)(*args, **kwargs)
            self._replace_everywhere("characteristic_functional", route,
                                     characteristic)

        self._patch_function(cli, "_write_json", "artifact_write")
        self._patch_function(cli, "_dump_solution_csv", "artifact_write")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer figures, named as in BENCHMARK.json's ``per_layer``."""
        t = self.totals
        c = self.counts
        sim = t["simulate_paths"]
        return {
            "expr.eval_calls": t["expr_eval"].calls,
            "expr.eval_points": c["expr.eval_points"],
            "expr.eval_s": t["expr_eval"].seconds,
            "fields.coeff_eval_s": t["coeff_eval"].seconds,
            "fields.smooth_calls": t["smooth"].calls,
            "fields.smooth_points": c["fields.smooth_points"],
            "fields.smooth_s": t["smooth"].seconds,
            "conditions.report_s": t["full_report"].seconds,
            "conditions.gamma_search_s": t["optimize_gamma"].seconds,
            "conditions.eigen_calls": t["eigen"].calls,
            "conditions.eigen_s": t["eigen"].seconds,
            "grid.norm_calls": t["norms"].calls,
            "grid.norm_s": t["norms"].seconds,
            "solver.assemble_calls": t["assemble"].calls,
            "solver.assemble_s": t["assemble"].seconds,
            "solver.factorizations": t["splu"].calls,
            "solver.factorize_s": t["splu"].seconds,
            "solver.lu_solves": t["lu_solve"].calls,
            "solver.lu_solve_s": t["lu_solve"].seconds,
            "solver.krylov_calls": t["bicgstab"].calls,
            "solver.krylov_iterations": c["solver.krylov_iterations"],
            "solver.krylov_s": t["bicgstab"].seconds,
            "solver.krylov_fallbacks": c["solver.krylov_fallbacks"],
            "solver.fixed_point_s": t["fixed_point_solve"].seconds,
            "solver.fixed_point_iterations":
                c["solver.fixed_point_iterations"],
            "solver.r_norm_s": t["estimate_R_norm"].seconds,
            "stochastic.simulations": sim.calls,
            "stochastic.path_steps": c["stochastic.path_steps"],
            "stochastic.simulate_s": sim.seconds,
            "stochastic.generators": t["generator"].calls,
            "stochastic.generator_s": t["generator"].seconds,
            "stochastic.noise_s": t["noise"].seconds,
            "stochastic.step_s": sim.self_seconds,
            "stochastic.noise_block_mb": c["stochastic.noise_block_mb"],
            "stochastic.record_mb": c["stochastic.record_mb"],
            "stochastic.reduce_s": t["characteristic_mc"].self_seconds
            + t["feynman_kac"].self_seconds,
            "cli.artifact_write_s": t["artifact_write"].seconds,
        }

    def write_spans(self):
        with open(self.spans_path, "w") as handle:
            json.dump(self.spans, handle)
