"""Batch front door: analyze / solve / simulate / verify / characteristic.

Every command reads one config file, writes JSON/CSV artifacts into the
output directory and returns a three-way exit code: 0 on success, 1 on
configuration or infrastructure errors, 2 when a quantitative check
fails its stated tolerance.  Reports embed the resolved config and its
hash (never timestamps), so identical configs reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import io
import json
import subprocess
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import _csvout
from .conditions import check_split_condition, full_report
from .config import ConfigError, RunConfig
from .expr import ExprEvalError
from .linalg import SolverError, _usable_cores
from .stochastic import (SDE, PointSampler, _characteristic_panel_mc,
                         _characteristic_panel_pde, _path_estimate,
                         _streamed_source, density_compare,
                         max_principle_check, verify_pairing)

if TYPE_CHECKING:
    from .solver import BackwardProblem, FixedPointTrace

__all__ = ["main"]


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _base_payload(cfg: RunConfig) -> dict:
    return {"schema": "v1", "config_hash": cfg.hash(),
            "config": cfg.resolved,
            "problem": cfg.field.describe()}


class _SolutionWriter:
    """``solution.csv``, formatted by a helper interpreter (``_csvout``)
    from the levels given to ``level`` while the caller computes the next
    ones.  ``finish`` waits for the file.  Leaving the ``with`` block
    without it stops the helper and removes what it wrote.  A fault of
    the helper raises an ``OSError`` that names the file and gives the
    last line of the helper's report."""

    helper = _csvout.__file__

    def __init__(self, path: Path, grid, times):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self._times = times
        self._ended = False     # the whole stream is sent
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", self.helper, str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        self._live = True       # not yet waited for
        # a 1 MiB pipe holds about 14 levels of 95^2 nodes, so the march
        # need not wait while the helper formats a level (64 KiB, the
        # default, holds less than one)
        with contextlib.suppress(OSError, AttributeError):
            fcntl.fcntl(self._proc.stdin.fileno(), fcntl.F_SETPIPE_SZ,
                        1 << 20)
        head = io.StringIO()
        writer = csv.writer(head)
        writer.writerow([f"# n={grid.n} m={list(grid.m)} nt={grid.nt} "
                         f"complex=%d"])
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(grid.n)]
                        + ["re", "im"])
        header = head.getvalue().encode()
        nodes = grid.nodes()
        try:
            self._send(_csvout.HEAD.pack(grid.n, len(nodes), len(header)),
                       header, nodes.T.tobytes())
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._live:      # left without finish: stop the helper
            self._proc.kill()
            with contextlib.suppress(OSError):
                self._wait()

    def level(self, k: int, values):
        """Send time level ``k``; a real level prints ``re,0``."""
        values = np.asarray(values)
        cplx = np.iscomplexobj(values)
        t = f"{self._times[k]:.12g}".encode()
        self._send(_csvout.LEVEL.pack(k, len(t), cplx), t,
                   values.astype(complex if cplx else float,
                                 copy=False).tobytes())

    def finish(self):
        self._ended = True
        self._send(_csvout.LEVEL.pack(-1, 0, 0))
        self._wait()

    def _send(self, *parts):
        try:
            for part in parts:
                self._proc.stdin.write(part)
            self._proc.stdin.flush()
        except OSError:     # a broken pipe: the helper stopped early,
            self._wait()    # which this raises

    def _wait(self):
        """Wait for the helper; unless it wrote the whole file, remove
        its files and raise its fault."""
        proc = self._proc
        err = proc.communicate()[1]
        self._live = False
        if proc.returncode == 0 and self._ended:
            return
        part = self.path.with_name(self.path.name + ".part")
        for path in [part, self.path] if self._ended else [part]:
            with contextlib.suppress(OSError):
                path.unlink()
        lines = err.decode(errors="replace").strip().splitlines()
        code = proc.returncode
        reason = (lines[-1] if lines else
                  f"the writer stopped on signal {-code}" if code < 0 else
                  f"the writer exited with code {code}")
        raise OSError(f"cannot write {self.path}: {reason}")


# ----------------------------------------------------------------------------
# commands


def cmd_analyze(cfg: RunConfig) -> int:
    report = full_report(cfg.field, cfg.split, cfg.samples,
                         index_set=cfg.index_set, gamma=cfg.gamma)
    payload = _base_payload(cfg)
    payload["report"] = report.as_dict()
    _write_json(cfg.out_dir / "report.json", payload)
    lines = [f"delta      = {report.delta:.6g}",
             f"nu_hat     = {report.nu_hat:.6g}",
             f"index set  = {list(report.index_set)}",
             f"gamma      = {[round(report.gamma[k], 6) for k in report.index_set]}",
             "",
             f"{'condition':<18}{'verdict':<12}{'margin':<14}"]
    for name, verdict in report.verdicts.items():
        if not verdict.applicable:
            row = f"{name:<18}{'n/a':<12}{'-':<14}"
        else:
            word = "ok" if verdict.ok else "fail"
            row = f"{name:<18}{word:<12}{verdict.margin:<14.6g}"
        lines.append(row)
    (cfg.out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if report.satisfied else 2


def _proof_mirror(cfg: RunConfig, problem: BackwardProblem, grid,
                  direct) -> FixedPointTrace:
    """The fixed-point construction of ``solve --proof-mirror``; ``direct``
    is the direct solution, or a ``Future`` of it read after the last
    sweep, whose fault stops the construction before its next sweep."""
    from .solver import fixed_point_solve
    # the split that analyze certifies: its index set and weights
    decomp, *_ = check_split_condition(cfg.field, cfg.split, cfg.samples,
                                       index_set=cfg.index_set,
                                       gamma=cfg.gamma)
    _, trace = fixed_point_solve(problem, grid, decomp, eps=cfg.proof_eps,
                                 K=cfg.proof_K, theta=cfg.theta,
                                 direct=direct)
    return trace


def cmd_solve(cfg: RunConfig, proof_mirror: bool = False) -> int:
    from .solver import apriori_ratio, solve_backward
    grid, problem = cfg.grid, cfg.problem
    grid.nodes()    # built once, before a second thread reads it
    # with a second core the construction runs on a worker beside the
    # direct solve, its norms, solution.csv and error table; it waits for
    # the direct solution only after its last sweep.  A fault of that work
    # is raised first, as when the two run one after the other, and stops
    # the construction before its next sweep.
    beside = proof_mirror and _usable_cores() > 1
    direct = Future()
    with (ThreadPoolExecutor(1, thread_name_prefix="proof-mirror") if beside
          else contextlib.nullcontext()) as pool:
        mirror = (pool.submit(_proof_mirror, cfg, problem, grid,
                              direct) if beside else None)
        with contextlib.ExitStack() as stack:
            try:
                # a helper process formats each level of solution.csv
                # while the march solves the next; a fault reaches the
                # construction before the helper is stopped
                csv_out = stack.enter_context(_SolutionWriter(
                    cfg.out_dir / "solution.csv", grid, grid.times()))
                solution = solve_backward(problem, grid, cfg.theta,
                                          _on_level=csv_out.level)
                ratio = apriori_ratio(solution, cfg.phi, cfg.Phi)
                payload = _base_payload(cfg)
                payload["norms"] = solution.norms.as_dict()
                payload["apriori_ratio"] = ratio
                payload["meta"] = {k: v for k, v in solution.meta.items()}
                csv_out.finish()
                if cfg.exact is not None:
                    payload["max_error_vs_exact"] = _error_table(
                        cfg, grid, solution)
            except BaseException as err:
                direct.set_exception(err)
                raise
        direct.set_result(solution)
        if proof_mirror:
            trace = (mirror.result() if beside else
                     _proof_mirror(cfg, problem, grid, solution))
            _write_json(cfg.out_dir / "fixed_point_trace.json",
                        {"schema": "v1", "config_hash": cfg.hash(),
                         "trace": trace.as_dict()})
            payload["fixed_point"] = trace.as_dict()
    _write_json(cfg.out_dir / "norms.json", payload)
    print(f"apriori ratio {ratio:.6g}; artifacts in {cfg.out_dir}")
    return 0


def _error_table(cfg: RunConfig, grid, solution) -> float:
    nodes = grid.nodes()
    exact_fn = cfg.exact
    max_err = 0.0
    rows = ""
    for k, t in enumerate(grid.times()):
        exact = exact_fn.eval_raw(nodes, t)
        num = solution.v.values[k].ravel()
        err = np.abs(num - exact)
        max_err = max(max_err, float(err.max()))
        if k == 0:
            rows = (_csvout._row_template(nodes.T.tolist(),
                                          "%.12g,%.12g,%.3e")
                    % tuple(np.column_stack((num.real, exact, err))
                            .ravel().tolist()))
    out = cfg.out_dir / "error_table.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{i + 1}" for i in range(grid.n)]
                        + ["numeric_t0", "exact_t0", "abs_err"])
        handle.write(rows)
    return max_err


def cmd_simulate(cfg: RunConfig) -> int:
    # the Feynman-Kac functional of phi and Phi; with neither, the
    # survival probability (Phi = 1)
    Phi = (cfg.Phi if cfg.phi is not None or cfg.Phi is not None
           else lambda x: np.ones(len(x)))
    ens, vals = _streamed_source(SDE(cfg.field, cfg.grid), cfg.sampler,
                                 cfg.mc_dt, cfg.mc_M, cfg.mc_seed, cfg.phi,
                                 Phi)
    payload = _base_payload(cfg)
    payload["ensemble"] = ens.summary()
    payload["estimate"] = _path_estimate(vals, ens).as_dict()
    _write_json(cfg.out_dir / "ensemble.json", payload)
    if cfg.dump_paths:
        out = cfg.out_dir / "paths.csv"
        with out.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["path", "tau", "exited"]
                            + [f"y{i + 1}_final" for i in range(ens.n)])
            for p in range(min(1000, ens.M)):
                writer.writerow([p, f"{ens.tau[p]:.12g}", int(ens.exited[p])]
                                + [f"{c:.12g}" for c in ens.final_y[p]])
    print(json.dumps(ens.summary()))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    from .solver import solve_backward, solve_forward_adjoint
    grid, sampler, problem = cfg.grid, cfg.sampler, cfg.problem
    sde = SDE(cfg.field, grid)
    checks: dict = {}
    ok = True

    # one backward solve serves the pairing and the maximum principle, one
    # ensemble the pairing and the density check
    solution = solve_backward(problem, grid, cfg.theta)
    streamed = _streamed_source(sde, sampler, cfg.mc_dt, cfg.mc_M,
                                cfg.mc_seed, problem.phi, problem.Phi,
                                cfg.density_times or None)
    pairing = verify_pairing(problem, grid, sde, sampler, cfg.mc_dt,
                             cfg.mc_M, cfg.mc_seed, cfg.theta,
                             allowance=cfg.pairing_allowance,
                             solution=solution, _streamed=streamed)
    checks["pairing"] = pairing
    ok &= pairing["pass"]

    if cfg.density_times:
        rho = sampler.grid_density(grid)
        adjoint = solve_forward_adjoint(rho, problem, grid, cfg.theta)
        ens = streamed[0]
        rows = []
        for t in cfg.density_times:
            l1 = density_compare(ens, adjoint, t)
            rows.append({"t": t, "l1": l1, "pass": bool(l1 <= cfg.density_l1)})
            ok &= l1 <= cfg.density_l1
        checks["density"] = rows

    min_v, verdict = max_principle_check(solution, problem)
    checks["max_principle"] = {"min": min_v, "verdict": verdict}
    if verdict == "fail":
        ok = False

    payload = _base_payload(cfg)
    payload["checks"] = checks
    _write_json(cfg.out_dir / "verify.json", payload)
    print(json.dumps({k: (v if not isinstance(v, dict) or "pass" not in v
                          else v["pass"]) for k, v in checks.items()},
                     default=str))
    return 0 if ok else 2


def cmd_characteristic(cfg: RunConfig) -> int:
    if cfg.panel is None:
        raise ConfigError("characteristic needs characteristic.panel")
    # one unrecorded ensemble and one batched march serve every function
    xis = [row[1:] for row in cfg.panel]
    mcs = _characteristic_panel_mc(SDE(cfg.field, cfg.grid), cfg.sampler,
                                   cfg.mc_dt, cfg.mc_M, cfg.mc_seed, xis)
    pdes = _characteristic_panel_pde(cfg.grid, cfg.field, cfg.sampler,
                                     cfg.theta, xis)
    rows = []
    ok = True
    for (fid, _, _), mc, pde in zip(cfg.panel, mcs, pdes):
        diff = abs(complex(mc.value) - complex(pde.value))
        tol = 3.0 * mc.stderr + cfg.char_allowance
        rows.append({"func": fid, "mc": mc.as_dict(), "pde": pde.as_dict(),
                     "diff": diff, "tol": tol, "pass": bool(diff <= tol)})
        ok &= diff <= tol
    payload = _base_payload(cfg)
    payload["table"] = rows
    _write_json(cfg.out_dir / "characteristic.json", payload)
    out = cfg.out_dir / "characteristic.csv"
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["func", "mc_re", "mc_im", "mc_stderr",
                         "pde_re", "pde_im", "diff", "tol", "pass"])
        for row in rows:
            writer.writerow([row["func"], row["mc"]["re"], row["mc"]["im"],
                             row["mc"]["stderr"], row["pde"]["re"],
                             row["pde"]["im"], f"{row['diff']:.6g}",
                             f"{row['tol']:.6g}", int(row["pass"])])
    print("\n".join(f"func {r['func']}: diff {r['diff']:.4g} "
                    f"(tol {r['tol']:.4g}) {'ok' if r['pass'] else 'FAIL'}"
                    for r in rows))
    return 0 if ok else 2


# ----------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Reports a command-line usage error as a ``ConfigError``: one
    ``error:`` line and exit code 1, as for a bad config."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="cordeslab",
        description="Cordes-type solvability analysis, backward solves and "
                    "Monte Carlo cross-validation for nondivergent parabolic "
                    "operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "solve", "simulate", "verify", "characteristic"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "solve":
            p.add_argument("--proof-mirror", action="store_true")

    try:
        args = parser.parse_args(argv)
        overrides: dict = {}
        if args.seed is not None:
            overrides["mc.seed"] = args.seed
        cfg = RunConfig.load(args.config, overrides)
        if cfg.grid is None and args.command in ("solve", "verify",
                                                 "characteristic"):
            raise ConfigError("this command needs grid.m and grid.nt")
        if (isinstance(cfg.sampler, PointSampler)
                and args.command in ("verify", "characteristic")):
            raise ConfigError(f"{args.command} needs a sampler with a "
                              f"density; mc.sampler = point has none")
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "solve":
            return cmd_solve(cfg, proof_mirror=args.proof_mirror)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_characteristic(cfg)
    except (ConfigError, OSError, KeyError, ValueError, SolverError,
            ExprEvalError, MemoryError) as err:
        # str() of a KeyError is the repr of its message
        print(f"error: {err.args[0] if isinstance(err, KeyError) else err}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
