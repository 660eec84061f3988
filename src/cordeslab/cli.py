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
import json
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .conditions import full_report
from .config import ConfigError, RunConfig
from .expr import ExprEvalError
from .fields import decompose, sample_set
from .grid import GridFunction
from .solver import (BackwardProblem, FixedPointTrace, SolverError,
                     _usable_cores, apriori_ratio, fixed_point_solve,
                     solve_backward, solve_forward_adjoint)
from .stochastic import (SDE, _characteristic_panel_mc,
                         _characteristic_panel_pde, _streamed_source,
                         density_compare, feynman_kac, max_principle_check,
                         simulate_paths, verify_pairing)

__all__ = ["main"]


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _base_payload(cfg: RunConfig) -> dict:
    return {"schema": "v1", "config_hash": cfg.hash(),
            "config": cfg.resolved,
            "problem": cfg.field.describe()}


def _row_template(nodes: np.ndarray, cells: str, lead: str = "") -> str:
    """One printf template for a block of CSV rows, one row per node:
    ``lead``, the node's coordinates ``x1,..,xn`` formatted as
    ``{:.12g}``, then ``cells``, ended by ``\\r\\n`` as ``csv.writer``
    ends them (no cell here needs quoting).  ``%.12g`` and ``%.3e`` give
    the same strings as the f-string specs of the same name."""
    coords = zip(*(map("{:.12g}".format, col.tolist()) for col in nodes.T))
    return "".join(f"{lead}{','.join(c)},{cells}\r\n" for c in coords)


def _dump_solution_csv(path: Path, gf: GridFunction):
    grid = gf.grid
    path.parent.mkdir(parents=True, exist_ok=True)
    is_complex = np.iscomplexobj(gf.values)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"# n={grid.n} m={list(grid.m)} nt={grid.nt} "
                         f"complex={int(is_complex)}"])
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(grid.n)]
                        + ["re", "im"])
        # "\0" stands for the time cell of each row
        rows = _row_template(grid.nodes(),
                             "%.12g,%.12g" if is_complex else "%.12g,0",
                             lead="\0,")
        block = gf.values if gf.is_spacetime else gf.values[None]
        times = grid.times() if gf.is_spacetime else [0.0]
        for k, t in enumerate(times):
            flat = block[k].ravel()
            if is_complex:
                flat = np.column_stack((flat.real, flat.imag))
            handle.write(rows.replace("\0", f"{t:.12g}")
                         % tuple(flat.ravel().tolist()))


# ----------------------------------------------------------------------------
# commands


def cmd_analyze(cfg: RunConfig) -> int:
    samples = sample_set(cfg.field.sampling_box(), cfg.field.T,
                         cfg.samples_space, cfg.samples_time)
    report = full_report(cfg.field, cfg.split, samples,
                         index_set=cfg.index_set, gamma=cfg.gamma_map())
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
    samples = sample_set(cfg.field.sampling_box(), cfg.field.T,
                         cfg.samples_space, cfg.samples_time)
    decomp = decompose(cfg.field, cfg.split, samples,
                       index_set=cfg.index_set)
    gamma = cfg.gamma_map()
    if gamma is not None:
        decomp = decomp.with_gamma(gamma)
    _, trace = fixed_point_solve(problem, grid, decomp, eps=cfg.proof_eps,
                                 K=cfg.proof_K, theta=cfg.theta,
                                 direct=direct)
    return trace


def cmd_solve(cfg: RunConfig, proof_mirror: bool = False) -> int:
    grid = cfg.make_grid()
    grid.nodes()    # built once, before a second thread reads it
    problem = BackwardProblem(cfg.field, phi=cfg.phi, Phi=cfg.Phi)
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
        try:
            solution = solve_backward(problem, grid, cfg.theta)
            ratio = apriori_ratio(solution, cfg.phi, cfg.Phi)
            payload = _base_payload(cfg)
            payload["norms"] = solution.norms.as_dict()
            payload["apriori_ratio"] = ratio
            payload["meta"] = {k: v for k, v in solution.meta.items()}
            _dump_solution_csv(cfg.out_dir / "solution.csv", solution.v)
            if cfg.exact is not None:
                payload["max_error_vs_exact"] = _error_table(cfg, grid,
                                                             solution)
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
            rows = (_row_template(nodes, "%.12g,%.12g,%.3e")
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
    grid = cfg.make_grid() if cfg.grid_m is not None else None
    sde = SDE(cfg.field, grid)
    sampler = cfg.make_sampler()
    ens = simulate_paths(sde, sampler, cfg.mc_dt, cfg.mc_M, cfg.mc_seed)
    payload = _base_payload(cfg)
    payload["ensemble"] = ens.summary()
    if cfg.Phi is not None or cfg.phi is None:
        est = feynman_kac(ens, Phi=cfg.Phi if cfg.Phi is not None
                          else (lambda x: np.ones(len(x))))
        payload["estimate"] = est.as_dict()
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
    grid = cfg.make_grid()
    problem = BackwardProblem(cfg.field, phi=cfg.phi, Phi=cfg.Phi)
    sde = SDE(cfg.field, grid)
    sampler = cfg.make_sampler()
    checks: dict = {}
    ok = True

    # one backward solve serves the pairing and the maximum principle, one
    # ensemble the pairing and the density check
    solution = solve_backward(problem, grid, cfg.theta)
    streamed = _streamed_source(sde, sampler, cfg.mc_dt, cfg.mc_M,
                                cfg.mc_seed, problem.phi,
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


def _read_panel(path: Path, n: int):
    """Panel CSV: columns ``t, xi1..xin`` (single) or ``func, t, xi1..``.

    Every entry must be finite, a ``func`` id an integer, and the times of
    each function must increase strictly down the file."""
    try:
        with path.open() as handle:
            rows = list(csv.reader(handle))
    except OSError as err:
        raise ConfigError(f"cannot read panel {path}: {err}") from None
    if not rows:
        raise ConfigError(f"panel {path} is empty")
    header = [c.strip().lower() for c in rows[0]]
    has_func = header[0] == "func"
    first = 1 if _is_number_row(rows[0]) else 2     # line of the first row
    panels: dict = {}

    def bad(lineno, why):
        return ConfigError(f"panel {path} line {lineno}: {why}")
    for lineno, row in enumerate(rows[first - 1:], start=first):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            vals = [float(c) for c in row]
        except ValueError:
            raise bad(lineno, "non-numeric entry") from None
        if not np.isfinite(vals).all():
            raise bad(lineno, "non-finite entry")
        if has_func and not vals[0].is_integer():
            raise bad(lineno, f"func id {row[0].strip()} is not an integer")
        fid = int(vals[0]) if has_func else 0
        data = vals[1:] if has_func else vals
        if len(data) != n + 1:
            raise bad(lineno, f"expected t and {n} components")
        if fid in panels and data[0] <= panels[fid][-1][0]:
            raise bad(lineno, f"time {data[0]:g} does not follow "
                      f"{panels[fid][-1][0]:g} of func {fid}")
        panels.setdefault(fid, []).append(data)
    out = []
    for fid in sorted(panels):
        arr = np.asarray(panels[fid])
        out.append((fid, arr[:, 0], arr[:, 1:]))
    return out


def _is_number_row(row) -> bool:
    try:
        [float(c) for c in row]
        return True
    except ValueError:
        return False


def cmd_characteristic(cfg: RunConfig) -> int:
    if cfg.char_panel is None:
        raise ConfigError("characteristic needs characteristic.panel")
    grid = cfg.make_grid()
    panel = _read_panel(cfg.char_panel, cfg.field.n)
    sampler = cfg.make_sampler()
    # one unrecorded ensemble and one batched march serve every function
    xis = [row[1:] for row in panel]
    mcs = _characteristic_panel_mc(SDE(cfg.field, grid), sampler, cfg.mc_dt,
                                   cfg.mc_M, cfg.mc_seed, xis)
    pdes = _characteristic_panel_pde(grid, cfg.field, sampler, cfg.theta,
                                     xis)
    rows = []
    ok = True
    for (fid, _, _), mc, pde in zip(panel, mcs, pdes):
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
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
