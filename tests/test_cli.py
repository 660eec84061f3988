import csv
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from cordeslab import solver
from cordeslab.cli import main
from cordeslab.config import parse_kv_text
from cordeslab.expr import ExprEvalError
from cordeslab.fields import BUILTIN_NAMES, Box
from cordeslab.grid import GridFunction, build_grid

BENCH = """
problem.builtin = paper_3x3
problem.param.alpha = {alpha}
problem.param.beta = {beta}
conditions.samples.space = 5
conditions.samples.time = 2
out.dir = {out}
"""


def run(tmp_path, name, text, command, *extra):
    cfg = tmp_path / name
    cfg.write_text(text)
    return main([command, "--config", str(cfg), *extra])


@pytest.fixture
def writers(monkeypatch):
    """Every ``solution.csv`` writer the test starts."""
    import cordeslab.cli as cli
    started = []
    init = cli._SolutionWriter.__init__

    def recorded(self, *args):
        started.append(self)
        init(self, *args)
    monkeypatch.setattr(cli._SolutionWriter, "__init__", recorded)
    return started


def _nothing_left(out, writers):
    """No solution.csv or part file in ``out``, and no helper running."""
    assert not (out / "solution.csv").is_file()
    assert not (out / "solution.csv.part").is_file()
    assert writers and all(w._proc.poll() is not None for w in writers)


def test_analyze_satisfied_case(tmp_path, capsys):
    code = run(tmp_path, "a.cfg",
               BENCH.format(alpha=0.9, beta=0.4, out=tmp_path / "out"),
               "analyze")
    assert code == 0
    out = capsys.readouterr().out
    assert "cordes" in out and "fail" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["report"]["verdicts"]["split_condition"]["ok"] is True
    assert report["report"]["verdicts"]["cordes"]["ok"] is False


def test_analyze_violated_case_exit_2(tmp_path):
    code = run(tmp_path, "a.cfg",
               BENCH.format(alpha=1.1, beta=0.0, out=tmp_path / "out"),
               "analyze")
    assert code == 2


def test_analyze_identity_all_pass(tmp_path):
    text = ("problem.builtin = identity_heat\nproblem.param.n = 3\n"
            f"out.dir = {tmp_path / 'out'}\n"
            "conditions.samples.space = 3\nconditions.samples.time = 2\n")
    assert run(tmp_path, "a.cfg", text, "analyze") == 0


def test_analyze_with_supplied_gamma(tmp_path):
    # the split check keeps the given index set and weights: nu_hat is the
    # decomposition's under gamma = 1.9, with no search
    from cordeslab.conditions import nu_hat
    from cordeslab.fields import builtin_problem, decompose, sample_set
    text = (BENCH.format(alpha=0.3, beta=0.2, out=tmp_path / "out")
            + "conditions.N = 1\nconditions.gamma = 1.9\n")
    assert run(tmp_path, "a.cfg", text, "analyze") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    report = report["report"]
    field = builtin_problem("paper_3x3", {"alpha": 0.3, "beta": 0.2})
    samples = sample_set(field.sampling_box(), field.T, 5, 2)
    decomp = decompose(field, "identity", samples, index_set=(1,))
    assert report["N"] == [1] and report["gamma"] == [1.9]
    assert report["nu_hat"] == nu_hat(decomp.with_gamma({1: 1.9}), samples)
    split = report["verdicts"]["split_condition"]
    assert split["ok"] is True
    assert split["margin"] == report["delta"] ** 2 - report["nu_hat"]


def test_analyze_gamma_out_of_range_exit_1(tmp_path, capsys):
    text = (BENCH.format(alpha=0.5, beta=0.0, out=tmp_path / "out")
            + "conditions.N = 1\nconditions.gamma = 2.5\n")
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e-12", "1.9999999999"])
def test_analyze_gamma_outside_the_checked_range_exit_1(tmp_path, capsys,
                                                        value):
    # inside (0, 2) but outside the range the weights are checked against:
    # the one error line names the key and that range
    text = (BENCH.format(alpha=0.5, beta=0.0, out=tmp_path / "out")
            + f"conditions.N = 1\nconditions.gamma = {value}\n")
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == (f"error: conditions.gamma = {float(value)!r}: "
                      f"expected 1 finite number in (1e-09, 1.999999999)")


def test_analyze_unknown_builtin_exit_1(tmp_path):
    text = f"problem.builtin = nope\nout.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, "analyze") == 1


def test_analyze_reports_are_reproducible(tmp_path):
    text = BENCH.format(alpha=0.6, beta=0.3, out=tmp_path / "out")
    assert run(tmp_path, "a.cfg", text, "analyze") == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    assert run(tmp_path, "a.cfg", text, "analyze") == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == first


def test_solve_and_simulate_outputs_are_reproducible(tmp_path):
    solve_text = ("problem.builtin = manufactured_1d\n"
                  "grid.m = 31\ngrid.nt = 16\n"
                  f"out.dir = {tmp_path / 'out_s'}\n")
    sim_text = ("problem.builtin = gaussian_free_space\n"
                "problem.param.n = 1\nproblem.param.T = 0.1\n"
                "mc.M = 400\nmc.dt = 0.002\nmc.seed = 5\n"
                "mc.sampler = gaussian\nmc.sampler.sigma = 1.0\n"
                f"out.dir = {tmp_path / 'out_m'}\n")
    snapshots = {}
    for round_no in range(2):
        assert run(tmp_path, "s.cfg", solve_text, "solve") == 0
        assert run(tmp_path, "m.cfg", sim_text, "simulate") == 0
        for rel in ("out_s/norms.json", "out_s/solution.csv",
                    "out_m/ensemble.json"):
            data = (tmp_path / rel).read_bytes()
            if round_no == 0:
                snapshots[rel] = data
            else:
                assert data == snapshots[rel], rel


def test_solve_manufactured_writes_error_table(tmp_path):
    text = ("problem.builtin = manufactured_1d\n"
            "grid.m = 63\ngrid.nt = 64\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 0
    norms = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert norms["max_error_vs_exact"] <= 2e-3
    table = (tmp_path / "out" / "error_table.csv").read_text().splitlines()
    assert table[0].startswith("x1,")
    assert len(table) == 64
    assert (tmp_path / "out" / "solution.csv").exists()


def test_solve_zero_data_zero_ratio(tmp_path):
    text = ("problem.builtin = identity_heat\nproblem.param.n = 1\n"
            "grid.m = 15\ngrid.nt = 8\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 0
    norms = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert norms["apriori_ratio"] == 0.0


def test_solve_evaluates_phi_once_per_level(tmp_path, monkeypatch):
    # the march evaluates phi on the nt levels before the horizon and
    # apriori_ratio reuses them: its left rectangle rule needs no other
    from cordeslab.fields import ExprField
    source = ExprField("x1 * (1 + t)").describe()
    calls = []
    eval_raw = ExprField.eval_raw

    def counted(self, x, t):
        if self.describe() == source:
            calls.append(t)
        return eval_raw(self, x, t)
    monkeypatch.setattr(ExprField, "eval_raw", counted)
    text = ("problem.builtin = identity_heat\nproblem.param.n = 1\n"
            "grid.m = 15\ngrid.nt = 8\n"
            'solve.phi = "x1 * (1 + t)"\n'
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 0
    assert len(calls) == len(set(calls)) == 8 and max(calls) < 1.0  # T = 1
    norms = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert norms["apriori_ratio"] > 0.0


@pytest.mark.parametrize("theta, evaluations", [(1.0, 8), (0.5, 16)])
def test_solve_reads_the_source_norms_by_level(tmp_path, monkeypatch, theta,
                                               evaluations):
    # at theta = 1 apriori_ratio reads the norms of the march's source
    # levels by index; at theta = 0.5 the march froze the source between
    # the grid times, so X0 evaluates it again.  Either way the ratio is
    # the one of a fresh evaluation at the grid times
    from cordeslab.config import RunConfig
    from cordeslab.fields import ExprField
    source = ExprField("x1 * (1 + t)").describe()
    calls = []
    eval_raw = ExprField.eval_raw

    def counted(self, x, t):
        if self.describe() == source:
            calls.append(t)
        return eval_raw(self, x, t)
    monkeypatch.setattr(ExprField, "eval_raw", counted)
    text = ("problem.builtin = identity_heat\nproblem.param.n = 1\n"
            f"grid.m = 15\ngrid.nt = 8\nscheme.theta = {theta}\n"
            'solve.phi = "x1 * (1 + t)"\n'
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 0
    assert len(calls) == evaluations
    norms = json.loads((tmp_path / "out" / "norms.json").read_text())
    cfg = RunConfig.load(tmp_path / "s.cfg")
    grid = cfg.grid
    v = solver.solve_backward(solver.BackwardProblem(cfg.field, cfg.phi),
                              grid, theta).v
    fresh = solver.apriori_ratio(solver.DiscreteSolution(v), cfg.phi, cfg.Phi)
    assert norms["apriori_ratio"] == fresh > 0.0


def test_solve_holds_the_time_free_parts_of_phi(tmp_path, monkeypatch):
    # sin(3*x1) and sin(2*x2) do not read t: the first level evaluates them
    # at the grid's nodes and the later levels read them back
    from cordeslab import expr
    calls = []
    lo, hi, sin = expr.FUNCTIONS["sin"]
    monkeypatch.setitem(expr.FUNCTIONS, "sin",
                        (lo, hi, lambda u: calls.append(u) or sin(u)))
    text = ("problem.builtin = identity_heat\nproblem.param.n = 2\n"
            "grid.m = 9\ngrid.nt = 8\n"
            'solve.phi = "sin(3*x1)*sin(2*x2)*exp(-t)"\n'
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 0
    assert len(calls) == 2


def test_solve_computes_the_solution_norms_once(tmp_path, monkeypatch):
    # apriori_ratio takes Yhat2 from the bundle solve_backward computed with
    # the same default weights
    blocks = []
    norms = solver.discrete_norms

    def counted(u, *args, **kwargs):
        if u.is_spacetime:
            blocks.append(u)
        return norms(u, *args, **kwargs)
    monkeypatch.setattr(solver, "discrete_norms", counted)
    text = ("problem.builtin = identity_heat\nproblem.param.n = 1\n"
            "grid.m = 15\ngrid.nt = 8\n"
            'solve.phi = "x1 * (1 + t)"\n'
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 0
    assert len(blocks) == 1
    norms_json = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert norms_json["apriori_ratio"] > 0.0


PROOF_MIRROR = (
    "problem.builtin = paper_3x3\n"
    "problem.param.alpha = 0.5\nproblem.param.beta = 0.0\n"
    "problem.param.T = 0.25\n"
    "grid.m = 7 7 7\ngrid.nt = 8\n"
    "conditions.N = 1\nconditions.gamma = 1.9\n"
    "conditions.samples.space = 3\nconditions.samples.time = 2\n"
    'solve.Phi = "cos(1.5707963267948966*x1)*cos(1.5707963267948966*x2)'
    '*cos(1.5707963267948966*x3)"\n'
    "out.dir = {out}\n")


def test_solve_proof_mirror_trace(tmp_path):
    text = PROOF_MIRROR.format(out=tmp_path / "out")
    assert run(tmp_path, "s.cfg", text, "solve", "--proof-mirror") == 0
    trace = json.loads(
        (tmp_path / "out" / "fixed_point_trace.json").read_text())
    assert trace["trace"]["converged"] is True
    assert trace["trace"]["contraction_est"] < 1.0


def test_proof_mirror_solves_the_backward_problem_once(tmp_path, monkeypatch):
    solves = []
    direct = solver.solve_backward

    def counted(*args, **kwargs):
        solves.append(args[1])
        return direct(*args, **kwargs)
    monkeypatch.setattr(solver, "solve_backward", counted)
    text = PROOF_MIRROR.format(out=tmp_path / "out")
    assert run(tmp_path, "s.cfg", text, "solve", "--proof-mirror") == 0
    assert len(solves) == 1
    norms = json.loads((tmp_path / "out" / "norms.json").read_text())
    assert norms["fixed_point"]["agreement_vs_direct"] <= 1e-8


def test_proof_mirror_computes_no_bundle_of_the_fixed_point_solution(
        tmp_path, monkeypatch):
    # the backward solution's bundle for apriori_ratio, then norm(d) on
    # every sweep and norm(v) only where the increment is small against
    # the sum of the increments, here on the last sweep alone; cmd_solve
    # discards the fixed-point solution, so its bundle is never computed
    blocks = []
    norms = solver.discrete_norms

    def counted(u, *args, **kwargs):
        if u.is_spacetime:
            blocks.append(u)
        return norms(u, *args, **kwargs)
    monkeypatch.setattr(solver, "discrete_norms", counted)
    text = PROOF_MIRROR.format(out=tmp_path / "out")
    assert run(tmp_path, "s.cfg", text, "solve", "--proof-mirror") == 0
    trace = json.loads(
        (tmp_path / "out" / "fixed_point_trace.json").read_text())["trace"]
    assert trace["converged"] is True
    sweeps = len(trace["increments"])
    assert len(blocks) == 1 + sweeps + 1


@pytest.mark.parametrize("given", [False, True])
def test_proof_mirror_runs_on_the_split_analyze_certifies(tmp_path,
                                                          monkeypatch, given):
    # without conditions.N and conditions.gamma the construction takes the
    # index set and the weights of analyze's search, not gamma = 1
    text = PROOF_MIRROR.format(out=tmp_path / "out")
    if not given:
        text = text.replace("conditions.N = 1\nconditions.gamma = 1.9\n", "")
    handed = []
    construct = solver.fixed_point_solve

    def spy(problem, grid, decomp, **kwargs):
        handed.append(decomp)
        return construct(problem, grid, decomp, **kwargs)
    monkeypatch.setattr(solver, "fixed_point_solve", spy)
    assert run(tmp_path, "s.cfg", text, "solve", "--proof-mirror") == 0
    assert run(tmp_path, "s.cfg", text, "analyze") in (0, 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    [decomp] = handed
    assert list(decomp.index_set) == report["report"]["N"]
    assert [decomp.gamma[k] for k in decomp.index_set] == \
        report["report"]["gamma"]


@pytest.mark.parametrize("line", [
    "solve.proof_mirror.K = nan", "solve.proof_mirror.K = -1e6",
    "solve.proof_mirror.eps = 0", "solve.proof_mirror.eps = -1",
    "solve.proof_mirror.eps = nan"])
def test_bad_proof_mirror_parameter_exit_1(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    text = PROOF_MIRROR.format(out=tmp_path / "out") + line + "\n"
    assert run(tmp_path, "s.cfg", text, "solve", "--proof-mirror") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} = ")


def _cores(monkeypatch, cores):
    """Run with ``cores`` usable cores; the list returned collects the
    name of every thread started."""
    import cordeslab.cli as cli
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    monkeypatch.setattr(solver, "_usable_cores", lambda: cores)
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        start(self)
    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _beside(started):
    return any(name.startswith("proof-mirror") for name in started)


def _sweep_pools(monkeypatch):
    """The list returned collects the worker count of every sweep pool the
    construction starts (an idle pool thread may serve two sweeps, so the
    threads started do not count them)."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)
    monkeypatch.setattr(solver, "ThreadPoolExecutor", Pool)
    return pools


def test_proof_mirror_artifacts_do_not_depend_on_the_cores(tmp_path,
                                                           monkeypatch):
    artifacts = {}
    for cores in (1, 2):
        started = _cores(monkeypatch, cores)
        pools = _sweep_pools(monkeypatch)
        out = tmp_path / f"out{cores}"
        assert run(tmp_path, "s.cfg", PROOF_MIRROR.format(out="out"),
                   "solve", "--proof-mirror", "--out", str(out)) == 0
        assert _beside(started) == (cores == 2)
        assert pools == [cores]     # the sweep workers
        artifacts[cores] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(artifacts[1]) == ["fixed_point_trace.json", "norms.json",
                                    "solution.csv"]
    assert artifacts[1] == artifacts[2]


def _overflowing_direct_solve(monkeypatch):
    """The direct march turns non-finite at level 7; the construction's
    march keeps its source.  The event returned is set once the direct
    march has failed."""
    from cordeslab.fields import ExprField
    direct = solver.solve_backward
    failed = threading.Event()

    def overflowing(problem, grid, theta, _on_level=None):
        bad = solver.BackwardProblem(
            problem.field, phi=ExprField("exp(700)*exp(700)*x1"),
            Phi=problem.Phi)
        try:
            return direct(bad, grid, theta, _on_level=_on_level)
        finally:
            failed.set()
    monkeypatch.setattr(solver, "solve_backward", overflowing)
    return failed


def _failing_error_table(monkeypatch):
    """The error table, made after solution.csv, fails on ``solve.exact``;
    the event returned is set once it has failed."""
    import cordeslab.cli as cli
    table = cli._error_table
    failed = threading.Event()

    def failing(*args):
        try:
            return table(*args)
        finally:
            failed.set()
    monkeypatch.setattr(cli, "_error_table", failing)
    return failed


def _construction_marches(monkeypatch, failed):
    """The list returned gets, for each march the construction starts
    (its first march and every sweep), whether ``failed`` was set then."""
    marches = []
    levels = solver._Stepper.levels

    def counted(self, *args):
        if threading.current_thread() is not threading.main_thread():
            marches.append(failed.is_set())
        return levels(self, *args)
    monkeypatch.setattr(solver._Stepper, "levels", counted)
    return marches


@pytest.mark.parametrize("fault", ["direct", "construction", "both",
                                   "exact"])
def test_proof_mirror_fault_prints_the_line_of_a_serial_run(
        tmp_path, monkeypatch, capsys, writers, fault):
    failed = threading.Event()
    text = PROOF_MIRROR.format(out="out")
    if fault in ("direct", "both"):
        failed = _overflowing_direct_solve(monkeypatch)
    if fault in ("construction", "both"):
        # the weight guard trips on the automatic K
        monkeypatch.setattr(solver, "MAX_KT", 1e-3)
    if fault == "exact":
        failed = _failing_error_table(monkeypatch)
        text += 'solve.exact = "sqrt(x1 - 0.5)"\n'
    lines = {}
    for cores in (1, 2):
        started = _cores(monkeypatch, cores)
        failed.clear()
        marches = _construction_marches(monkeypatch, failed)
        out = tmp_path / f"out{cores}"
        assert run(tmp_path, "s.cfg", text,
                   "solve", "--proof-mirror", "--out", str(out)) == 1
        assert _beside(started) == (cores == 2)
        # a fault on the main thread stops the construction at its next
        # sweep
        assert sum(marches) <= 1
        lines[cores] = capsys.readouterr().err.splitlines()
        assert (out / "solution.csv").exists() == (
            fault in ("construction", "exact"))
        assert not (out / "norms.json").exists()
        assert not (out / "solution.csv.part").exists()
        assert all(w._proc.poll() is not None for w in writers)
    assert len(lines[1]) == 1 and lines[2] == lines[1]
    assert {"direct": "non-finite at time level 7",
            "construction": "weight exponent K*T",
            "both": "non-finite at time level 7",
            "exact": "sqrt of a negative number"}[fault] in lines[1][0]


@pytest.mark.parametrize("cores", [1, 2])
def test_proof_mirror_warning_reaches_the_caller(tmp_path, monkeypatch,
                                                 cores):
    on_main = []
    construct = solver.fixed_point_solve

    def capped(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return construct(*args, max_iter=2, **kwargs)
    monkeypatch.setattr(solver, "fixed_point_solve", capped)
    _cores(monkeypatch, cores)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        assert run(tmp_path, "s.cfg", PROOF_MIRROR.format(out="out"),
                   "solve", "--proof-mirror") == 0
    assert on_main == [cores == 1]


def test_simulate_summary(tmp_path):
    text = ("problem.builtin = gaussian_free_space\n"
            "problem.param.n = 1\nproblem.param.T = 0.1\n"
            "mc.M = 500\nmc.dt = 0.002\nmc.seed = 3\n"
            "mc.sampler = point\nmc.sampler.at = 0.0\n"
            "mc.dump_paths = true\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "m.cfg", text, "simulate") == 0
    summary = json.loads((tmp_path / "out" / "ensemble.json").read_text())
    assert summary["ensemble"]["M"] == 500
    assert summary["ensemble"]["survived"] == 500
    paths = (tmp_path / "out" / "paths.csv").read_text().splitlines()
    assert len(paths) == 501


def test_simulate_and_verify_report_one_functional(tmp_path):
    # simulate's estimate is verify's Monte Carlo side of the pairing:
    # source integral and terminal value of the same paths, to the bit
    text = TINY_MC.replace("mc.M = 400", "mc.M = 3000") + (
        'solve.phi = "exp(-x1^2)"\nsolve.Phi = "x1^2"\n')
    assert run(tmp_path, "s.cfg", text + f"out.dir = {tmp_path / 's'}\n",
               "simulate") == 0
    assert run(tmp_path, "v.cfg", text + f"out.dir = {tmp_path / 'v'}\n",
               "verify") in (0, 2)
    estimate = json.loads((tmp_path / "s" / "ensemble.json").read_text())
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert estimate["estimate"] == checks["checks"]["pairing"]["mc"]
    assert estimate["estimate"]["M"] == 3000


def test_simulate_of_a_source_alone_reports_its_functional(tmp_path):
    from cordeslab import stochastic
    from cordeslab.config import RunConfig
    text = TINY_MC + ('solve.phi = "exp(-x1^2)"\n'
                      f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "simulate") == 0
    cfg = RunConfig.load(tmp_path / "s.cfg")
    ens, vals = stochastic._streamed_source(
        stochastic.SDE(cfg.field, cfg.grid), cfg.sampler, cfg.mc_dt,
        cfg.mc_M, cfg.mc_seed, cfg.phi)
    estimate = json.loads(
        (tmp_path / "out" / "ensemble.json").read_text())["estimate"]
    assert estimate == stochastic._path_estimate(vals, ens).as_dict()
    assert estimate["re"] > 0.0


def test_simulate_reads_the_recorded_feynman_kac_functional(tmp_path):
    # manufactured_1d ships phi and Phi: the streamed functional of both is
    # the recorded route's, summed in another order (u(0.5, 0) = 1 up to
    # the exit bias of the scheme)
    from cordeslab import stochastic
    from cordeslab.config import RunConfig
    text = ("problem.builtin = manufactured_1d\nmc.M = 2000\nmc.dt = 1e-3\n"
            "mc.seed = 3\nmc.sampler = point\nmc.sampler.at = 0.5\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "simulate") == 0
    cfg = RunConfig.load(tmp_path / "s.cfg")
    ens = stochastic.simulate_paths(stochastic.SDE(cfg.field, cfg.grid),
                                    cfg.sampler, cfg.mc_dt, cfg.mc_M,
                                    cfg.mc_seed, record="all")
    want = stochastic.feynman_kac(ens, cfg.phi, cfg.Phi)
    estimate = json.loads(
        (tmp_path / "out" / "ensemble.json").read_text())["estimate"]
    assert estimate["re"] == pytest.approx(want.value.real, rel=1e-12)
    assert estimate["stderr"] == pytest.approx(want.stderr, rel=1e-12)
    assert estimate["re"] == pytest.approx(1.0, abs=0.2)


def test_simulate_without_a_source_steps_with_no_hook(tmp_path, monkeypatch):
    # no step hook, so a constant-beta run keeps its running-sums engine
    from cordeslab import stochastic
    hooks = []
    simulate = stochastic.simulate_paths

    def counted(*args, **kwargs):
        hooks.append(kwargs.get("_on_step"))
        return simulate(*args, **kwargs)
    monkeypatch.setattr(stochastic, "simulate_paths", counted)
    text = TINY_MC + f"out.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "s.cfg", text, "simulate") == 0
    assert hooks == [None]


@pytest.mark.parametrize("sampler", [
    "gaussian\nmc.sampler.sigma = 1.0", "uniform", "hat"],
    ids=["gaussian", "uniform", "hat"])
def test_verify_gaussian_pairing(tmp_path, sampler):
    text = ("problem.builtin = gaussian_free_space\n"
            "problem.param.n = 1\nproblem.param.half_width = 8\n"
            "problem.param.T = 0.25\n"
            "grid.m = 255\ngrid.nt = 64\n"
            'solve.Phi = "x1^2"\n'
            "mc.M = 20000\nmc.dt = 0.001\nmc.seed = 42\n"
            f"mc.sampler = {sampler}\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "v.cfg", text, "verify") == 0
    checks = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert checks["checks"]["pairing"]["pass"] is True
    assert checks["checks"]["max_principle"]["verdict"] == "pass"


def test_verify_time_windowed_imaginary_rate(tmp_path):
    # an imaginary rate that is 0 at t = 0, T/2 and T is still complex:
    # the paths' discounts match the march and the sign check stands aside
    (tmp_path / "field.cfg").write_text(
        "n = 1\nT = 1\ndomain.lo = -8\ndomain.hi = 8\nb[1][1] = 1\n"
        "beta[1][1] = 1.4142135623730951\n"
        'lambda.im = "3*step(t - 0.6)*step(0.9 - t)"\n')
    text = ("problem.file = field.cfg\ngrid.m = 255\ngrid.nt = 1000\n"
            "mc.M = 2000\nmc.dt = 1e-3\nmc.sampler = gaussian\n"
            'mc.sampler.sigma = 0.5\nsolve.Phi = "1"\n'
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "v.cfg", text, "verify") == 0
    checks = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert checks["checks"]["pairing"]["diff"] <= 2e-2
    assert checks["checks"]["max_principle"]["verdict"] == "not applicable"


def test_characteristic_zero_row_and_csv(tmp_path, monkeypatch):
    import cordeslab.stochastic as stochastic
    simulations = []
    simulate = stochastic.simulate_paths

    def counted(*args, **kwargs):
        simulations.append((args[4], kwargs.get("record")))
        return simulate(*args, **kwargs)
    monkeypatch.setattr(stochastic, "simulate_paths", counted)
    (tmp_path / "panel.csv").write_text(
        "func,t,xi1\n0,0.0,0.0\n0,0.2,0.0\n1,0.0,1.0\n1,0.2,1.0\n")
    text = ("problem.builtin = gaussian_free_space\n"
            "problem.param.n = 1\nproblem.param.half_width = 8\n"
            "problem.param.T = 0.2\n"
            "grid.m = 127\ngrid.nt = 40\n"
            "mc.M = 20000\nmc.dt = 0.005\nmc.seed = 7\n"
            "mc.sampler = gaussian\nmc.sampler.center = 0.4\n"
            "mc.sampler.sigma = 1.0\n"
            "characteristic.panel = panel.csv\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "c.cfg", text, "characteristic") == 0
    # one unrecorded ensemble serves both panel functions
    assert simulations == [(7, None)]
    rows = json.loads(
        (tmp_path / "out" / "characteristic.json").read_text())["table"]
    assert rows[0]["mc"] == {"re": 1.0, "im": 0.0, "stderr": 0.0,
                             "M": rows[0]["mc"]["M"]}
    assert rows[0]["pde"]["re"] == 1.0 and rows[0]["pde"]["im"] == 0.0
    csv_text = (tmp_path / "out" / "characteristic.csv").read_text()
    assert csv_text.splitlines()[0].startswith("func,")


def test_verify_tolerance_failure_exit_2(tmp_path):
    text = ("problem.builtin = gaussian_free_space\n"
            "problem.param.n = 1\nproblem.param.half_width = 6\n"
            "problem.param.T = 0.1\n"
            "grid.m = 63\ngrid.nt = 16\n"
            'solve.Phi = "x1^2"\n'
            "mc.M = 2000\nmc.dt = 0.002\nmc.seed = 1\n"
            "mc.sampler = gaussian\nmc.sampler.sigma = 1.0\n"
            "verify.density.times = 0.1\n"
            "verify.density.l1 = 1e-9\n"   # unreachable threshold
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "v.cfg", text, "verify") == 2


def test_verify_maximum_principle_failure_exit_2(tmp_path):
    # so strong a correlation of the axes takes the march below 0 under
    # nonnegative terminal data on this coarse grid; the pairing passes
    (tmp_path / "field.cfg").write_text(
        "n = 2\nT = 0.1\ndomain.lo = -1 -1\ndomain.hi = 1 1\n"
        "b[1][1] = 1\nb[1][2] = 0.9\nb[2][1] = 0.9\nb[2][2] = 1\n")
    text = ("problem.file = field.cfg\ngrid.m = 15\ngrid.nt = 16\n"
            'solve.Phi = "step(0.2 - abs(x1 - x2))"\n'
            "mc.M = 2000\nmc.dt = 0.005\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "v.cfg", text, "verify") == 2
    checks = json.loads(
        (tmp_path / "out" / "verify.json").read_text())["checks"]
    assert checks["pairing"]["pass"] is True
    assert checks["max_principle"]["verdict"] == "fail"
    assert checks["max_principle"]["min"] == pytest.approx(-0.025, abs=1e-3)


def test_characteristic_without_a_panel_exit_1(tmp_path, capsys):
    text = TINY_MC + f"out.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "c.cfg", text, "characteristic") == 1
    assert _one_error_line(capsys) == \
        "error: characteristic needs characteristic.panel\n"


@pytest.mark.parametrize("command", ["solve", "verify", "characteristic"])
def test_command_without_a_grid_exit_1(tmp_path, capsys, command):
    (tmp_path / "panel.csv").write_text("t,xi1\n0.0,1.0\n")
    text = (TINY_MC.replace("grid.m = 31\ngrid.nt = 8\n", "")
            + "characteristic.panel = panel.csv\n"
            + f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "a.cfg", text, command) == 1
    assert _one_error_line(capsys) == \
        "error: this command needs grid.m and grid.nt\n"
    assert not (tmp_path / "out").exists()


def test_simulate_of_one_path_reports_no_spread(tmp_path):
    # one path has no sample variance: its standard error reads 0, and
    # no warning of a variance without degrees of freedom is raised
    text = (TINY_MC.replace("mc.M = 400", "mc.M = 1")
            + f"out.dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "m.cfg", text, "simulate") == 0
    estimate = json.loads(
        (tmp_path / "out" / "ensemble.json").read_text())["estimate"]
    assert estimate["M"] == 1 and estimate["stderr"] == 0.0


def test_characteristic_malformed_panel_exit_1(tmp_path, capsys):
    (tmp_path / "panel.csv").write_text("func,t,xi1\n0,zero,0.0\n")
    text = ("problem.builtin = gaussian_free_space\nproblem.param.n = 1\n"
            "grid.m = 31\ngrid.nt = 8\n"
            "characteristic.panel = panel.csv\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "c.cfg", text, "characteristic") == 1
    assert "panel" in capsys.readouterr().err


@pytest.mark.parametrize("panel, line, message", [
    ("func,t,xi1\n0,0.0,1.0\n0,0.2,1.0\n0,0.1,1.0\n", 4, "does not follow"),
    ("func,t,xi1\n0,0.0,1.0\n1,0.0,1.0\n0,0.0,2.0\n", 4, "does not follow"),
    ("func,t,xi1\n0,0.0,1.0\n0,inf,1.0\n", 3, "non-finite"),
    ("func,t,xi1\n0,0.0,nan\n", 2, "non-finite"),
    ("func,t,xi1\nnan,0.0,1.0\n", 2, "non-finite"),
    ("func,t,xi1\n1.5,0.0,1.0\n", 2, "func id 1.5 is not an integer"),
    ("0.0,1.0\n0.1,-inf\n", 2, "non-finite"),
    ("t,xi1\n0.1,1.0\n0.1,2.0\n", 3, "does not follow"),
    ("func,t,xi1\n0,0.0,1.0,2.0\n", 2, "expected t and 1 components"),
    ("", None, "is empty"),
    ("func,t,xi1\n\n", None, "is empty"),
    (None, None, "cannot read panel")])
def test_characteristic_bad_panel_exit_1(tmp_path, capsys, panel, line,
                                         message):
    # one error line naming the panel file and the line at fault, if any;
    # a panel of None is a directory, which cannot be read as a file
    path = tmp_path / "panel.csv"
    if panel is None:
        path.mkdir()
    else:
        path.write_text(panel)
    text = ("problem.builtin = gaussian_free_space\nproblem.param.n = 1\n"
            "grid.m = 31\ngrid.nt = 8\n"
            "characteristic.panel = panel.csv\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "c.cfg", text, "characteristic") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    where = f"panel {path}" + (f" line {line}: " if line else "")
    assert where in err[0] and message in err[0]


def test_expression_fault_exit_1(tmp_path, capsys):
    # the probe set holds x1 = 0.5, where the entry divides by zero
    (tmp_path / "field.cfg").write_text(
        "n = 1\nT = 0.5\ndomain.lo = 0\ndomain.hi = 1\n"
        'b[1][1] = "1 + 1/(x1 - 0.5)^2"\n')
    text = f"problem.file = field.cfg\nout.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fault_in_a_path_block_exit_1(tmp_path, capsys, monkeypatch):
    # two blocks (10240 and 9761 paths) on two workers; the rate
    # evaluation fails in the first and the fault reaches the caller
    import cordeslab.stochastic as stochastic
    from cordeslab.fields import CoefficientField
    evaluate = CoefficientField.eval_lambda

    def faulty(self, x, t):
        if len(x) > 10000:
            raise ExprEvalError("sqrt of a negative number")
        return evaluate(self, x, t)
    monkeypatch.setattr(CoefficientField, "eval_lambda", faulty)
    monkeypatch.setattr(stochastic, "_usable_cores", lambda: 2)
    text = ("n = 1\nT = 0.01\ndomain.lo = -8\ndomain.hi = 8\n"
            "b[1][1] = 1\nbeta[1][1] = 1.4142135623730951\n"
            'lambda.re = "0.5 + 0.1*x1"\n'
            "mc.M = 20001\nmc.dt = 0.005\n"
            "mc.sampler = point\nmc.sampler.at = 0.0\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "m.cfg", text, "simulate") == 1
    err = capsys.readouterr().err
    assert err == "error: sqrt of a negative number\n"


# a tiny verify/characteristic problem; the density check records M = 400
# paths at one time, 800 floats, above a recording budget patched to 100
TINY_MC = ("problem.builtin = gaussian_free_space\n"
           "problem.param.n = 1\nproblem.param.half_width = 6\n"
           "problem.param.T = 0.1\ngrid.m = 31\ngrid.nt = 8\n"
           "mc.M = 400\nmc.dt = 0.01\nmc.seed = 3\n"
           "mc.sampler = gaussian\nmc.sampler.sigma = 1.0\n")


def test_solve_phi_im_makes_the_solution_complex(tmp_path):
    from cordeslab.config import RunConfig
    from cordeslab.fields import ExprField
    text = ("problem.builtin = identity_heat\nproblem.param.n = 1\n"
            "grid.m = 15\ngrid.nt = 8\n"
            'solve.phi = "x1 * (1 + t)"\nsolve.phi_im = "cos(x1) * t"\n'
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 0
    cfg = RunConfig.load(tmp_path / "s.cfg")
    sol = solver.solve_backward(solver.BackwardProblem(
        cfg.field, phi=(ExprField("x1 * (1 + t)"), ExprField("cos(x1) * t"))),
        cfg.grid)
    assert np.iscomplexobj(sol.v.values)
    _reference_solution_csv(tmp_path / "want.csv", sol.v)
    got = (tmp_path / "out" / "solution.csv").read_bytes()
    assert got.splitlines()[0].endswith(b"complex=1")
    assert got == (tmp_path / "want.csv").read_bytes()


def test_problem_file_lambda_im_makes_the_march_complex(tmp_path):
    im = []
    for extra in ("", 'lambda.im = "0.5*x1"\n'):
        (tmp_path / "field.cfg").write_text(
            ONE_D + 'b[1][1] = "1"\nlambda.re = "0.3"\n' + extra)
        text = ("problem.file = field.cfg\ngrid.m = 15\ngrid.nt = 8\n"
                'solve.Phi = "sin(3.141592653589793*x1)"\n'
                f"out.dir = {tmp_path / 'out'}\n")
        assert run(tmp_path, "s.cfg", text, "solve") == 0
        lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()
        im.append((lines[0][-1], max(abs(float(row.split(",")[-1]))
                                     for row in lines[2:])))
    assert im[0] == ("0", 0.0)
    assert im[1][0] == "1" and im[1][1] > 0.0


@pytest.mark.parametrize("command, key, table, tol", [
    ("verify", "verify.pairing.allowance",
     lambda out: [json.loads((out / "verify.json").read_text())
                  ["checks"]["pairing"]], "tolerance"),
    ("characteristic", "characteristic.allowance",
     lambda out: json.loads((out / "characteristic.json").read_text())
     ["table"], "tol")])
def test_allowance_moves_the_tolerance_by_its_value(tmp_path, command, key,
                                                    table, tol):
    (tmp_path / "panel.csv").write_text("func,t,xi1\n0,0.0,1.0\n"
                                        "1,0.0,0.5\n1,0.1,-1.0\n")
    tols = {}
    for allowance in (0.0, 0.375):
        text = (TINY_MC + "characteristic.panel = panel.csv\n"
                f"{key} = {allowance}\nout.dir = out{allowance}\n")
        assert run(tmp_path, "c.cfg", text, command) in (0, 2)
        tols[allowance] = [row[tol] for row in
                           table(tmp_path / f"out{allowance}")]
    assert tols[0.375] == [t + 0.375 for t in tols[0.0]]


def test_recording_budget_exit_1(tmp_path, capsys, monkeypatch):
    import cordeslab.stochastic as stochastic
    monkeypatch.setattr(stochastic, "_MAX_RECORD_FLOATS", 100)
    text = TINY_MC + ('solve.Phi = "x1^2"\nverify.density.times = 0.05\n'
                      f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "v.cfg", text, "verify") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err


def test_characteristic_records_no_trajectories(tmp_path, monkeypatch):
    # the panel phases are summed while the paths are stepped, so the
    # recording budget does not apply
    import cordeslab.stochastic as stochastic
    monkeypatch.setattr(stochastic, "_MAX_RECORD_FLOATS", 100)
    (tmp_path / "panel.csv").write_text("t,xi1\n0.0,0.5\n0.1,1.5\n")
    text = TINY_MC + ("characteristic.panel = panel.csv\n"
                      f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "c.cfg", text, "characteristic") == 0


def test_characteristic_computes_no_norms(tmp_path, monkeypatch):
    # no backward solution of the panel is asked for its norm bundle
    calls = []
    norms = solver.discrete_norms
    monkeypatch.setattr(solver, "discrete_norms",
                        lambda *a, **k: calls.append(a) or norms(*a, **k))
    (tmp_path / "panel.csv").write_text(
        "func,t,xi1\n0,0.0,0.5\n1,0.0,1.0\n1,0.05,-1.0\n")
    text = TINY_MC + ("characteristic.panel = panel.csv\n"
                      f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "c.cfg", text, "characteristic") == 0
    rows = json.loads(
        (tmp_path / "out" / "characteristic.json").read_text())["table"]
    assert len(rows) == 2
    assert calls == []


def test_missing_config_exit_1(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("argv, message", [
    (["solve", "--config", "run.cfg", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["solve"], "the following arguments are required: --config"),
    (["simulate", "--config", "run.cfg", "--seed", "x"],
     "argument --seed: invalid int value: 'x'")])
def test_usage_error_exit_1(capsys, argv, message):
    # exit code 2 is kept for a failed check
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["solve", "-h"])
    assert stop.value.code == 0
    assert "--proof-mirror" in capsys.readouterr().out


def test_problem_file_roundtrip(tmp_path):
    (tmp_path / "field.cfg").write_text(
        "n = 2\nT = 0.5\ndomain.lo = 0 0\ndomain.hi = 1 1\n"
        'b[1][1] = "1.5"\nb[2][2] = "1 + 0.5*step(x1 - 0.5)"\n'
        'b[1][2] = "0.2"\nb[2][1] = "0.2"\nf[1] = "0.1"\n'
        'lambda.re = "0.3"\n')
    text = (f"problem.file = field.cfg\n"
            "conditions.split = constant\n"
            "conditions.samples.space = 5\nconditions.samples.time = 2\n"
            f"out.dir = {tmp_path / 'out'}\n")
    code = run(tmp_path, "a.cfg", text, "analyze")
    assert code in (0, 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["problem"]["n"] == 2
    assert report["problem"]["b"][1][1] == "1.0 + 0.5 * step(x1 - 0.5)"


TABLE_FILE = ("n = 2\nT = 1.0\ndomain.lo = 0 0\ndomain.hi = 1 1\n"
              "b.table.file = cells.csv\nb.table.cells = {cells}\n")


def test_table_file_matches_the_builtin_checkerboard(tmp_path):
    from cordeslab.config import RunConfig
    from cordeslab.fields import builtin_problem
    rows = ["# i1, i2, b11, b12, b21, b22"]
    for i in range(4):
        for j in range(4):
            v = 1.0 if (i + j) % 2 == 0 else 3.0
            rows.append(f"{i},{j},{v},0,0,{v}")
    (tmp_path / "cells.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "field.cfg").write_text(TABLE_FILE.format(cells="4 4"))
    (tmp_path / "a.cfg").write_text(f"problem.file = field.cfg\n"
                                    f"out.dir = {tmp_path / 'out'}\n")
    field = RunConfig.load(str(tmp_path / "a.cfg"), {}).field
    ref = builtin_problem("checkerboard_2d", {"low": 1.0, "high": 3.0})
    g = build_grid(ref.domain, 15, 2, ref.T)
    for t in g.times():
        assert np.array_equal(field.eval_b(g.nodes(), t),
                              ref.eval_b(g.nodes(), t))


@pytest.mark.parametrize("bad", ["1,5,1,0,0,1", "-1,1,1,0,0,1",
                                 "0.5,1,1,0,0,1", "0,0,2,0,0,2",
                                 "0,1,1,0,0", "0,1,one,0,0,1",
                                 "0,1,nan,0,0,1", "0,1,1,0,0,-inf"])
def test_bad_table_row_exit_1(tmp_path, capsys, bad):
    # a 2x2 table whose third line is bad: an index out of range, negative
    # or not an integer, a cell given twice, a short row, a non-number, a
    # non-finite entry
    (tmp_path / "cells.csv").write_text(f"0,0,1,0,0,1\n1,1,1,0,0,1\n{bad}\n")
    (tmp_path / "field.cfg").write_text(TABLE_FILE.format(cells="2 2"))
    text = f"problem.file = field.cfg\nout.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: table ") and err.count("\n") == 1
    assert "cells.csv line 3:" in err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("line", ["mc.M = 2.7", "grid.m = 31.7",
                                  "grid.nt = abc", "scheme.theta = abc",
                                  "mc.dt = nan", "mc.dt = inf"])
def test_bad_numeric_value_exit_1(tmp_path, capsys, line):
    key, _, value = line.partition(" = ")
    text = (f"problem.builtin = manufactured_1d\n{line}\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    err = _one_error_line(capsys)
    assert err.startswith(f"error: {key} = ") and value.split()[0] in err


def test_table_cells_need_one_count_per_axis(tmp_path, capsys):
    (tmp_path / "cells.csv").write_text("0,0,1,0,0,1\n")
    (tmp_path / "field.cfg").write_text(TABLE_FILE.format(cells="2 2 2"))
    text = f"problem.file = field.cfg\nout.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    assert "b.table.cells" in _one_error_line(capsys)


@pytest.mark.parametrize("cells, line, key", [
    (None, "conditions.samples.space = 0", "conditions.samples.space"),
    (None, "grid.m = 15 16\ngrid.nt = 8", "grid.m"),    # a 1-D problem
    ("2 -1", "", "b.table.cells"),
    ("0 2", "", "b.table.cells"),
], ids=["no_space_samples", "two_counts_in_1d", "negative_cells",
        "zero_cells"])
def test_unusable_count_exit_1(tmp_path, capsys, cells, line, key):
    if cells is None:
        text = f"problem.builtin = manufactured_1d\n{line}\n"
    else:
        (tmp_path / "cells.csv").write_text("0,0,1,0,0,1\n")
        (tmp_path / "field.cfg").write_text(TABLE_FILE.format(cells=cells))
        text = "problem.file = field.cfg\n"
    text += f"out.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    assert _one_error_line(capsys).startswith(f"error: {key} = ")


ONE_D = "n = 1\nT = 0.5\ndomain.lo = 0\ndomain.hi = 1\n"


@pytest.mark.parametrize("problem, text, key", [
    (ONE_D + 'lamda.re = "5"\n', "problem.file = field.cfg\n", "lamda.re"),
    (None, ONE_D + 'f[2] = "1"\n', "f[2]"),
    (None, 'problem.builtin = manufactured_1d\nb[1][1] = "5"\n', "b[1][1]"),
    (None, "problem.builtin = manufactured_1d\nmc.m = 5\n", "mc.m"),
])
def test_unknown_key_exit_1(tmp_path, capsys, problem, text, key):
    if problem is not None:
        (tmp_path / "field.cfg").write_text(problem)
    text += f"out.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    err = _one_error_line(capsys)
    where = "field.cfg" if problem is not None else "a.cfg"
    assert f"{where}: unknown key {key!r}" in err


BUILTIN_1D = "problem.builtin = manufactured_1d\n"
GRID_1D = "grid.m = 15\ngrid.nt = 8\n"
ALL_SPACE = 'n = 1\nT = 0.5\ndomain = all\nb[1][1] = "1"\n'
HEAT_1D = "problem.builtin = identity_heat\n"
FIELD = "problem.file = field.cfg\n"
PAPER = ("problem.builtin = paper_3x3\nproblem.param.alpha = 0.5\n"
         "problem.param.beta = 0.3\n")
FREE_1D = "problem.builtin = gaussian_free_space\n"


@pytest.mark.parametrize("problem, text, command, message", [
    (None, "problem.builtin manufactured_1d\n", "analyze",
     "line 1: expected 'key = value'"),
    (None, BUILTIN_1D + "= 5\n", "analyze", "line 2: empty key"),
    (None, BUILTIN_1D + "mc.M =\n", "analyze", "line 2: empty value"),
    (None, BUILTIN_1D + 'solve.Phi = "x1\n', "analyze",
     "line 2: unterminated string"),
    ("T = 0.5\n", "problem.file = field.cfg\n", "analyze",
     "problem file lacks key 'n'"),
    ("n = 1\n", "problem.file = field.cfg\n", "analyze",
     "problem file lacks key 'T'"),
    (None, "problem.file = field.cfg\n", "analyze", "does not exist"),
    (None, BUILTIN_1D + "conditions.split = diagonal\n", "analyze",
     "unknown split spec 'diagonal'"),
    (None, BUILTIN_1D + "conditions.N = 2\n", "analyze",
     "conditions.N indices outside 1..n"),
    (None, BUILTIN_1D + "mc.dt = 0\n", "simulate",
     "error: mc.dt = 0.0: expected 1 finite number > 0"),
    (None, BUILTIN_1D + "mc.sampler = cauchy\n", "simulate",
     "unknown sampler 'cauchy'"),
    (None, BUILTIN_1D + "grid.m = 15\n", "solve",
     "this command needs grid.m and grid.nt"),
    (None, BUILTIN_1D + "conditions.gamma = 1\n", "analyze",
     "conditions.gamma needs conditions.N"),
    # solve and simulate never read the weights, yet the file is faulty
    (None, BUILTIN_1D + GRID_1D + "conditions.gamma = 1.0\n", "solve",
     "conditions.gamma needs conditions.N"),
    (None, BUILTIN_1D + GRID_1D + "conditions.gamma = 1.0\n", "simulate",
     "conditions.gamma needs conditions.N"),
    # a flat sum of 600 terms is a tree 600 levels deep
    (ONE_D + 'b[1][1] = "1"\nf[1] = "' + " + ".join(["x1*0.001"] * 600)
     + '"\n', "problem.file = field.cfg\n", "analyze",
     "expression nested deeper than 100 levels"),
    # an expression's syntax fault names its file and its key
    (ONE_D + 'f[1] = "x1 +"\n', "problem.file = field.cfg\n", "analyze",
     "field.cfg: f[1]: expected a value, found 'end of input' "
     "(byte offset 4)"),
    (ONE_D + 'lambda.re = "' + "(" * 101 + "1" + ")" * 101 + '"\n',
     "problem.file = field.cfg\n", "analyze",
     "field.cfg: lambda.re: expression nested deeper than 100 levels "
     "(byte offset 100)"),
    (None, BUILTIN_1D + 'solve.phi = "sin(x1"\n', "analyze",
     "a.cfg: solve.phi: expected ')', found 'end of input' (byte offset 6)"),
    (None, BUILTIN_1D + 'solve.exact = "x1 * * 2"\n', "analyze",
     "a.cfg: solve.exact: expected a value, found '*' (byte offset 5)"),
    (None, BUILTIN_1D + GRID_1D + 'solve.exact = "x1 * * 2"\n', "solve",
     "a.cfg: solve.exact: expected a value, found '*' (byte offset 5)"),
    # analyze reads neither the sampler, the panel nor the grid, yet the
    # config is faulty: load refuses it, whatever the command
    (None, BUILTIN_1D + "mc.sampler = cauchy\n", "analyze",
     "unknown sampler 'cauchy'"),
    (None, BUILTIN_1D + "mc.sampler = gaussian\nmc.sampler.sigma = abc\n",
     "analyze", "error: mc.sampler.sigma = 'abc': expected"),
    (None, BUILTIN_1D + "mc.sampler = hat\nmc.sampler.center = 0 0\n",
     "analyze", "error: mc.sampler.center = [0.0, 0.0]: expected 1 finite"),
    (None, BUILTIN_1D + "characteristic.panel = nowhere.csv\n", "analyze",
     "cannot read panel"),
    (None, BUILTIN_1D + "grid.m = 15\n", "analyze",
     "this command needs grid.m and grid.nt"),
    (None, BUILTIN_1D + "grid.nt = 8\n", "analyze",
     "this command needs grid.m and grid.nt"),
    (ALL_SPACE, FIELD + GRID_1D, "analyze", "wide box"),
    # bounds and horizons must be finite, a horizon positive
    (ONE_D.replace("hi = 1", "hi = inf"), FIELD, "analyze",
     "error: domain.hi = inf: expected 1 finite number"),
    (ONE_D.replace("lo = 0", "lo = nan"), FIELD + GRID_1D, "solve",
     "error: domain.lo = nan: expected 1 finite number"),
    (ONE_D.replace("T = 0.5", "T = 0"), FIELD, "analyze",
     "error: T = 0.0: expected a finite number > 0"),
    (ONE_D.replace("T = 0.5", "T = -1"), FIELD, "analyze",
     "error: T = -1.0: expected a finite number > 0"),
    (ONE_D.replace("T = 0.5", "T = inf"), FIELD, "analyze",
     "error: T = inf: expected 1 finite number"),
    (ONE_D.replace("T = 0.5", "T = nan"), FIELD + GRID_1D, "solve",
     "error: T = nan: expected 1 finite number"),
    (None, HEAT_1D + "problem.param.T = 0\n", "analyze",
     "error: problem.param.T = 0.0: expected 1 finite number > 0"),
    (None, HEAT_1D + GRID_1D + "problem.param.T = inf\n", "solve",
     "error: problem.param.T = inf: expected 1 finite number"),
    (None, BUILTIN_1D + "mc.sampler = hat\nmc.sampler.width = nan\n",
     "simulate", "error: mc.sampler.width = nan: expected 1 finite"),
    # a builtin takes the parameters of its signature, each a number, a
    # count where its default is an int
    (None, PAPER + "problem.param.t = 0.25\n", "analyze",
     "a.cfg: unknown key 'problem.param.t'"),
    (None, HEAT_1D + "problem.param.n = 2.5\n", "analyze",
     "error: problem.param.n = 2.5: expected 1 integer >= 1"),
    (None, HEAT_1D + "problem.param.n = 0\n", "analyze",
     "error: problem.param.n = 0.0: expected 1 integer >= 1"),
    (None, PAPER + "problem.param.T = 1 2\n", "analyze",
     "error: problem.param.T = [1.0, 2.0]: expected 1 finite number"),
    (None, FREE_1D + "problem.param.half_width = abc\n", "analyze",
     "error: problem.param.half_width = 'abc': expected 1 finite number"),
    # a sampler takes the keys of its kind alone
    (None, BUILTIN_1D + "mc.sampler.sigma = abc\n", "analyze",
     "a.cfg: unknown key 'mc.sampler.sigma'"),
    (None, BUILTIN_1D + "mc.sampler = point\nmc.sampler.center = 0\n",
     "analyze", "a.cfg: unknown key 'mc.sampler.center'"),
    # and its numbers in range
    (None, FREE_1D + "mc.sampler = gaussian\nmc.sampler.sigma = 0\n",
     "simulate", "error: mc.sampler.sigma = 0.0: expected 1 finite number "
     "> 0"),
    (None, FREE_1D + "mc.sampler = gaussian\nmc.sampler.center = 100\n",
     "simulate", "error: mc.sampler.center = [100.0]: the box [-8.0]..[8.0] "
     "holds none of the Gaussian's mass"),
    (None, BUILTIN_1D + "mc.sampler = hat\nmc.sampler.width = -1\n",
     "simulate", "error: mc.sampler.width = -1.0: expected 1 finite number "
     "> 0"),
    (None, BUILTIN_1D + "mc.sampler = hat\nmc.sampler.width = 0\n",
     "simulate", "error: mc.sampler.width = 0.0: expected 1 finite number "
     "> 0"),
    (ALL_SPACE.replace("n = 1", "n = 0"), FIELD, "analyze",
     "error: n = 0.0: expected 1 integer >= 1"),
    # a flag is true or false
    (None, BUILTIN_1D + "mc.dump_paths = no\n", "analyze",
     "error: mc.dump_paths = 'no': expected true or false"),
    (None, BUILTIN_1D + "mc.dump_paths = 1 2\n", "analyze",
     "error: mc.dump_paths = [1.0, 2.0]: expected true or false"),
    # and a flag is not a number
    (None, BUILTIN_1D + "mc.M = true\n", "analyze",
     "error: mc.M = True: expected 1 integer >= 1"),
    (None, PAPER + "problem.param.T = true\n", "analyze",
     "error: problem.param.T = True: expected 1 finite number"),
    # every number lies in its key's interval
    (None, BUILTIN_1D + "mc.seed = -3\n", "analyze",
     "error: mc.seed = -3.0: expected 1 integer >= 0"),
    (None, BUILTIN_1D + "verify.pairing.allowance = -1\n", "analyze",
     "error: verify.pairing.allowance = -1.0: expected 1 finite number "
     ">= 0"),
    (None, BUILTIN_1D + "characteristic.allowance = -1\n", "analyze",
     "error: characteristic.allowance = -1.0: expected 1 finite number "
     ">= 0"),
    (None, BUILTIN_1D + "verify.density.l1 = 0\n", "analyze",
     "error: verify.density.l1 = 0.0: expected 1 finite number > 0"),
    (None, BUILTIN_1D + "verify.density.times = 7\n", "analyze",
     "error: verify.density.times = 7.0: expected only finite numbers "
     "in [0, 0.5]"),
    (None, BUILTIN_1D + "verify.density.times = -1\n", "analyze",
     "error: verify.density.times = -1.0: expected only finite numbers "
     "in [0, 0.5]"),
    # a spread is one number for every axis or one per axis
    (None, BUILTIN_1D + "mc.sampler = gaussian\nmc.sampler.sigma = 1 2\n",
     "analyze", "error: mc.sampler.sigma = [1.0, 2.0]: expected 1 finite "
     "number > 0"),
    (None, BUILTIN_1D + "mc.sampler = hat\nmc.sampler.width = 0.1 0.2\n",
     "analyze", "error: mc.sampler.width = [0.1, 0.2]: expected 1 finite "
     "number > 0"),
    # a value of separators alone is no value
    (None, BUILTIN_1D + "conditions.N = ,\n", "analyze",
     "a.cfg: line 2: conditions.N = ,: expected a value, not separators "
     "alone"),
    (None, BUILTIN_1D + GRID_1D + "verify.density.times = , ,\n", "verify",
     "a.cfg: line 4: verify.density.times = , ,: expected a value, not "
     "separators alone"),
], ids=["no_equals", "empty_key", "empty_value", "unterminated_string",
        "problem_without_n", "problem_without_T", "missing_problem_file",
        "unknown_split", "index_outside_n", "nonpositive_dt",
        "unknown_sampler", "grid_command_without_grid",
        "gamma_without_index_set", "gamma_without_index_set_solve",
        "gamma_without_index_set_simulate", "too_deep_an_expression",
        "syntax_error_in_problem_file", "too_deep_a_rate",
        "syntax_error_in_source", "syntax_error_in_exact_analyze",
        "syntax_error_in_exact_solve", "unknown_sampler_analyze",
        "bad_sigma_analyze", "center_per_axis_analyze",
        "missing_panel_analyze",
        "grid_m_without_nt_analyze", "grid_nt_without_m_analyze",
        "grid_on_all_space_analyze", "infinite_bound", "nan_bound_solve",
        "zero_horizon", "negative_horizon", "infinite_horizon",
        "nan_horizon_solve", "zero_builtin_horizon",
        "infinite_builtin_horizon_solve", "nan_sampler_width",
        "misspelt_builtin_param", "fractional_builtin_dimension",
        "zero_builtin_dimension", "two_builtin_horizons",
        "non_numeric_builtin_param", "sigma_under_uniform",
        "center_under_point", "zero_sigma", "gaussian_outside_the_box",
        "negative_hat_width", "zero_hat_width", "zero_dimension",
        "flag_bare_word", "flag_two_numbers", "flag_as_path_count",
        "flag_as_builtin_horizon", "negative_seed",
        "negative_pairing_allowance", "negative_characteristic_allowance",
        "zero_density_l1", "density_time_after_T", "density_time_before_0",
        "two_sigmas_in_1d", "two_widths_in_1d", "index_set_of_separators",
        "density_times_of_separators"])
def test_config_fault_exit_1(tmp_path, capsys, problem, text, command,
                             message):
    if problem is not None:
        (tmp_path / "field.cfg").write_text(problem)
    text += f"out.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, command) == 1
    assert message in _one_error_line(capsys)


def test_negative_seed_flag_ends_at_load(tmp_path, capsys):
    text = TINY_MC + f"out.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, "simulate", "--seed", "-1") == 1
    assert _one_error_line(capsys) == \
        "error: mc.seed = -1: expected 1 integer >= 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["conditions.N", "verify.density.times"])
def test_empty_list_of_numbers_ends_at_load(tmp_path, key):
    # a mapping built in code can hold the empty list that a text file
    # of separators alone no longer yields
    from cordeslab.config import ConfigError, RunConfig
    kv = parse_kv_text(BUILTIN_1D + GRID_1D) | {key: []}
    with pytest.raises(ConfigError, match=re.escape(f"{key} = []: expected")):
        RunConfig.from_mapping(kv, tmp_path)


@pytest.mark.parametrize("command", ["verify", "characteristic"])
def test_point_sampler_refused_before_any_work(tmp_path, capsys,
                                               monkeypatch, command):
    # both commands need the sampler's grid density: a point mass has
    # none, so the command ends before it solves or simulates
    from cordeslab import stochastic
    called = []
    for module, name in [(solver, "solve_backward"),
                         (stochastic, "simulate_paths")]:
        monkeypatch.setattr(module, name,
                            lambda *a, _name=name, **k: called.append(_name))
    (tmp_path / "panel.csv").write_text("t,xi1\n0.0,1.0\n")
    text = (TINY_MC.replace("gaussian\nmc.sampler.sigma = 1.0", "point")
            + "characteristic.panel = panel.csv\n"
            + f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "a.cfg", text, command) == 1
    assert _one_error_line(capsys) == (
        f"error: {command} needs a sampler with a density; "
        f"mc.sampler = point has none\n")
    assert called == []


@pytest.mark.parametrize("command", ["analyze", "solve", "simulate",
                                     "verify"])
def test_faulty_panel_ends_every_command(tmp_path, capsys, command):
    (tmp_path / "panel.csv").write_text("func,t,xi1\n0,0.0,1.0\n0,0.0,2.0\n")
    text = TINY_MC + ("characteristic.panel = panel.csv\n"
                      f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "a.cfg", text, command) == 1
    assert "line 3: time 0 does not follow 0 of func 0" in \
        _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_repeated_index_counts_once(tmp_path):
    # the repeated column was counted twice: nu_hat 1.36 and exit 2
    reports = []
    for index_set in ("1 1", "1"):
        out = tmp_path / index_set.replace(" ", "_")
        text = (BENCH.format(alpha=0.5, beta=0.3, out=out)
                + f"conditions.N = {index_set}\n")
        assert run(tmp_path, "a.cfg", text, "analyze") == 0
        reports.append(json.loads((out / "report.json").read_text())["report"])
    assert reports[0] == reports[1]
    assert reports[0]["N"] == [1] and reports[0]["nu_hat"] < 1.0
    # weights pair with the distinct indices in the order written
    text = (BENCH.format(alpha=0.5, beta=0.3, out=tmp_path / "w")
            + "conditions.N = 3 1 3\nconditions.gamma = 0.5 1.5\n")
    run(tmp_path, "a.cfg", text, "analyze")
    report = json.loads((tmp_path / "w" / "report.json").read_text())
    assert report["report"]["N"] == [1, 3]
    assert report["report"]["gamma"] == [1.5, 0.5]


@pytest.mark.parametrize("bad_file", ["a.cfg", "field.cfg"])
def test_config_parse_fault_names_its_file(tmp_path, capsys, bad_file):
    # the same bad line in the run config or in its problem file
    problem = "n = 1\nT = 1.0\n"
    text = f"problem.file = field.cfg\nout.dir = {tmp_path / 'out'}\n"
    if bad_file == "a.cfg":
        text += "= 5\n"
    else:
        problem += "= 5\n"
    (tmp_path / "field.cfg").write_text(problem)
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    assert _one_error_line(capsys) == (
        f"error: {tmp_path / bad_file}: line 3: empty key\n")


def test_param_and_sampler_keys_are_closed(tmp_path, capsys):
    for key in ("problem.param.note", "mc.sampler.note"):
        text = (f"problem.builtin = manufactured_1d\n{key} = 1\n"
                f"out.dir = {tmp_path / 'out'}\n")
        assert run(tmp_path, "a.cfg", text, "analyze") == 1
        assert f"a.cfg: unknown key {key!r}" in _one_error_line(capsys)


@pytest.mark.parametrize("text, line", [
    ("problem.builtin = nope\n",
     "error: unknown builtin problem 'nope'; choose from checkerboard_2d, "
     "gaussian_free_space, identity_heat, manufactured_1d, paper_3x3\n"),
    ("problem.builtin = paper_3x3\nproblem.param.alpha = 0.5\n",
     "error: builtin problem 'paper_3x3': missing a required argument: "
     "'beta'\n"),
], ids=["unknown_builtin", "missing_builtin_param"])
def test_builtin_fault_prints_its_message(tmp_path, capsys, text, line):
    # the message itself, not the repr of the KeyError that carries it
    text += f"out.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "a.cfg", text, "analyze") == 1
    assert _one_error_line(capsys) == line


# a value for each builtin parameter, none of them its default
BUILTIN_VALUES = {"alpha": 0.5, "beta": 0.3, "low": 1.0, "high": 3.0,
                  "cells": 3, "n": 2, "half_width": 5.0, "T": 0.3}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_builtin_param_loads(tmp_path, name):
    from cordeslab.config import RunConfig
    from cordeslab.fields import builtin_problem, builtin_signature
    params = {key: BUILTIN_VALUES[key]
              for key in builtin_signature(name).parameters}
    text = f"problem.builtin = {name}\n" + "".join(
        f"problem.param.{key} = {value}\n" for key, value in params.items())
    field = RunConfig.from_mapping(parse_kv_text(text), tmp_path).field
    ref = builtin_problem(name, params)
    assert (field.n, field.T, field.domain) == (ref.n, ref.T, ref.domain)
    x = np.random.default_rng(7).uniform(ref.domain.lo, ref.domain.hi,
                                         size=(64, ref.n))
    for t in (0.0, ref.T):
        assert np.array_equal(field.eval_b(x, t), ref.eval_b(x, t))
        assert np.array_equal(field.eval_f(x, t), ref.eval_f(x, t))
        assert (field.beta is None) == (ref.beta is None)
        if ref.beta is not None:
            assert np.array_equal(field.eval_beta(x, t), ref.eval_beta(x, t))


def test_bench_configs_load(tmp_path, monkeypatch):
    from cordeslab.config import RunConfig
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import workloads
    for name in workloads.WORKLOADS:
        spec = workloads.write_inputs(name, 1, tmp_path / name)
        RunConfig.load(spec["config"])


def test_readme_config_examples_load(tmp_path):
    # every ini block of README.md loads as written; a problem file loads
    # through problem.file, and the run config's panel is a 3-D one
    from cordeslab.config import RunConfig
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 2
    (tmp_path / "panel.csv").write_text("t,xi1,xi2,xi3\n0.0,1.0,0.0,0.0\n")
    for k, text in enumerate(blocks):
        # a comment is a line of its own, so no value holds one
        kv = parse_kv_text(text)
        assert not any("#" in str(value) for value in kv.values())
        if "n" in kv:
            (tmp_path / f"field{k}.cfg").write_text(text)
            text = f"problem.file = field{k}.cfg\n"
        (tmp_path / f"run{k}.cfg").write_text(text)
        cfg = RunConfig.load(tmp_path / f"run{k}.cfg")
        assert cfg.field.n == kv.get("n", 3)


def test_theta_validation_exit_1(tmp_path):
    text = ("problem.builtin = manufactured_1d\n"
            "grid.m = 15\ngrid.nt = 8\nscheme.theta = 0.2\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 1


def test_all_space_problem_needs_box_for_grids(tmp_path, capsys):
    (tmp_path / "field.cfg").write_text(
        'n = 1\nT = 0.5\ndomain = all\nb[1][1] = "1"\n')
    text = (f"problem.file = field.cfg\ngrid.m = 15\ngrid.nt = 8\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 1
    assert "wide box" in capsys.readouterr().err


def _reference_solution_csv(path, gf):
    """The per-node ``csv.writer`` loop that fixes solution.csv's format."""
    grid = gf.grid
    is_complex = np.iscomplexobj(gf.values)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"# n={grid.n} m={list(grid.m)} nt={grid.nt} "
                         f"complex={int(is_complex)}"])
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(grid.n)]
                        + ["re", "im"])
        nodes = grid.nodes()
        for k, t in enumerate(grid.times()):
            flat = gf.values[k].ravel()
            for idx in range(len(nodes)):
                writer.writerow([f"{t:.12g}"]
                                + [f"{c:.12g}" for c in nodes[idx]]
                                + [f"{flat[idx].real:.12g}",
                                   f"{np.imag(flat[idx]):.12g}"])


def _streamed_solution_csv(path, grid, levels):
    """solution.csv through the one writer, ``levels[k]`` sent in march
    order, ``nt`` down to 0."""
    from cordeslab.cli import _SolutionWriter
    with _SolutionWriter(path, grid, grid.times()) as out:
        for k in range(grid.nt, -1, -1):
            out.level(k, levels[k])
        out.finish()


def test_solution_csv_bytes_match_reference_writer(tmp_path):
    rng = np.random.default_rng(5)
    special = [-0.0, 1e-300, -1e-300, 0.1234567890123456, 1 / 3,
               -2.718281828459045e-7, 123456789012.345, 0.0]
    g2 = build_grid(Box((0.0, -1.0), (1.0, 1.0)), (5, 7), 3, 0.3)
    real = rng.standard_normal((g2.nt + 1,) + g2.shape)
    real.flat[:len(special)] = special
    g1 = build_grid(Box((-8.0,), (8.0,)), 9, 4, 0.25)
    cplx = rng.standard_normal(g1.shape) + 1j * rng.standard_normal(g1.shape)
    cplx[:4] = [complex(-0.0, -0.0), complex(1e-300, -0.0),
                complex(0.0, 1 / 3), complex(np.pi, -1e-300)]
    for gf in (GridFunction(g2, real),
               GridFunction(g1, np.stack([cplx] * (g1.nt + 1)))):
        _streamed_solution_csv(tmp_path / "got.csv", gf.grid, gf.values)
        _reference_solution_csv(tmp_path / "want.csv", gf)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()
    # a march that turns complex at level 1: its real levels print "re,0",
    # as the block widened to complex prints them
    turned = real.astype(complex)
    turned[:2] += 1j * rng.standard_normal((2,) + g2.shape)
    _streamed_solution_csv(tmp_path / "got.csv", g2,
                           [turned[k] if k < 2 else real[k]
                            for k in range(g2.nt + 1)])
    _reference_solution_csv(tmp_path / "want.csv", GridFunction(g2, turned))
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def _reference_error_table(path, grid, num, exact):
    """The per-node ``csv.writer`` loop that fixes error_table.csv's format."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{i + 1}" for i in range(grid.n)]
                        + ["numeric_t0", "exact_t0", "abs_err"])
        for idx, node in enumerate(grid.nodes()):
            writer.writerow([f"{c:.12g}" for c in node]
                            + [f"{num[idx].real:.12g}", f"{exact[idx]:.12g}",
                               f"{np.abs(num[idx] - exact[idx]):.3e}"])


def test_csv_writers_match_reference_writers_on_edge_values(tmp_path):
    from types import SimpleNamespace
    from cordeslab.cli import _error_table
    edge = np.array([0.0, -0.0, 1e16, 1e-5, 123456789012.5, 5e-324])
    g2 = build_grid(Box((0.0, -1.0), (1.0, 1.0)), (3, 4), 2, 0.3)
    real = np.resize(np.concatenate([edge, -edge]), (g2.nt + 1,) + g2.shape)
    cplx = real + 1j * np.roll(real, 1)
    exact = np.resize(edge[::-1], g2.shape).ravel()

    class Exact:
        @staticmethod
        def eval_raw(x, t):
            return exact.copy()
    for gf in (GridFunction(g2, real), GridFunction(g2, cplx)):
        _streamed_solution_csv(tmp_path / "got.csv", g2, gf.values)
        _reference_solution_csv(tmp_path / "want.csv", gf)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()
        cfg = SimpleNamespace(exact=Exact, out_dir=tmp_path / "got")
        _error_table(cfg, g2, SimpleNamespace(v=gf))
        _reference_error_table(tmp_path / "want.csv", g2,
                               gf.values[0].ravel(), exact)
        assert (tmp_path / "got" / "error_table.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()
    # the march turns complex at level 1
    turned = cplx.copy()
    turned[2:] = real[2:]
    _streamed_solution_csv(tmp_path / "got.csv", g2,
                           [cplx[k] if k < 2 else real[k]
                            for k in range(g2.nt + 1)])
    _reference_solution_csv(tmp_path / "want.csv", GridFunction(g2, turned))
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_verify_solves_the_backward_problem_once(tmp_path, monkeypatch):
    solves = []
    direct = solver.solve_backward

    def counted(*args, **kwargs):
        solves.append(args[1])
        return direct(*args, **kwargs)
    monkeypatch.setattr(solver, "solve_backward", counted)
    text = ("problem.builtin = gaussian_free_space\n"
            "problem.param.n = 1\nproblem.param.half_width = 6\n"
            "problem.param.T = 0.1\n"
            "grid.m = 63\ngrid.nt = 16\n"
            'solve.Phi = "x1^2"\n'
            "mc.M = 2000\nmc.dt = 0.002\nmc.seed = 1\n"
            "mc.sampler = gaussian\nmc.sampler.sigma = 1.0\n"
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "v.cfg", text, "verify") == 0
    assert len(solves) == 1
    checks = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert checks["checks"]["max_principle"]["verdict"] == "pass"


def test_non_finite_solution_exit_1(tmp_path, capsys, recwarn, writers):
    # the source overflows to inf (nan at x1 = 0) on every level; stderr
    # holds the one error line, and no numpy warning (which pytest would
    # record instead of printing) is raised
    text = ("problem.builtin = manufactured_1d\ngrid.m = 15\ngrid.nt = 8\n"
            'solve.phi = "exp(700)*exp(700)*x1"\n'
            f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "s.cfg", text, "solve") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "non-finite at time level 7" in err[0]
    assert not recwarn.list
    assert not (tmp_path / "out" / "solution.csv").exists()
    _nothing_left(tmp_path / "out", writers)


SMALL_SOLVE = ("problem.builtin = identity_heat\nproblem.param.n = 2\n"
               "grid.m = 31\ngrid.nt = 16\n"
               'solve.phi = "sin(3*x1)*sin(2*x2)*exp(-t)"\n')


@pytest.mark.parametrize("fault", ["exit", "killed", "directory", "late"])
def test_writer_fault_is_one_line_and_leaves_nothing(tmp_path, monkeypatch,
                                                      capsys, writers, fault):
    import cordeslab.cli as cli
    out = tmp_path / "out"
    if fault == "exit":         # a helper that exits with code 3
        stub = tmp_path / "stub.py"
        stub.write_text("import sys\nsys.stdin.buffer.read()\nsys.exit(3)\n")
        monkeypatch.setattr(cli._SolutionWriter, "helper", str(stub))
    if fault == "killed":       # dies after the first level: a broken pipe
        level = cli._SolutionWriter.level

        def killing(self, k, values):
            level(self, k, values)
            self._proc.kill()
            self._proc.wait()
        monkeypatch.setattr(cli._SolutionWriter, "level", killing)
    if fault == "directory":    # cannot write in the output directory
        (out / "solution.csv.part").mkdir(parents=True)
    if fault == "late":         # cannot write solution.csv itself
        (out / "solution.csv").mkdir(parents=True)
    assert run(tmp_path, "s.cfg", SMALL_SOLVE + f"out.dir = {out}\n",
               "solve") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write {out / 'solution.csv'}: ")
    assert {"exit": "the writer exited with code 3",
            "killed": "the writer stopped on signal 9",
            "directory": "IsADirectoryError",
            "late": "IsADirectoryError"}[fault] in err[0]
    _nothing_left(out, writers)
    assert not (out / "norms.json").exists()


def test_interrupted_solve_leaves_nothing(tmp_path, monkeypatch, writers):
    import cordeslab.cli as cli
    level = cli._SolutionWriter.level

    def interrupted(self, k, values):
        if k < 12:
            raise KeyboardInterrupt
        level(self, k, values)
    monkeypatch.setattr(cli._SolutionWriter, "level", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        run(tmp_path, "s.cfg", SMALL_SOLVE + f"out.dir = {out}\n", "solve")
    _nothing_left(out, writers)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no affinity interface on this platform")
def test_solve_on_one_core_writes_the_same_bytes(tmp_path):
    import cordeslab
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SMALL_SOLVE + "out.dir = out\n")
    assert main(["solve", "--config", str(cfg), "--out",
                 str(tmp_path / "all")]) == 0
    # the command and its helper share one core
    code = ("import os, sys\n"
            f"os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
            "from cordeslab.cli import main\n"
            "from cordeslab.solver import _usable_cores\n"
            "assert _usable_cores() == 1\n"
            "sys.exit(main(sys.argv[1:]))\n")
    subprocess.run([sys.executable, "-c", code, "solve", "--config", str(cfg),
                    "--out", str(tmp_path / "one")], check=True,
                   env=dict(os.environ, PYTHONPATH=str(
                       Path(cordeslab.__file__).parents[1])))
    for name in ("solution.csv", "norms.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "all" / name).read_bytes()


def test_verify_simulates_its_ensemble_once(tmp_path, monkeypatch):
    import cordeslab.stochastic as stochastic
    runs = []
    simulate = stochastic.simulate_paths

    def counted(*args, **kwargs):
        runs.append(args)
        return simulate(*args, **kwargs)
    monkeypatch.setattr(stochastic, "simulate_paths", counted)
    text = TINY_MC + ('solve.Phi = "x1^2"\nsolve.phi = "1"\n'
                      "verify.density.times = 0.05\n"
                      f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "v.cfg", text, "verify") in (0, 2)
    assert len(runs) == 1
    checks = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert checks["checks"]["pairing"]["ensemble"]["M"] == 400
    assert len(checks["checks"]["density"]) == 1


def test_verify_computes_no_norms_of_the_adjoint_density(tmp_path,
                                                         monkeypatch):
    # the backward solution's bundle and apriori_ratio's norm of Phi; the
    # adjoint density of the density check carries none (three calls when
    # it did)
    calls = []
    norms = solver.discrete_norms
    monkeypatch.setattr(solver, "discrete_norms",
                        lambda *a, **k: calls.append(a) or norms(*a, **k))
    text = TINY_MC + ('solve.Phi = "x1^2"\nsolve.phi = "1"\n'
                      "verify.density.times = 0.05\n"
                      f"out.dir = {tmp_path / 'out'}\n")
    assert run(tmp_path, "v.cfg", text, "verify") in (0, 2)
    checks = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert len(checks["checks"]["density"]) == 1
    assert len(calls) == 2


def test_negative_seed_exit_1(tmp_path, capsys):
    text = TINY_MC + f"out.dir = {tmp_path / 'out'}\n"
    assert run(tmp_path, "s.cfg", text, "simulate", "--seed", "-1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
