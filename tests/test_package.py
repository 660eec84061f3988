"""The package's exports and the modules each kind of run loads.

A run without a grid solves nothing, so it must start on numpy alone:
scipy loads with the solver, for a config with grid keys, and
``scipy.special`` with the Gaussian sampler.  Each load check runs in a
fresh interpreter, since the suite itself has every module loaded."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cordeslab

# every name that cordeslab/__init__.py exports, by the module it comes from
EXPORTS = {
    "conditions": ["ConditionReport", "Verdict", "check_classical",
                   "check_split_condition", "ellipticity_delta",
                   "full_report", "nu_hat", "optimize_gamma",
                   "select_index_set", "symmetric_eigenvalues"],
    "expr": ["ExprEvalError", "ExprSyntaxError", "parse_expression"],
    "fields": ["Box", "CoefficientField", "Decomposition", "MollifiedField",
               "SampleSet", "builtin_problem", "decompose", "eval_field",
               "make_field", "mollify", "sample_set"],
    "grid": ["Grid", "GridFunction", "NormBundle", "NormWeights",
             "apply_stencil", "build_grid", "discrete_norms", "pair"],
    "solver": ["BackwardProblem", "DiscreteSolution", "FixedPointTrace",
               "apriori_ratio", "assemble_operator", "assemble_step",
               "estimate_R_norm", "fixed_point_solve", "solve_backward",
               "solve_forward_adjoint"],
    "stochastic": ["SDE", "Estimate", "HatSampler", "PathEnsemble",
                   "PointSampler", "TruncatedGaussianSampler",
                   "UniformBoxSampler", "characteristic_functional",
                   "density_compare", "feynman_kac", "max_principle_check",
                   "simulate_paths", "verify_pairing"],
}
NAMES = [(module, name) for module, names in EXPORTS.items()
         for name in names]

NO_GRID = ("problem.builtin = manufactured_1d\n"
           "conditions.samples.space = 3\nconditions.samples.time = 2\n"
           "mc.M = 64\nmc.dt = 0.05\nmc.seed = 1\n")


@pytest.mark.parametrize("module, name", NAMES,
                         ids=[name for _, name in NAMES])
def test_every_export_is_the_object_of_its_module(module, name):
    own = getattr(importlib.import_module(f"cordeslab.{module}"), name)
    star: dict = {}
    exec("from cordeslab import *", star)
    single: dict = {}
    exec(f"from cordeslab import {name}", single)
    assert getattr(cordeslab, name) is own
    assert single[name] is own
    assert star[name] is own
    assert name in dir(cordeslab) and name in cordeslab.__all__


def test_all_holds_the_exports_alone():
    assert sorted(cordeslab.__all__) == sorted(name for _, name in NAMES)
    with pytest.raises(AttributeError, match="no attribute 'solve'"):
        cordeslab.solve


def _fresh(tmp_path, code: str, config: str | None = None) -> list:
    """The names in ``sys.modules`` after ``code`` ran in a fresh
    interpreter, with ``config`` written to ``CFG`` beside an ``OUT``
    directory."""
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    script = ("import sys\n"
              f"CFG, OUT = {str(cfg)!r}, {str(tmp_path / 'out')!r}\n"
              + code + "\nprint('\\n'.join(sorted(sys.modules)))\n")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=tmp_path, check=True, env=dict(
            os.environ, PYTHONPATH=str(Path(cordeslab.__file__).parents[1])))
    return done.stdout.split()


def _scipy(modules) -> list:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


RUN = ("from cordeslab.cli import main\n"
       "assert main([{command!r}, '--config', CFG, '--out', OUT]) in (0, 2)")


@pytest.mark.parametrize("command, sampler", [
    ("simulate", "mc.sampler = point\nmc.sampler.at = 0.5\n"),
    ("simulate", "mc.sampler = uniform\n"),
    ("analyze", ""),
], ids=["simulate_point", "simulate_uniform", "analyze"])
def test_a_run_without_a_grid_loads_no_scipy(tmp_path, command, sampler):
    modules = _fresh(tmp_path, RUN.format(command=command), NO_GRID + sampler)
    assert (tmp_path / "out").is_dir()
    assert _scipy(modules) == []
    assert "cordeslab.solver" not in modules


def test_the_package_loads_no_scipy_until_a_solver_name_is_read(tmp_path):
    before = _fresh(tmp_path, "import cordeslab")
    assert _scipy(before) == [] and "cordeslab.solver" not in before
    for code in ("from cordeslab import solve_backward",
                 "import cordeslab\ncordeslab.solver.solve_backward"):
        after = _fresh(tmp_path, code)
        assert "cordeslab.solver" in after and "scipy.sparse.linalg" in after


def test_a_config_with_a_grid_loads_the_solver(tmp_path):
    modules = _fresh(tmp_path,
                     "from cordeslab.config import RunConfig\n"
                     "cfg = RunConfig.load(CFG)\n"
                     "assert cfg.problem.field is cfg.field",
                     NO_GRID + "grid.m = 7\ngrid.nt = 4\n")
    assert "cordeslab.solver" in modules
    assert "scipy.sparse.linalg" in modules


def test_the_gaussian_sampler_loads_scipy_special(tmp_path):
    modules = _fresh(tmp_path,
                     "from cordeslab.config import RunConfig\n"
                     "RunConfig.load(CFG)",
                     NO_GRID + "mc.sampler = gaussian\n")
    assert "scipy.special" in modules
    assert "cordeslab.solver" not in modules
