import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from cordeslab import solver
from cordeslab.fields import (Box, builtin_problem, builtin_solve_data,
                              decompose, make_field)
from cordeslab.grid import NormWeights, build_grid, discrete_norms
from cordeslab.solver import (BackwardProblem, apriori_ratio, assemble_operator,
                              assemble_step, estimate_R_norm, fixed_point_solve,
                              solve_backward, solve_forward_adjoint, _Stepper)

RNG = np.random.default_rng(1234)


def dot_h(a, b, grid):
    return complex(np.sum(np.asarray(a) * np.conj(np.asarray(b)))
                   * grid.cell_volume)


def manufactured():
    f = builtin_problem("manufactured_1d", {})
    phi, Phi, exact = builtin_solve_data("manufactured_1d", f.T)
    return f, phi, Phi, exact


# ----------------------------------------------------------------------------
# assembly


def test_implicit_heat_stencil_rows():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 5, nt=4, T=1.0)
    B, C, phi_bar = assemble_step(BackwardProblem(f), g, t=0.5, theta=1.0)
    dt, h = g.dt, g.h[0]
    row = B.toarray()[2]
    assert row[2] == pytest.approx(1 + 2 * dt / h ** 2)
    assert row[1] == pytest.approx(-dt / h ** 2)
    assert row[3] == pytest.approx(-dt / h ** 2)
    assert np.all(C.toarray() == np.eye(5))
    assert np.all(phi_bar == 0)


def test_constant_rate_shifts_diagonal():
    f0 = builtin_problem("identity_heat", {"n": 1})
    f5 = make_field(1, 1.0, f0.domain, [[1.0]], lam=5.0)
    g = build_grid(f0.domain, 5, nt=4, T=1.0)
    B0, _, _ = assemble_step(BackwardProblem(f0), g, 0.25, 1.0)
    B5, _, _ = assemble_step(BackwardProblem(f5), g, 0.25, 1.0)
    shift = (B5 - B0).toarray()
    assert np.allclose(shift, g.dt * 5.0 * np.eye(5))


def test_assembled_operator_matches_analytic_on_polynomial():
    # A(x1*x2) = 2*b12 + f1*x2 + f2*x1 - lam*x1*x2 away from the boundary
    f = make_field(2, 1.0, Box((0.0, 0.0), (1.0, 1.0)),
                   [[1.0, 0.3], [0.3, 1.0]], f=[0.2, -0.1], lam=0.7)
    g = build_grid(f.domain, (9, 9), nt=2, T=1.0)
    A = assemble_operator(BackwardProblem(f), g, t=0.0)
    pts = g.nodes()
    u = (pts[:, 0] * pts[:, 1])
    got = (A @ u).reshape(g.shape)
    exact = (2 * 0.3 + 0.2 * pts[:, 1] - 0.1 * pts[:, 0]
             - 0.7 * pts[:, 0] * pts[:, 1]).reshape(g.shape)
    assert np.abs(got[1:-1, 1:-1] - exact[1:-1, 1:-1]).max() <= 1e-11


def test_theta_validation():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 5, nt=4, T=1.0)
    with pytest.raises(ValueError):
        assemble_step(BackwardProblem(f), g, 0.0, theta=0.3)


# ----------------------------------------------------------------------------
# backward solve


def test_zero_data_zero_solution():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, nt=8, T=1.0)
    sol = solve_backward(BackwardProblem(f), g)
    assert np.all(sol.v.values == 0.0)


def test_terminal_slice_is_sampled_datum():
    f, phi, Phi, _ = manufactured()
    g = build_grid(f.domain, 31, nt=16, T=f.T)
    sol = solve_backward(BackwardProblem(f, phi=phi, Phi=Phi), g)
    assert np.array_equal(sol.v.values[-1],
                          Phi.eval_raw(g.nodes(), f.T).reshape(g.shape))


def test_manufactured_solution_error():
    f, phi, Phi, exact = manufactured()
    g = build_grid(f.domain, 127, nt=256, T=f.T)
    sol = solve_backward(BackwardProblem(f, phi=phi, Phi=Phi), g)
    nodes = g.nodes()
    worst = max(np.abs(sol.v.values[k] - exact.eval_raw(nodes, t)).max()
                for k, t in enumerate(g.times()))
    assert worst <= 2e-3


def test_spatial_convergence_order():
    f, phi, Phi, exact = manufactured()
    errs = []
    for m, nt in ((63, 64), (127, 256), (255, 1024)):
        g = build_grid(f.domain, m, nt, f.T)
        sol = solve_backward(BackwardProblem(f, phi=phi, Phi=Phi), g)
        nodes = g.nodes()
        errs.append(max(np.abs(sol.v.values[k] - exact.eval_raw(nodes, t)).max()
                        for k, t in enumerate(g.times())))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), (errs, orders)


def test_linearity_of_solver():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 21, nt=10, T=1.0)
    phi1 = RNG.standard_normal((g.nt + 1,) + g.shape)
    phi2 = RNG.standard_normal((g.nt + 1,) + g.shape)
    Phi1 = RNG.standard_normal(g.shape)
    Phi2 = RNG.standard_normal(g.shape)
    a, b = 1.3, -0.7
    va = solve_backward(BackwardProblem(f, phi1, Phi1), g).v.values
    vb = solve_backward(BackwardProblem(f, phi2, Phi2), g).v.values
    vc = solve_backward(BackwardProblem(f, a * phi1 + b * phi2,
                                        a * Phi1 + b * Phi2), g).v.values
    combo = a * va + b * vb
    assert np.abs(vc - combo).max() <= 1e-9 * max(1.0, np.abs(combo).max())


def test_imaginary_rate_rotates_phase_only():
    # single spatial mode: the discrete system has the closed form
    # c_k = c_{k+1} / (1 + dt*(mu_h + i*c)), so the modulus matches the
    # real-rate solution up to O((c*dt)^2) per step
    c = 2.0
    f0 = builtin_problem("identity_heat", {"n": 1})
    fc = make_field(1, 1.0, f0.domain, [[1.0]], lam=complex(0.0, c))
    g = build_grid(f0.domain, 63, nt=250, T=0.25)
    Phi = lambda x: np.sin(np.pi * x[:, 0])
    v0 = solve_backward(BackwardProblem(f0, Phi=Phi), g).v.values
    vc = solve_backward(BackwardProblem(fc, Phi=Phi), g).v.values
    assert np.iscomplexobj(vc)
    # exact one-mode recursion oracle
    mu = (2 - 2 * np.cos(np.pi * g.h[0])) / g.h[0] ** 2
    coef = np.ones(1, dtype=complex)
    phim = np.sin(np.pi * g.nodes()[:, 0])
    expect = np.empty((g.nt + 1,) + g.shape, dtype=complex)
    expect[g.nt] = phim
    cval = 1.0 + 0j
    for k in range(g.nt - 1, -1, -1):
        cval = cval / (1 + g.dt * (mu + 1j * c))
        expect[k] = cval * phim
    assert np.abs(vc - expect).max() <= 1e-10
    assert np.abs(np.abs(vc) - np.abs(v0)).max() <= 2e-3 * np.abs(v0).max()


def test_iterative_path_matches_direct_factorization():
    # a rate override marks the operator time-dependent, so every level
    # but the first runs through BiCGStab preconditioned with the lagged
    # factorization
    f = builtin_problem("identity_heat", {"n": 3})
    g = build_grid(f.domain, (13, 13, 13), 6, 0.2)
    Phi = lambda x: np.prod(np.sin(np.pi * x), axis=1)
    lam_const = np.full(g.shape, 0.7)
    prob_iter = BackwardProblem(f, Phi=Phi, lambda_override=lam_const)
    f_direct = make_field(3, 1.0, f.domain,
                          [[1.0 if i == j else 0.0 for j in range(3)]
                           for i in range(3)], lam=0.7)
    prob_direct = BackwardProblem(f_direct, Phi=Phi)
    v_iter = solve_backward(prob_iter, g).v.values
    v_direct = solve_backward(prob_direct, g).v.values
    assert np.abs(v_iter - v_direct).max() <= 1e-8


# ----------------------------------------------------------------------------
# step-solve policy: one factorization per march, lagged reuse


@pytest.fixture
def solve_counts(monkeypatch):
    """Counts of ``splu`` and ``bicgstab`` calls made by the solver."""
    counts = {"splu": 0, "bicgstab": 0}

    def counted(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(solver, name, wrapper)
    counted("splu")
    counted("bicgstab")
    return counts


def _step_sequence(g, scales):
    """Implicit step matrices ``I - dt*A_k`` of a 2-D operator whose
    ``b11`` is multiplied by ``scales[k]`` on level ``k``."""
    n_nodes = g.size
    x = g.nodes()
    out = []
    for s in scales:
        b = np.zeros((n_nodes, 2, 2))
        b[:, 0, 0] = s * (1.0 + 0.3 * np.sin(3.0 * x[:, 1]))
        b[:, 1, 1] = 1.0 + 0.5 * (x[:, 0] > 0.5)
        b[:, 0, 1] = b[:, 1, 0] = 0.1
        f = np.stack([0.3 * x[:, 1], np.full(n_nodes, -0.2)], axis=1)
        A = solver._assemble_from_arrays(g, b, f, np.full(n_nodes, 0.5),
                                         float)
        out.append(solver._step_matrices(A, g.dt, 1.0)[0])
    return out


def _march_against_fresh_lu(steps, rhs0, adjoint=False):
    """March ``steps`` with one ``_StepSolver``; return the worst relative
    gap of a level to a fresh ``splu`` solve of the same system."""
    step_solver = solver._StepSolver()
    x = rhs0
    worst = 0.0
    for B in steps:
        got = step_solver.solve(B, x, x, adjoint=adjoint)
        fresh = splu(B.tocsc()).solve(x, trans="T" if adjoint else "N")
        worst = max(worst, np.linalg.norm(got - fresh)
                    / np.linalg.norm(fresh))
        x = got
    return worst


def test_static_operator_factorizes_once_without_krylov(solve_counts):
    f = make_field(2, 0.5, Box((0, 0), (1, 1)),
                   [["1.2 + 0.2*sin(3.0*x1)", 0.1],
                    [0.1, "1.0 + 0.3*step(x2 - 0.5)"]],
                   f=["0.2*x2", "-0.1"], lam=0.4)
    g = build_grid(f.domain, (15, 13), 12, f.T)
    prob = BackwardProblem(f, phi=lambda x, t: np.ones(len(x)),
                           Phi=lambda x: np.sin(np.pi * x[:, 0]))
    sol = solve_backward(prob, g)
    solve_forward_adjoint(np.ones(g.shape), prob, g)
    assert solve_counts == {"splu": 2, "bicgstab": 0}  # one per march
    assert np.isfinite(sol.v.values).all()


@pytest.mark.parametrize("adjoint", [False, True])
def test_slowly_varying_levels_reuse_one_factorization(solve_counts,
                                                       adjoint):
    g = build_grid(Box((0, 0), (1, 1)), (31, 29), 16, 0.25)
    steps = _step_sequence(g, 1.0 + 0.02 * np.arange(g.nt))
    rhs0 = np.sin(np.pi * g.nodes()[:, 0]) + 0.1 * g.nodes()[:, 1]
    worst = _march_against_fresh_lu(steps, rhs0, adjoint)
    assert solve_counts["splu"] == 1
    assert solve_counts["bicgstab"] == g.nt - 1
    assert worst <= 1e-9


def test_coefficient_jump_refactorizes_and_stays_exact(solve_counts):
    g = build_grid(Box((0, 0), (1, 1)), (31, 29), 8, 0.25)
    scales = [1.0, 1.01, 1.02, 100.0, 100.5, 101.0, 101.5, 102.0]
    steps = _step_sequence(g, scales)
    rhs0 = np.sin(np.pi * g.nodes()[:, 0])
    worst = _march_against_fresh_lu(steps, rhs0)
    # the jump defeats the iteration cap: one more factorization, and
    # the levels after it reuse the new one
    assert solve_counts["splu"] == 2
    assert solve_counts["bicgstab"] == g.nt - 1
    assert worst <= 1e-9


@pytest.fixture
def lu_counts(monkeypatch):
    """Counts of ``splu`` factorizations and of LU applications
    (``solve`` calls on a factor) made by the solver."""
    counts = {"splu": 0, "lu_solve": 0}

    class Counted:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, *args, **kwargs):
            counts["lu_solve"] += 1
            return self._lu.solve(*args, **kwargs)

    def counted(*args, **kwargs):
        counts["splu"] += 1
        return Counted(splu(*args, **kwargs))
    monkeypatch.setattr(solver, "splu", counted)
    return counts


def test_extrapolated_start_bounds_the_lu_applications(lu_counts):
    # the moving b22 jump of the solve_timedep_2d benchmark with its
    # manufactured u = exp(-t) sin(pi x1) sin(pi x2), smooth in time.
    # Started from the previous level the march made 275 LU applications
    # on this grid; from the extrapolated level it makes 132.
    f = make_field(2, 0.25, Box((0, 0), (1, 1)),
                   [["1 + 0.3*sin(3*x2 + 2*t)", "0.1*sin(x1 + x2)"],
                    ["0.1*sin(x1 + x2)", "1 + 0.6*step(x1 - 0.4 - 0.4*t)"]],
                   f=["0.3*x2", "-0.2"], lam="0.5 + t")
    pi = np.pi

    def u(x, t):
        return np.exp(-t) * np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1])

    def phi(x, t):      # -(u_t + A u), with u_t = -u
        x1, x2 = x[:, 0], x[:, 1]
        s1, s2 = np.sin(pi * x1), np.sin(pi * x2)
        c1, c2 = np.cos(pi * x1), np.cos(pi * x2)
        b11 = 1 + 0.3 * np.sin(3 * x2 + 2 * t)
        b12 = 0.1 * np.sin(x1 + x2)
        b22 = 1 + 0.6 * (x1 - 0.4 - 0.4 * t >= 0)
        Au = np.exp(-t) * (-pi ** 2 * (b11 + b22) * s1 * s2
                           + 2 * pi ** 2 * b12 * c1 * c2
                           + 0.3 * x2 * pi * c1 * s2 - 0.2 * pi * s1 * c2
                           - (0.5 + t) * s1 * s2)
        return u(x, t) - Au
    g = build_grid(f.domain, 63, 48, f.T)
    sol = solve_backward(BackwardProblem(f, phi=phi, Phi=lambda x: u(x, f.T)),
                         g)
    assert lu_counts["splu"] == 1
    assert lu_counts["lu_solve"] <= 150
    err = max(np.abs(sol.v.values[k].ravel() - u(g.nodes(), t)).max()
              for k, t in enumerate(g.times()))
    assert err <= 5e-4


def test_step_factor_has_less_fill_than_a_column_order():
    # the rough static 3-D field of the proof-mirror benchmark at 17^3
    b12, b13 = "0.1*step(x3)*sign(x2)", "0.05*sin(4*x2)*step(x1)"
    f = make_field(3, 0.25, Box((-1,) * 3, (1,) * 3),
                   [["1 + 0.2*sign(x1) + 0.05*sin(3*x3)", b12, b13],
                    [b12, "1 - 0.15*step(x2 - 0.25)", 0], [b13, 0, 1]],
                   f=["0.5*sign(x2)", "0.3*sin(2*x1)", "-0.2*step(x3)"],
                   lam="1 + 0.5*sin(x1*x2) + 0.5*step(x3 - 0.2)")
    g = build_grid(f.domain, 17, 48, f.T)
    prob = BackwardProblem(f)
    B, _ = _Stepper(g, 1.0, lambda t: prob.coefficients(g, t),
                    False).system(0)
    step_solver = solver._StepSolver()
    rhs = np.sin(np.pi * g.nodes()[:, 0]) + g.nodes()[:, 2]
    x = step_solver.solve(B, rhs, rhs)
    assert np.linalg.norm(B @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    lu, colamd = step_solver._lu, splu(B.tocsc(), permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz <= 0.7 * (colamd.L.nnz + colamd.U.nnz)


def test_fixed_pattern_assembly_matches_stencil():
    f = make_field(2, 0.5, Box((0, 0), (1, 1)),
                   [["1.2 + 0.2*sin(3.0*x1)", "0.1*x2"],
                    ["0.1*x2", "1.0 + 0.3*step(x2 - 0.5)"]],
                   f=["0.2*x2", "0"], lam=(0.4, "x1"))
    g = build_grid(f.domain, (5, 4), 4, f.T)
    b, fv, lam = BackwardProblem(f).coefficients(g, 0.1)
    A = solver._assemble_from_arrays(g, b, fv, lam, complex)
    # the stencil, node by node
    h = g.h
    m = g.shape
    dense = np.zeros((g.size, g.size), dtype=complex)
    for r, idx in enumerate(np.ndindex(*m)):
        diag = -complex(lam[r])
        for i in range(2):
            diag = diag - 2.0 * b[r, i, i] / h[i] ** 2
            for step, sgn in ((1, 1.0), (-1, -1.0)):
                nb = list(idx)
                nb[i] += step
                if 0 <= nb[i] < m[i]:
                    dense[r, np.ravel_multi_index(nb, m)] = \
                        b[r, i, i] / h[i] ** 2 + sgn * fv[r, i] / (2 * h[i])
        cc = 2.0 * b[r, 0, 1] / (4.0 * h[0] * h[1])
        for si, sj in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            nb = (idx[0] + si, idx[1] + sj)
            if 0 <= nb[0] < m[0] and 0 <= nb[1] < m[1]:
                dense[r, np.ravel_multi_index(nb, m)] = si * sj * cc
        dense[r, r] = diag
    assert np.array_equal(A.toarray(), dense)
    # step matrices equal scipy's sparse sums, exact zeros dropped
    for theta in (1.0, 0.5):
        B, C = solver._step_matrices(A, g.dt, theta)
        eye = sparse.identity(g.size, dtype=complex, format="csr")
        assert (B - (eye - theta * g.dt * A)).nnz == 0
        assert np.array_equal(B.toarray(),
                              (eye - theta * g.dt * A).toarray())
        assert B.data.all()
        if theta < 1.0:
            assert np.array_equal(
                C.toarray(), (eye + (1.0 - theta) * g.dt * A).toarray())


# ----------------------------------------------------------------------------
# forward adjoint


def test_adjoint_zero_density():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, nt=6, T=1.0)
    adj = solve_forward_adjoint(np.zeros(g.shape), BackwardProblem(f), g)
    assert np.all(adj.v.values == 0.0)


def test_adjoint_mass_conservation_wide_box():
    f = builtin_problem("gaussian_free_space", {"n": 1, "half_width": 6.0,
                                                "T": 0.3})
    g = build_grid(f.domain, 199, nt=60, T=f.T)
    x = g.axis_nodes(0)
    rho = np.clip(1 - np.abs(x) / 0.4, 0, None)
    rho /= rho.sum() * g.cell_volume
    adj = solve_forward_adjoint(rho, BackwardProblem(f), g)
    masses = adj.v.values.sum(axis=1) * g.cell_volume
    assert np.abs(masses - 1.0).max() <= 1e-3


def test_adjoint_killing_rate_mass_decay():
    c = 0.8
    f = make_field(1, 0.3, Box((-6.0,), (6.0,)), [[1.0]], lam=c)
    g = build_grid(f.domain, 199, nt=240, T=f.T)
    x = g.axis_nodes(0)
    rho = np.clip(1 - np.abs(x) / 0.4, 0, None)
    rho /= rho.sum() * g.cell_volume
    adj = solve_forward_adjoint(rho, BackwardProblem(f), g)
    masses = adj.v.values.sum(axis=1) * g.cell_volume
    times = g.times()
    # the k-th slice carries k+1 implicit factors; compare at shifted times
    expect = np.exp(-c * np.minimum(times + g.dt, f.T))
    assert np.abs(masses - expect).max() <= 2e-3


def test_adjoint_warns_on_signed_density():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, nt=4, T=1.0)
    rho = -np.ones(g.shape)
    with pytest.warns(RuntimeWarning):
        solve_forward_adjoint(rho, BackwardProblem(f), g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adjoint_rejects_a_non_finite_density(bad):
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, nt=4, T=1.0)
    rho = np.ones(g.shape)
    rho[7] = bad
    with pytest.raises(ValueError, match="density has non-finite values"):
        solve_forward_adjoint(rho, BackwardProblem(f), g)


def _march(prob, g, adjoint, theta=1.0):
    """The backward solution, or the adjoint one with ``prob.Phi`` as the
    density."""
    if adjoint:
        return solve_forward_adjoint(prob.Phi, prob, g, theta).v.values
    return solve_backward(prob, g, theta).v.values


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e300])
@pytest.mark.parametrize("adjoint", [False, True])
def test_huge_finite_data_solve_as_on_a_static_operator(adjoint, scale):
    # the norm of the lagged solve's right-hand side overflows, so those
    # levels go to the direct LU and the moving operator gives the
    # static one's bits; no overflow warning is raised on the way
    f = make_field(1, 1.0, Box((0,), (1,)), [[1.0]], lam=-40.0)
    g = build_grid(f.domain, 15, nt=6, T=f.T)
    data = np.full(g.shape, scale)
    moving = BackwardProblem(f, Phi=data, lambda_override=lambda x, t:
                             np.full(len(x), -40.0))
    static = _march(BackwardProblem(f, Phi=data), g, adjoint)
    assert moving.operator_time_dependent and np.isfinite(static).all()
    assert np.array_equal(_march(moving, g, adjoint), static)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("adjoint", [False, True])
def test_march_names_its_non_finite_level(adjoint):
    # an infinite rate in the step onto level 3 (theta = 0.5 freezes it
    # at t = 3.5 dt) makes C_3 infinite: the backward march carries that
    # into v_3, the adjoint into q_4 and so into p_4; no numpy warning
    # comes before the error
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, nt=6, T=1.0)

    def rate(x, t):
        return np.full(len(x), np.inf if abs(t - 3.5 * g.dt) < 1e-9 else 0.5)
    prob = BackwardProblem(f, Phi=np.ones(g.shape), lambda_override=rate)
    level = 4 if adjoint else 3
    with pytest.raises(solver.SolverError, match=f"time level {level} "):
        _march(prob, g, adjoint, theta=0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("adjoint", [False, True])
def test_step_rejects_non_finite_coefficients(monkeypatch, bad, theta,
                                              adjoint):
    # a rate that is bad only where the step between levels 2 and 3 is
    # frozen stops either march there, before that step is assembled
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, nt=6, T=1.0)
    t_bad = (3.0 - theta) * g.dt
    assembled = []
    assemble = solver._assemble_from_arrays

    def checked(grid, b, fv, lam, dtype):
        assembled.append(np.isfinite(lam).all())
        return assemble(grid, b, fv, lam, dtype)
    monkeypatch.setattr(solver, "_assemble_from_arrays", checked)

    def rate(x, t):
        return np.full(len(x), bad if abs(t - t_bad) < 1e-9 else 0.5)
    prob = BackwardProblem(f, Phi=np.ones(g.shape), lambda_override=rate)
    with pytest.raises(solver.SolverError,
                       match=rf"non-finite coefficients in the step between "
                             rf"time level 2 and time level 3 \(frozen at "
                             rf"t = {t_bad:.6g}\)"):
        _march(prob, g, adjoint, theta)
    assert all(assembled) and len(assembled) == (2 if adjoint else 3)


@pytest.mark.parametrize("lam,theta", [(0.4, 1.0), ((0.2, 0.7), 1.0),
                                       (0.1, 0.5)])
def test_discrete_duality_random_problems(lam, theta):
    f = make_field(2, 0.4, Box((0, 0), (1, 1)),
                   [["1.2 + 0.2*sin(3.14*x1)", 0.15],
                    [0.15, "1.0 + 0.25*cos(2.0*x2) + 0.1*t"]],
                   f=["0.3*x2", "-0.2"], lam=lam)
    g = build_grid(f.domain, (13, 11), 7, f.T)
    phi = RNG.standard_normal((g.nt + 1,) + g.shape)
    Phi = RNG.standard_normal(g.shape)
    rho = np.abs(RNG.standard_normal(g.shape))
    prob = BackwardProblem(f, phi=phi, Phi=Phi)
    sol = solve_backward(prob, g, theta)
    adj = solve_forward_adjoint(rho, prob, g, theta)
    stepper = _Stepper(g, theta, lambda t: prob.coefficients(g, t),
                       prob.operator_time_dependent)
    lhs = dot_h(sol.v.values[0], rho, g)
    rhs = dot_h(Phi, adj.v.values[g.nt], g)
    for k in range(g.nt):
        rhs += g.dt * dot_h(prob.eval_phi(g, stepper.t_eval(k)),
                            adj.v.values[k], g)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-300)


def _symmetric_rough_field(rng, n):
    """A rough field on [-1, 1]^n: diagonal jumps that move in time, small
    symmetric off-diagonal sign jumps and a jumping drift."""
    def u(lo, hi):
        return f"{rng.uniform(lo, hi):.3f}"
    off = {(i, j): f"{u(-0.1, 0.1)}*sign(x{i + 1} + x{j + 1})"
           for i in range(n) for j in range(i + 1, n)}
    b = [[f"1 + {u(-0.3, 0.3)}*step(x{i + 1} - {u(-0.5, 0.5)} + t)"
          if i == j else off[min(i, j), max(i, j)] for j in range(n)]
         for i in range(n)]
    f = [f"{u(-1, 1)}*sign(x{i + 1} - {u(-0.5, 0.5)})" for i in range(n)]
    return make_field(n, 0.5, Box((-1,) * n, (1,) * n), b, f=f)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), theta=st.floats(0.5, 1.0),
       seed=st.integers(0, 2 ** 31))
def test_duality_on_random_fields_with_a_complex_moving_rate(n, theta, seed):
    # the rate changes every level, so every level after the first is a
    # BiCGStab solve on the lagged LU, with trans="H" in the adjoint march
    rng = np.random.default_rng(seed)
    f = _symmetric_rough_field(rng, n)
    g = build_grid(f.domain, {1: (15,), 2: (7, 6), 3: (5, 4, 4)}[n], 6, f.T)
    c, w = rng.uniform(0.0, 1.0), rng.uniform(-2.0, 2.0)
    phi = rng.uniform(0.0, 1.0, (g.nt + 1,) + g.shape)
    Phi = rng.uniform(0.5, 1.5, g.shape)
    rho = rng.uniform(0.0, 1.0, g.shape)
    prob = BackwardProblem(
        f, phi=phi, Phi=Phi,
        lambda_override=lambda x, t: c + 1j * w * np.arctan(x[:, 0] + t))
    sol = solve_backward(prob, g, theta)
    adj = solve_forward_adjoint(rho, prob, g, theta)
    stepper = _Stepper(g, theta, lambda t: prob.coefficients(g, t),
                       prob.operator_time_dependent)
    lhs = dot_h(sol.v.values[0], rho, g)
    rhs = dot_h(Phi, adj.v.values[g.nt], g)
    for k in range(g.nt):
        rhs += g.dt * dot_h(prob.eval_phi(g, stepper.t_eval(k)),
                            adj.v.values[k], g)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_forward_march_makes_no_transpose(monkeypatch):
    # a time-dependent operator's levels go through the lagged solve,
    # which forms B^T or B^H only for the adjoint march
    transposes = []
    transpose = sparse.csr_matrix.transpose

    def counted(self, *args, **kwargs):
        transposes.append(self.shape)
        return transpose(self, *args, **kwargs)
    monkeypatch.setattr(sparse.csr_matrix, "transpose", counted)
    f = make_field(2, 0.5, Box((0, 0), (1, 1)),
                   [["1.2 + 0.2*sin(3.0*x1 + t)", 0.1],
                    [0.1, "1.0 + 0.3*step(x2 - 0.5)"]], lam=0.4)
    g = build_grid(f.domain, (9, 8), 6, f.T)
    prob = BackwardProblem(f, Phi=lambda x: np.sin(np.pi * x[:, 0]))
    sol = solve_backward(prob, g)
    assert np.isfinite(sol.v.values).all()
    assert transposes == []
    solve_forward_adjoint(np.ones(g.shape), prob, g)
    assert transposes


# ----------------------------------------------------------------------------
# fixed point


def bump_2d_or_3d(x):
    return np.prod(np.cos(0.5 * np.pi * x), axis=1)


def test_fixed_point_trivial_smooth_case():
    f = builtin_problem("identity_heat", {"n": 1})
    d = decompose(f, "identity")
    g = build_grid(f.domain, 31, nt=16, T=1.0)
    Phi = lambda x: np.sin(np.pi * x[:, 0])
    prob = BackwardProblem(f, Phi=Phi)
    sol, trace = fixed_point_solve(prob, g, d, K=0.0)
    assert trace.converged and len(trace.increments) <= 2
    direct = solve_backward(prob, g)
    assert np.abs(sol.v.values - direct.v.values).max() <= 1e-10


def test_fixed_point_benchmark_contracts():
    f = builtin_problem("paper_3x3", {"alpha": 0.5, "beta": 0.0, "T": 0.25})
    d = decompose(f, "identity", index_set=(1,)).with_gamma({1: 1.9})
    g = build_grid(f.domain, (9, 9, 9), 64, f.T)
    prob = BackwardProblem(f, Phi=bump_2d_or_3d)
    sol, trace = fixed_point_solve(prob, g, d)
    nu = 2 * 0.25 / 1.9
    assert trace.converged
    assert trace.contraction_est <= np.sqrt(nu) + 0.1
    assert trace.agreement <= max(5e-3, 10 * 1.5e-4)


def paper_benchmark():
    """Criterion 09's problem: ``paper_3x3`` on 9^3 x 64."""
    f = builtin_problem("paper_3x3", {"alpha": 0.5, "beta": 0.0, "T": 0.25})
    d = decompose(f, "identity", index_set=(1,)).with_gamma({1: 1.9})
    g = build_grid(f.domain, (9, 9, 9), 64, f.T)
    return BackwardProblem(f, Phi=bump_2d_or_3d), g, d


def rough_timedep_2d():
    """A 2-D field whose diffusion and rate jumps move in time."""
    f = make_field(2, 0.3, Box((-1, -1), (1, 1)),
                   [["1 + 0.3*step(x1 - 0.2*t)", "0.1*sign(x2)"],
                    ["0.1*sign(x2)", "1 - 0.2*step(x2 + t)"]],
                   f=["0.4*sign(x1)", "0.2*sin(3*x1)"],
                   lam="1 + 0.5*step(x2 - t)")
    g = build_grid(f.domain, (15, 15), 20, f.T)
    prob = BackwardProblem(f, phi=lambda x, t: np.cos(x[:, 0]) * (1 + t),
                           Phi=bump_2d_or_3d)
    return prob, g, decompose(f, "identity")


def test_rough_moving_marches_factorize_once(lu_counts):
    # jumps that cross nodes every level: each march keeps its one
    # factorization, and the extrapolated starts take fewer LU
    # applications than the previous-level starts did (270 direct, 1846
    # over the fixed-point sweeps and 394 adjoint on this grid; now 248,
    # 1799 and 372)
    prob, _, d = rough_timedep_2d()
    g = build_grid(prob.field.domain, (63, 63), 48, prob.field.T)
    counts = []

    def counted(march):
        lu_counts.update(splu=0, lu_solve=0)
        out = march()
        counts.append(dict(lu_counts))
        return out
    direct = counted(lambda: solve_backward(prob, g))
    counted(lambda: fixed_point_solve(prob, g, d, direct=direct))
    counted(lambda: solve_forward_adjoint(np.ones(g.shape), prob, g))
    assert [c["splu"] for c in counts] == [1, 1, 1]
    assert all(c["lu_solve"] <= bound
               for c, bound in zip(counts, (270, 1846, 394)))


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("case", [paper_benchmark, rough_timedep_2d])
def test_fixed_point_limit_is_the_direct_solve(case, theta):
    prob, g, d = case()
    direct = solve_backward(prob, g, theta)
    sol, trace = fixed_point_solve(prob, g, d, theta=theta)
    scale = np.abs(direct.v.values).max()
    assert trace.converged
    assert np.abs(sol.v.values - direct.v.values).max() <= 1e-8 * scale
    assert trace.agreement <= 1e-8 * scale


def test_complex_fixed_point_on_a_moving_operator(monkeypatch):
    # the remainder of a complex moving rate turns complex after the real
    # zero terminal level, so the first sweep widens its block
    prob, g, d = rough_timedep_2d()
    prob = BackwardProblem(
        prob.field, phi=prob.phi, Phi=prob.Phi,
        lambda_override=lambda x, t: 1 + 0.8j * np.arctan(x[:, 0] + t))
    direct = solve_backward(prob, g)
    bits, pools = [], []
    for cores in (1, 2):
        pools.append(_pools(monkeypatch, cores))
        sol, trace = fixed_point_solve(prob, g, d, direct=direct)
        bits.append(sol.v.values.tobytes())
    scale = np.abs(direct.v.values).max()
    assert np.iscomplexobj(sol.v.values) and trace.converged
    assert np.abs(sol.v.values - direct.v.values).max() <= 1e-8 * scale
    assert bits[0] == bits[1]
    assert pools == [[1], [1]]     # a moving operator's one sweep worker


def jump_1d():
    """A 1-D diffusion jump on which the sweeps do not contract."""
    f = make_field(1, 0.5, Box((-1,), (1,)), [["1 + 1.5*step(x1)"]],
                   f=["sign(x1)"])
    g = build_grid(f.domain, 31, 16, f.T)
    prob = BackwardProblem(f, Phi=lambda x: np.cos(0.5 * np.pi * x[:, 0]))
    return prob, g, decompose(f, "identity")


def test_static_fixed_point_factorizes_once(monkeypatch):
    prob, g, d = jump_1d()
    direct = solve_backward(prob, g)
    lus = []
    monkeypatch.setattr(solver, "splu",
                        lambda *a, **k: lus.append(a) or splu(*a, **k))
    with pytest.warns(RuntimeWarning, match="did not converge"):
        _, trace = fixed_point_solve(prob, g, d, direct=direct, max_iter=20)
    assert not trace.converged and trace.contraction_est > 1.0
    assert len(lus) == 1


def _pools(monkeypatch, cores):
    """Run the sweeps with ``cores`` usable cores; the list returned
    collects the worker count of every pool the sweeps start."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)
    monkeypatch.setattr(solver, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(solver, "_usable_cores", lambda: cores)
    return pools


@pytest.mark.filterwarnings("ignore:fixed-point iteration did not converge")
@pytest.mark.parametrize("case, theta, max_iter", [
    (paper_benchmark, 1.0, 200), (paper_benchmark, 0.5, 200),
    (jump_1d, 1.0, 20), (paper_benchmark, 1.0, 1),
    (paper_benchmark, 1.0, 2)])
def test_pipelined_sweeps_give_the_bits_of_one_worker(monkeypatch, case,
                                                      theta, max_iter):
    prob, g, d = case()
    direct = solve_backward(prob, g, theta)
    bits, pools = [], []
    for cores in (1, 2):
        pools.append(_pools(monkeypatch, cores))
        sol, trace = fixed_point_solve(prob, g, d, theta=theta,
                                       max_iter=max_iter, direct=direct)
        bits.append((sol.v.values.dtype, sol.v.values.tobytes(),
                     json.dumps(trace.as_dict())))
    assert bits[0] == bits[1]
    # one sweep worker on one core, two on two once two sweeps can run
    assert pools == ([[1], [min(2, max_iter - 1)]] if max_iter > 1
                     else [[], []])
    if case is jump_1d:     # stopped by five growing sweeps
        assert len(trace.increments) == 7


def test_pipelined_sweeps_hold_under_thread_switches(monkeypatch):
    # the interpreter switching threads every microsecond: a level read
    # before its sweep filled it, or a sweep dropped out of order, changes
    # the bits; four usable cores still run one sweep ahead
    prob, g, d = paper_benchmark()
    direct = solve_backward(prob, g, 0.5)
    _pools(monkeypatch, 1)
    one, _ = fixed_point_solve(prob, g, d, theta=0.5, direct=direct)
    pools = _pools(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many, _ = fixed_point_solve(prob, g, d, theta=0.5, direct=direct)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [solver.SWEEP_WORKERS] == [2]
    assert many.v.values.tobytes() == one.v.values.tobytes()


def test_non_finite_level_of_a_pipelined_sweep_names_it(monkeypatch):
    # level 5 of the third sweep turns NaN on a worker thread
    prob, g, d = jump_1d()
    pools = _pools(monkeypatch, 2)
    remainder = solver._Splitting.remainder
    reads = []

    def poisoned(self, k):
        R = remainder(self, k)
        if k != 5:
            return R
        reads.append(threading.current_thread() is threading.main_thread())
        return R * np.nan if len(reads) == 3 else R
    monkeypatch.setattr(solver._Splitting, "remainder", poisoned)
    with pytest.raises(solver.SolverError, match="time level 5 "):
        fixed_point_solve(prob, g, d, max_iter=20)
    assert pools == [2] and reads[2] is False


@pytest.mark.parametrize("case, theta", [(rough_timedep_2d, 1.0),
                                         (rough_timedep_2d, 0.5),
                                         (paper_benchmark, 1.0)])
def test_fixed_point_smooths_each_level_once(monkeypatch, case, theta):
    # however many sweeps run, the smoothed coefficients are computed once
    # per level of a moving field and once for a static one
    prob, g, d = case()
    direct = solve_backward(prob, g, theta)
    times = []
    smooth = solver._smooth_parts
    monkeypatch.setattr(solver, "_smooth_parts",
                        lambda *a: times.append(a[-1]) or smooth(*a))
    _, trace = fixed_point_solve(prob, g, d, theta=theta, direct=direct)
    assert trace.converged and len(trace.increments) > 2
    assert len(times) == (g.nt if prob.field.time_dependent else 1)


@pytest.mark.parametrize("case", [rough_timedep_2d, paper_benchmark])
def test_fixed_point_reads_the_rough_coefficients_once_per_level_and_sweep(
        monkeypatch, case):
    prob, g, d = case()
    direct = solve_backward(prob, g)
    times = []
    coefficients = BackwardProblem.coefficients
    monkeypatch.setattr(BackwardProblem, "coefficients",
                        lambda self, grid, t: times.append(t)
                        or coefficients(self, grid, t))
    _, trace = fixed_point_solve(prob, g, d, direct=direct)
    sweeps = len(trace.increments) - 1
    # K = auto reads them at t = 0; the remainder of a moving operator
    # reads each level once per sweep, a static one once in all
    assert times[0] == 0.0
    assert len(times) == 1 + (sweeps * g.nt if prob.operator_time_dependent
                              else 1)


def test_coefficients_take_the_rate_override():
    f = make_field(2, 0.5, Box((0, 0), (1, 1)),
                   [["1 + x1*t", 0.1], [0.1, "1"]], f=["x2", "0"], lam=0.4)
    g = build_grid(f.domain, (5, 4), 4, f.T)
    nodes, t = g.nodes(), 0.3
    block = RNG.standard_normal((g.nt + 1,) + g.shape)
    level = block[g.level(t)].ravel()
    cases = [
        (lambda x, s: 0.2 + 1j * np.sin(x[:, 0] + s),
         0.2 + 1j * np.sin(nodes[:, 0] + t)),
        (lambda x, s: np.full(len(x), 0.7), np.full(g.size, 0.7)),
        (block, level),
        ((block, 2.0 * block), level + 2j * level),
        (None, f.eval_lambda(nodes, t)),
    ]
    for spec, expect in cases:
        b, fv, lam = BackwardProblem(f, lambda_override=spec).coefficients(g, t)
        assert np.array_equal(b, f.eval_b(nodes, t))
        assert np.array_equal(fv, f.eval_f(nodes, t))
        assert lam.dtype == complex and lam.shape == (g.size,)
        assert np.array_equal(lam, expect)


@pytest.mark.filterwarnings("ignore:fixed-point iteration did not converge")
@pytest.mark.parametrize("case, K", [(paper_benchmark, 1.0), (jump_1d, 2.0)])
def test_fixed_point_takes_the_apriori_weight(monkeypatch, case, K):
    # K = max|lambda| + max|f|^2/delta + 1, with no R-norm estimate
    estimates = []
    estimate = solver.estimate_R_norm
    monkeypatch.setattr(solver, "estimate_R_norm",
                        lambda *a, **k: estimates.append(a) or
                        estimate(*a, **k))
    prob, g, d = case()
    _, trace = fixed_point_solve(prob, g, d, max_iter=20)
    assert trace.K == K
    assert estimates == []


def rough_field(rng, n):
    """Diffusion, drift and rate with jumps at random places; the rate's
    jump moves in time."""
    def u(lo, hi):
        return f"{rng.uniform(lo, hi):.3f}"
    b = [[f"1 + {u(-0.3, 0.3)}*step(x{i + 1} - {u(-0.5, 0.5)})" if i == j
          else f"{u(-0.15, 0.15)}*sign(x1 + x2)" for j in range(n)]
         for i in range(n)]
    if n == 2:
        b[1][0] = b[0][1]
    f = [f"{u(-1, 1)}*sign(x{i + 1} - {u(-0.5, 0.5)})" for i in range(n)]
    lam = f"{u(0, 2)}*step(x1 - {u(-0.5, 0.5)} + {u(-1, 1)}*t)"
    return make_field(n, 0.5, Box((-1,) * n, (1,) * n), b, f=f, lam=lam)


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([1, 2]), theta=st.floats(0.5, 1.0),
       seed=st.integers(0, 2 ** 31))
def test_converged_fixed_point_is_the_direct_solve(n, theta, seed):
    rng = np.random.default_rng(seed)
    f = rough_field(rng, n)
    g = build_grid(f.domain, (21,) if n == 1 else (9, 9), 12, f.T)
    prob = BackwardProblem(f, phi=lambda x, t: np.cos(x[:, 0]) * (1 - t),
                           Phi=bump_2d_or_3d)
    sol, trace = fixed_point_solve(prob, g, decompose(f, "identity"),
                                   theta=theta, tol=1e-11)
    if trace.converged:
        direct = solve_backward(prob, g, theta).v.values
        assert np.abs(sol.v.values - direct).max() <= \
            1e-8 * np.abs(direct).max()


def test_fixed_point_violated_condition_is_logged_not_asserted():
    f = builtin_problem("paper_3x3",
                        {"alpha": np.sqrt(1.5), "beta": 0.0, "T": 0.25})
    d = decompose(f, "identity", index_set=(1,)).with_gamma({1: 1.9})
    g = build_grid(f.domain, (7, 7, 7), 8, f.T)
    prob = BackwardProblem(f, Phi=bump_2d_or_3d)
    with pytest.warns(RuntimeWarning):
        sol, trace = fixed_point_solve(prob, g, d, max_iter=40)
    assert trace.contraction_est >= 0.0
    assert isinstance(trace.converged, bool)


@pytest.mark.parametrize("bad", [{"K": np.nan}, {"K": np.inf},
                                 {"K": -1e6}, {"K": 1e6}, {"eps": 0.0},
                                 {"eps": -1.0}, {"eps": np.nan}])
def test_fixed_point_and_R_norm_reject_bad_eps_and_K(bad):
    f = builtin_problem("paper_3x3", {"alpha": 0.5, "beta": 0.0, "T": 0.25})
    d = decompose(f, "identity", index_set=(1,)).with_gamma({1: 1.9})
    g = build_grid(f.domain, (5, 5, 5), 4, f.T)
    prob = BackwardProblem(f, Phi=bump_2d_or_3d)
    kwargs = {"eps": 0.5, "K": 2.0, **bad}
    fault = (ValueError, "eps = ") if "eps" in bad else (solver.SolverError,
                                                         "K")
    with pytest.raises(fault[0], match=fault[1]):
        fixed_point_solve(prob, g, d, **kwargs)
    with pytest.raises(fault[0], match=fault[1]):
        estimate_R_norm(prob, g, d, trials=1, **kwargs)


def test_estimate_R_norm_zero_remainder():
    f = builtin_problem("identity_heat", {"n": 1})
    d = decompose(f, "identity")
    g = build_grid(f.domain, 15, nt=8, T=1.0)
    est = estimate_R_norm(BackwardProblem(f), g, d, eps=0.1, K=1.0,
                          trials=3, seed=0)
    assert est <= 1e-10


def test_estimate_R_norm_scales_with_remainder():
    g = None
    vals = {}
    for alpha in (0.2, 0.4):
        f = builtin_problem("paper_3x3", {"alpha": alpha, "beta": 0.0,
                                          "T": 0.25})
        d = decompose(f, "identity", index_set=(1,)).with_gamma({1: 1.9})
        g = build_grid(f.domain, (7, 7, 7), 8, f.T)
        vals[alpha] = estimate_R_norm(BackwardProblem(f), g, d, eps=0.3,
                                      K=2.0, trials=4, seed=11)
    # the remainder enters linearly and the smoothing difference vanishes
    # for these constant fields, so doubling alpha doubles the estimate
    assert vals[0.4] >= 2 * vals[0.2] - 1e-9
    assert vals[0.4] <= 2 * vals[0.2] + 1e-9


def test_estimate_R_norm_benchmark_below_one():
    f = builtin_problem("paper_3x3", {"alpha": 0.5, "beta": 0.0, "T": 0.25})
    d = decompose(f, "identity", index_set=(1,)).with_gamma({1: 1.9})
    g = build_grid(f.domain, (9, 9, 9), 16, f.T)
    est = estimate_R_norm(BackwardProblem(f), g, d, eps=2 * max(g.h), K=4.0,
                          trials=5, seed=3)
    assert est < 1.0


def _moving_smooth_field(f1):
    return make_field(2, 1.0, Box((0, 0), (1, 1)), [[1.0, 0.0], [0.0, 1.0]],
                      f=[f1, "-0.1"], lam="0.3 + t")


def test_estimate_R_norm_zero_remainder_on_a_moving_operator():
    f = _moving_smooth_field("0.2*t")
    g = build_grid(f.domain, (9, 9), 8, f.T)
    assert f.time_dependent
    est = estimate_R_norm(BackwardProblem(f), g, decompose(f, "identity"),
                          eps=0.2, K=1.0)
    assert est <= 1e-10


def test_estimate_R_norm_repeats_its_bits_on_a_moving_operator():
    f = _moving_smooth_field("0.2*t*step(x1 - 0.5)")
    g = build_grid(f.domain, (9, 9), 8, f.T)
    d = decompose(f, "identity")
    est = [estimate_R_norm(BackwardProblem(f), g, d, eps=0.2, K=1.0,
                           trials=3, seed=4) for _ in range(2)]
    assert est[0] > 1e-6 and est[0].hex() == est[1].hex()


def test_estimate_R_norm_requires_trials():
    f = builtin_problem("identity_heat", {"n": 1})
    d = decompose(f, "identity")
    g = build_grid(f.domain, 15, nt=4, T=1.0)
    with pytest.raises(ValueError):
        estimate_R_norm(BackwardProblem(f), g, d, eps=0.1, K=1.0, trials=0)


# ----------------------------------------------------------------------------
# a-priori diagnostics


def test_apriori_ratio_zero_problem():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, nt=4, T=1.0)
    sol = solve_backward(BackwardProblem(f), g)
    assert apriori_ratio(sol, None, None) == 0.0


def test_apriori_ratio_scaling_invariance():
    f, phi, Phi, _ = manufactured()
    g = build_grid(f.domain, 31, nt=32, T=f.T)
    sol1 = solve_backward(BackwardProblem(f, phi=phi, Phi=Phi), g)
    r1 = apriori_ratio(sol1, phi, Phi)
    phi10 = lambda x, t: 10.0 * phi.eval_raw(x, t)
    Phi10 = lambda x: 10.0 * Phi.eval_raw(x, 0.0)
    sol2 = solve_backward(BackwardProblem(f, phi=phi10, Phi=Phi10), g)
    r2 = apriori_ratio(sol2, phi10, Phi10)
    assert abs(r1 - r2) <= 1e-9 * r1


def test_apriori_ratio_recomputes_norms_for_other_weights():
    f, phi, Phi, _ = manufactured()
    g = build_grid(f.domain, 31, nt=16, T=f.T)
    sol = solve_backward(BackwardProblem(f, phi=phi, Phi=Phi), g)
    w = NormWeights.default(1, alpha2=3.0)
    ratio = apriori_ratio(sol, phi, Phi, w) / apriori_ratio(sol, phi, Phi)
    assert ratio == pytest.approx(
        discrete_norms(sol.v, w).Yhat2 / sol.norms.Yhat2, rel=1e-14)
    assert ratio > 1.0


def test_apriori_ratio_stable_under_refinement():
    f, phi, Phi, _ = manufactured()
    ratios = []
    for m, nt in ((63, 64), (127, 256), (255, 1024)):
        g = build_grid(f.domain, m, nt, f.T)
        sol = solve_backward(BackwardProblem(f, phi=phi, Phi=Phi), g)
        ratios.append(apriori_ratio(sol, phi, Phi))
    mid = ratios[1]
    assert all(abs(r - mid) <= 0.2 * mid for r in ratios), ratios
