"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and asserting its stated tolerance and runtime budget."""

import time

import numpy as np

from cordeslab.conditions import (STRICT_TOL, check_classical, full_report,
                                  symmetric_eigenvalues, _classical_margins)
from cordeslab.fields import (Box, builtin_problem, builtin_solve_data,
                              decompose, make_field, sample_set)
from cordeslab.grid import GridFunction, build_grid, pair
from cordeslab.solver import (BackwardProblem, apriori_ratio, estimate_R_norm,
                              fixed_point_solve, solve_backward,
                              solve_forward_adjoint, _Stepper)
from cordeslab.stochastic import (SDE, HatSampler, PointSampler,
                                  TruncatedGaussianSampler,
                                  characteristic_functional, density_compare,
                                  feynman_kac, max_principle_check,
                                  simulate_paths)


class Criterion:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget
        self.t0 = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.t0
        word = "PASS" if ok else "FAIL"
        print(f"[{word}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s) {detail}")
        assert ok, f"criterion {self.number}: {self.label} {detail}"
        assert elapsed < self.budget, \
            f"criterion {self.number} exceeded its {self.budget}s budget"


def benchmark_report(ab2, coarse=True):
    field = builtin_problem("paper_3x3", {"alpha": np.sqrt(ab2), "beta": 0.0})
    samples = sample_set(field.sampling_box(), field.T, space=3, time=2) \
        if coarse else None
    return full_report(field, samples=samples)


def dot_h(a, b, grid):
    return complex(np.sum(np.asarray(a) * np.conj(np.asarray(b)))
                   * grid.cell_volume)


def test_criterion_01_threshold_verdicts():
    crit = Criterion(1, "benchmark threshold verdicts", 1.0)
    field = builtin_problem("paper_3x3", {"alpha": 0.9, "beta": 0.4})
    samples = sample_set(field.sampling_box(), field.T, space=3, time=2)
    rep_097 = full_report(field, samples=samples)
    checks = [rep_097.verdicts["split_condition"].ok is True]
    checks.append(benchmark_report(1.21).verdicts["split_condition"].ok
                  is False)
    rep_08 = benchmark_report(0.8)
    checks += [rep_08.verdicts["cordes"].ok is False,
               rep_08.verdicts["talenti"].ok is False]
    rep_07 = benchmark_report(0.70)
    checks += [rep_07.verdicts["cordes"].ok is True,
               rep_07.verdicts["talenti"].ok is True]
    checks.append(benchmark_report(0.6).verdicts["gihman_skorohod"].ok
                  is False)
    checks.append(benchmark_report(0.45).verdicts["gihman_skorohod"].ok
                  is True)
    crit.finish(all(checks))


def test_criterion_02_landis_oracle_threshold():
    crit = Criterion(2, "landis literal threshold with recorded note", 1.0)
    # literal substitution of the benchmark spectrum: margin 2 - 5 r with
    # r = sqrt(alpha^2 + beta^2), so failure starts at r = 2/5
    verdicts = {}
    for r in (0.45, 0.35):
        field = builtin_problem("paper_3x3", {"alpha": r, "beta": 0.0})
        samples = sample_set(field.sampling_box(), field.T, space=3, time=2)
        verdicts[r] = check_classical(field, "landis", samples)
    ok = (verdicts[0.45].ok is False and verdicts[0.35].ok is True
          and abs(verdicts[0.45].margin - (2 - 5 * 0.45)) <= 1e-12
          and "2/5" in verdicts[0.45].note)
    crit.finish(ok)


def test_criterion_03_talenti_cordes_equivalence():
    crit = Criterion(3, "talenti/cordes equivalence on 1000 random matrices",
                     5.0)
    rng = np.random.default_rng(12345)
    disagreements = 0
    frob_worst = 0.0
    for _ in range(1000):
        n = int(rng.choice([3, 4, 5]))
        a = rng.standard_normal((n, n)) * rng.uniform(0.2, 3.0)
        m = 0.5 * (a + a.T)
        lam = symmetric_eigenvalues(m)
        frob_worst = max(frob_worst,
                         abs((lam ** 2).sum() - (m ** 2).sum()))
        eig = lam[None, :]
        cord, _ = _classical_margins("cordes", eig)
        tal, _ = _classical_margins("talenti", eig)
        ok_c = cord[0] > n * STRICT_TOL
        ok_t = tal[0] > STRICT_TOL
        disagreements += int(ok_c != ok_t)
    crit.finish(disagreements == 0 and frob_worst <= 1e-8,
                f"(frobenius residual {frob_worst:.2e})")


def _manufactured_errors():
    f = builtin_problem("manufactured_1d", {})
    phi, Phi, exact = builtin_solve_data("manufactured_1d", f.T)
    errs, ratios = {}, {}
    for m, nt in ((63, 64), (127, 256), (255, 1024)):
        g = build_grid(f.domain, m, nt, f.T)
        sol = solve_backward(BackwardProblem(f, phi=phi, Phi=Phi), g,
                             theta=1.0)
        nodes = g.nodes()
        errs[m] = max(np.abs(sol.v.values[k] - exact.eval_raw(nodes, t)).max()
                      for k, t in enumerate(g.times()))
        ratios[m] = apriori_ratio(sol, phi, Phi)
    return errs, ratios


def test_criterion_04_manufactured_convergence():
    crit = Criterion(4, "manufactured-solution convergence", 60.0)
    errs, _ = _manufactured_errors()
    orders = [np.log2(errs[63] / errs[127]), np.log2(errs[127] / errs[255])]
    ok = errs[127] <= 2e-3 and all(1.7 <= o <= 2.3 for o in orders)
    crit.finish(ok, f"(err127 {errs[127]:.2e}, orders "
                    f"{orders[0]:.2f}/{orders[1]:.2f})")


def test_criterion_05_discrete_duality():
    crit = Criterion(5, "discrete duality on 3 random problems", 60.0)
    rng = np.random.default_rng(8)
    worst = 0.0
    for lam, theta in ((0.4, 1.0), ((0.2, 0.7), 1.0), (0.1, 0.5)):
        f = make_field(2, 0.4, Box((0, 0), (1, 1)),
                       [["1.1 + 0.2*sin(3.0*x1)", 0.12],
                        [0.12, "1.0 + 0.3*step(x2 - 0.5) + 0.05*t"]],
                       f=["0.2*x2", "-0.15"], lam=lam)
        g = build_grid(f.domain, (12, 10), 6, f.T)
        phi = rng.standard_normal((g.nt + 1,) + g.shape)
        Phi = rng.standard_normal(g.shape)
        rho = np.abs(rng.standard_normal(g.shape))
        prob = BackwardProblem(f, phi=phi, Phi=Phi)
        sol = solve_backward(prob, g, theta)
        adj = solve_forward_adjoint(rho, prob, g, theta)
        stepper = _Stepper(g, theta, lambda _, t: prob.coefficients(g, t),
                           prob.field.time_dependent)
        lhs = dot_h(sol.v.values[0], rho, g)
        rhs = dot_h(Phi, adj.v.values[g.nt], g)
        for k in range(g.nt):
            rhs += g.dt * dot_h(prob.eval_phi(g, stepper.t_eval(k)),
                                adj.v.values[k], g)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    crit.finish(worst <= 1e-8, f"(worst relative residual {worst:.2e})")


def test_criterion_06_feynman_kac_gaussian():
    crit = Criterion(6, "path-functional Gaussian moment test", 120.0)
    T = 0.25
    f = builtin_problem("gaussian_free_space",
                        {"n": 1, "half_width": 8.0, "T": T})
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    ens = simulate_paths(SDE(f), sampler, 1e-3, 100_000, 2024)
    mc = feynman_kac(ens, Phi=lambda x: x[:, 0] ** 2)
    expected = 1.0 + 2.0 * T
    mc_ok = abs(mc.value.real - expected) <= 3 * mc.stderr
    g = build_grid(f.domain, 511, 128, T)
    sol = solve_backward(BackwardProblem(f, Phi=lambda x: x[:, 0] ** 2), g)
    pde = pair(GridFunction(g, sol.v.values[0]), sampler.grid_density(g)).real
    pde_ok = abs(pde - expected) <= 2e-2
    crit.finish(mc_ok and pde_ok,
                f"(mc {mc.value.real:.4f}+-{mc.stderr:.4f}, pde {pde:.4f})")


def test_criterion_07_killed_survival_spectral():
    crit = Criterion(7, "killed-diffusion survival vs spectral series", 120.0)
    T = 0.05
    k = np.arange(1, 100, 2)
    oracle = float(np.sum(4 / (k * np.pi) * np.sin(k * np.pi * 0.5)
                          * np.exp(-(k * np.pi) ** 2 * T)))
    f = make_field(1, T, Box((0.0,), (1.0,)), [[1.0]], beta=[[np.sqrt(2.0)]])
    ens = simulate_paths(SDE(f), PointSampler([0.5]), 2e-5, 100_000, 777)
    est = feynman_kac(ens, Phi=lambda x: np.ones(len(x)))
    diff = abs(est.value.real - oracle)
    crit.finish(diff <= 3 * est.stderr + 0.01,
                f"(mc {est.value.real:.4f}, series {oracle:.4f}, "
                f"diff {diff:.4f})")


def test_criterion_08_maximum_principle_random():
    crit = Criterion(8, "maximum principle on 10 nonnegative problems", 120.0)
    rng = np.random.default_rng(99)
    worst = 0.0
    ok = True
    for trial in range(10):
        n = 1 + trial % 2
        # diagonal discontinuous diffusion keeps the implicit step an
        # M-matrix, which is the regime the sign guarantee addresses
        diag = [[(f"{rng.uniform(0.7, 1.5):.3f} + "
                  f"{rng.uniform(0.1, 0.5):.3f}*step(x1 - "
                  f"{rng.uniform(0.3, 0.7):.3f})") if i == j else 0.0
                 for j in range(n)] for i in range(n)]
        f = make_field(n, 0.3, Box((0.0,) * n, (1.0,) * n), diag,
                       f=[f"{rng.uniform(-0.4, 0.4):.3f}"] * n,
                       lam=float(rng.uniform(0.0, 2.0)))
        g = build_grid(f.domain, (17,) * n, 24, f.T)
        prob = BackwardProblem(
            f, phi=lambda x, t: np.prod(np.sin(np.pi * x) ** 2, axis=1),
            Phi=lambda x: np.prod(np.sin(np.pi * x) ** 2, axis=1))
        sol = solve_backward(prob, g, theta=1.0)
        mn, verdict = max_principle_check(sol, prob)
        worst = min(worst, mn)
        ok &= verdict == "pass" and mn >= -1e-10
    crit.finish(ok, f"(worst node value {worst:.2e})")


def test_criterion_09_fixed_point_contraction():
    crit = Criterion(9, "fixed-point contraction on the benchmark", 180.0)
    f = builtin_problem("paper_3x3", {"alpha": 0.5, "beta": 0.0, "T": 0.25})
    decomp = decompose(f, "identity", index_set=(1,)).with_gamma({1: 1.9})
    g = build_grid(f.domain, (9, 9, 9), 64, f.T)
    Phi = lambda x: np.prod(np.cos(0.5 * np.pi * x), axis=1)
    prob = BackwardProblem(f, Phi=Phi)
    sol, trace = fixed_point_solve(prob, g, decomp)
    nu = 2 * 0.25 / 1.9
    bound = np.sqrt(nu) / 1.0 + 0.1
    est = estimate_R_norm(prob, g, decomp, eps=2 * float(max(g.h)),
                          K=trace.K, trials=5, seed=3)
    ok = (trace.converged and trace.contraction_est <= bound and est < 1.0)
    crit.finish(ok, f"(contraction {trace.contraction_est:.3f} <= "
                    f"{bound:.3f}, R-norm {est:.3f})")


def test_criterion_10_apriori_ratio_stability():
    crit = Criterion(10, "a-priori ratio stability under refinement", 120.0)
    _, ratios = _manufactured_errors()
    mid = ratios[127]
    ok = all(abs(r - mid) <= 0.2 * mid for r in ratios.values())
    crit.finish(ok, "(ratios " + ", ".join(f"{r:.4f}"
                                           for r in ratios.values()) + ")")


def test_criterion_11_characteristic_panel():
    crit = Criterion(11, "characteristic functional panel, mc vs pde", 300.0)
    T = 0.25
    f = builtin_problem("gaussian_free_space",
                        {"n": 1, "half_width": 8.0, "T": T})
    sampler = TruncatedGaussianSampler([0.4], 1.0, f.sampling_box())
    g = build_grid(f.domain, 255, 100, T)
    tgrid = np.linspace(0.0, T, 11)
    panel = [np.zeros((11, 1)),
             0.5 * np.ones((11, 1)),
             2.0 * np.ones((11, 1)),
             np.linspace(0.0, 3.0, 11).reshape(-1, 1),
             (2.0 * np.sign(np.sin(8.0 * tgrid)) + 0.5).reshape(-1, 1)]
    ok = True
    details = []
    for i, xi_v in enumerate(panel):
        mc = characteristic_functional(tgrid, xi_v, "mc", sde=SDE(f),
                                       sampler=sampler, dt=T / 100,
                                       M=100_000, master_seed=31 + i)
        pde = characteristic_functional(tgrid, xi_v, "pde", grid=g,
                                        sampler=sampler, field=f)
        diff = abs(complex(mc.value) - complex(pde.value))
        details.append(f"{diff:.4f}")
        if i == 0:
            ok &= mc.value == 1.0 + 0.0j and pde.value == 1.0 + 0.0j
        ok &= diff <= 3 * mc.stderr + 3e-2
    crit.finish(ok, "(diffs " + ", ".join(details) + ")")


def test_criterion_12_density_and_killing():
    crit = Criterion(12, "density histogram vs adjoint, killing decay", 180.0)
    T = 0.5
    f = builtin_problem("gaussian_free_space",
                        {"n": 1, "half_width": 8.0, "T": T})
    g = build_grid(f.domain, 127, 128, T)
    hat = HatSampler([0.0], 0.25)
    ens = simulate_paths(SDE(f), hat, T / 128, 100_000, 555, record=[T])
    adj = solve_forward_adjoint(hat.grid_density(g), BackwardProblem(f), g)
    l1 = density_compare(ens, adj, T)
    c = 1.0
    fk = make_field(1, T, Box((-8.0,), (8.0,)), [[1.0]], lam=c,
                    beta=[[np.sqrt(2.0)]])
    ensk = simulate_paths(SDE(fk), HatSampler([0.0], 0.1), T / 128,
                          100_000, 556, record=[T])
    w = np.exp(-ensk.disc_traj[:, -1].real)
    mass = float(w[~ensk.exited].sum() / ensk.M)
    target = np.exp(-c * T)
    binom_se = np.sqrt(target * (1 - target) / ensk.M)
    ok = l1 <= 0.05 and abs(mass - target) <= 3 * binom_se + 1e-3
    crit.finish(ok, f"(L1 {l1:.4f}, mass {mass:.5f} vs {target:.5f})")
