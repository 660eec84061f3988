import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cordeslab.conditions import (check_classical, check_split_condition,
                                  ellipticity_delta, full_report, nu_hat,
                                  optimize_gamma, select_index_set,
                                  symmetric_eigenvalues)
from cordeslab.fields import (Box, Decomposition, SampleSet, builtin_problem,
                              decompose, make_field, sample_set,
                              sparsity_pattern)



def nu_hat_oracle(b_hat_samples, index_set, gamma):
    """Literal triple-loop evaluation of the weighted remainder measure."""
    total_weight = sum(1.0 / (2.0 * gamma[k]) for k in index_set)
    worst = 0.0
    for bh in b_hat_samples:
        inner = 0.0
        n = bh.shape[0]
        for k in index_set:
            kk = k - 1
            s = 0.0
            for i in range(1, n + 1):
                if i in index_set:
                    s += bh[i - 1, kk] ** 2
                else:
                    s += 4.0 * bh[i - 1, kk] ** 2
            s += gamma[k] / (2.0 - gamma[k]) * bh[kk, kk] ** 2
            inner += s
        worst = max(worst, inner)
    return total_weight * worst


def benchmark_decomp(alpha, beta, **kw):
    field = builtin_problem("paper_3x3", {"alpha": alpha, "beta": beta})
    return decompose(field, "identity", **kw)


# ----------------------------------------------------------------------------
# ellipticity


def test_delta_identity():
    f = builtin_problem("identity_heat", {"n": 3})
    assert ellipticity_delta(decompose(f, "identity")) == 1.0


def test_delta_diagonal_matrix():
    assert ellipticity_delta(np.diag([2.0, 3.0])) == 2.0


def test_delta_oscillating_field_against_grid_oracle():
    # reference part I * (1.5 + 0.4 sin(2 pi x)): minimum value 1.1 is
    # attained at x = 0.75, which the 129-node lattice hits exactly
    expr = "1.5 + 0.4*sin(6.283185307179586*x1)"
    f = make_field(1, 1.0, Box((0.0,), (1.0,)), [[expr]])
    nodes = np.linspace(0.0, 1.0, 129).reshape(-1, 1)
    samples = SampleSet(nodes, np.array([0.0]))
    delta = ellipticity_delta(decompose(f, [[expr]], samples), samples)
    oracle = (1.5 + 0.4 * np.sin(2 * np.pi * nodes[:, 0])).min()
    assert abs(delta - oracle) <= 1e-12
    assert abs(delta - 1.1) <= 1e-6


def test_delta_of_a_field_reads_its_full_b_on_its_own_lattice():
    # b = [[2 + x1, 0.5], [0.5, 2 + x1]] has eigenvalues 2 + x1 -+ 0.5,
    # the least 1.5 at x1 = 0, a node of the default lattice
    f = make_field(2, 1.0, Box((0.0, 0.0), (1.0, 1.0)),
                   [["2 + x1", "0.5"], ["0.5", "2 + x1"]])
    delta = ellipticity_delta(f)
    assert delta == ellipticity_delta(f, sample_set(f.sampling_box(), f.T))
    assert delta == pytest.approx(1.5, rel=1e-12)


def test_delta_rejects_nonelliptic():
    with pytest.raises(ValueError, match="not uniformly elliptic"):
        ellipticity_delta(np.diag([1.0, 0.0]))


# ----------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_identity():
    assert np.allclose(symmetric_eigenvalues(np.eye(3)), [1, 1, 1])


def test_eigenvalues_benchmark_spectrum():
    b = np.array([[1.0, 0.6, 0.8], [0.6, 1.0, 0.0], [0.8, 0.0, 1.0]])
    vals = symmetric_eigenvalues(b)
    assert np.allclose(vals, [0.0, 1.0, 2.0], atol=1e-12)


def test_eigenvalues_diagonal_sorting():
    vals = symmetric_eigenvalues(np.diag([3.0, -1.0, 5.0]))
    assert np.allclose(vals, [-1.0, 3.0, 5.0])


def test_eigenvalues_identities_random():
    from cordeslab.linalg import symmetric_sqrt
    rng = np.random.default_rng(371)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        m = 0.5 * (a + a.T)
        vals = symmetric_eigenvalues(m)
        scale = max(1.0, np.linalg.norm(m))
        assert abs(vals.sum() - np.trace(m)) <= 1e-10 * scale
        assert abs((vals ** 2).sum() - (m ** 2).sum()) <= 1e-8 * scale ** 2
        assert np.all(np.diff(vals) >= -1e-14)
        psd = m @ m
        root = symmetric_sqrt(psd)
        assert np.abs(root @ root - psd).max() <= 1e-10 * scale ** 2


def test_eigenvalues_reject_asymmetric():
    with pytest.raises(ValueError, match="asymmetric"):
        symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ----------------------------------------------------------------------------
# the weighted remainder measure


def test_nu_hat_zero_remainder():
    f = builtin_problem("identity_heat", {"n": 2})
    d = decompose(f, "identity")
    assert nu_hat(d) == 0.0


def test_nu_hat_benchmark_single_cover():
    d = benchmark_decomp(0.6, 0.0, index_set=(1,)).with_gamma({1: 1.8})
    value = nu_hat(d)
    assert abs(value - 0.4) <= 1e-12
    bh = d.eval_b_hat(np.zeros((1, 3)), 0.0)
    assert abs(value - nu_hat_oracle(bh, (1,), {1: 1.8})) <= 1e-12


def test_nu_hat_benchmark_full_cover():
    d = benchmark_decomp(0.6, 0.0, index_set=(1, 2, 3)) \
        .with_gamma({1: 1.0, 2: 1.0, 3: 1.0})
    value = nu_hat(d)
    assert abs(value - 1.08) <= 1e-12
    bh = d.eval_b_hat(np.zeros((1, 3)), 0.0)
    oracle = nu_hat_oracle(bh, (1, 2, 3), {1: 1.0, 2: 1.0, 3: 1.0})
    assert abs(value - oracle) <= 1e-12


def test_nu_hat_random_against_oracle():
    rng = np.random.default_rng(371)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) * 0.3
        bh = 0.5 * (a + a.T)
        b = np.eye(n) + bh
        f = make_field(n, 1.0, Box((0.0,) * n, (1.0,) * n), b)
        samples = sample_set(f.sampling_box(), f.T, space=2, time=1)
        d = decompose(f, "identity", samples)
        idx = tuple(range(1, n + 1))
        gamma = {k: float(rng.uniform(0.2, 1.8)) for k in idx}
        d = d.with_index_set(idx, samples).with_gamma(gamma)
        got = nu_hat(d, samples)
        want = nu_hat_oracle(bh[None], idx, gamma)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_nu_hat_quadratic_scaling():
    base = benchmark_decomp(0.5, 0.2, index_set=(1,)).with_gamma({1: 1.3})
    v1 = nu_hat(base)
    for s in (0.3, 0.7, 1.0):
        scaled = benchmark_decomp(0.5 * s, 0.2 * s, index_set=(1,)) \
            .with_gamma({1: 1.3})
        assert abs(nu_hat(scaled) - s ** 2 * v1) <= 1e-12


def test_nu_hat_requires_gamma_in_range():
    d = benchmark_decomp(0.5, 0.0, index_set=(1,))
    with pytest.raises(Exception, match="gamma"):
        nu_hat(d, gamma={1: 2.5})


# ----------------------------------------------------------------------------
# gamma optimization


def test_optimize_gamma_monotone_offdiagonal_case():
    # remainder with zero diagonal: the measure decreases in gamma, so the
    # optimizer runs into the upper clamp and the value tends to a^2+b^2
    d = benchmark_decomp(0.6, 0.8, index_set=(1,))
    gamma, value = optimize_gamma(d)
    assert gamma[1] >= 2.0 - 1e-5
    assert abs(value - 1.0) <= 1e-4


def test_optimize_gamma_takes_each_index_once():
    f = builtin_problem("paper_3x3", {"alpha": 0.5, "beta": 0.3})
    d = decompose(f, "identity")
    assert optimize_gamma(d, index_set=(1, 1)) == optimize_gamma(
        d, index_set=(1,))
    with pytest.raises(ValueError, match="outside 1..n"):
        optimize_gamma(d, index_set=(4,))


def test_optimize_gamma_diagonal_case_lattice_audit():
    # purely diagonal remainder: with the k = i term the measure is
    # c^2 / (gamma (2 - gamma)), minimized in the middle at gamma = 1
    c = 0.4
    f = make_field(1, 1.0, Box((0.0,), (1.0,)), [[1.0 + c]])
    d = decompose(f, "identity")
    assert d.index_set == (1,)
    gamma, value = optimize_gamma(d)
    assert abs(gamma[1] - 1.0) <= 1e-4
    assert abs(value - c ** 2) <= 1e-9
    # audit property: no lattice point does better
    samples = sample_set(f.sampling_box(), f.T)
    for g in np.linspace(1e-6, 2 - 1e-6, 20):
        assert value <= nu_hat(d.with_gamma({1: g}), samples) + 1e-9


@st.composite
def nu_hat_terms(draw, columns=4):
    """Nonnegative ``(A, C)`` rows with 1 to ``columns`` columns and
    duplicate, tied and dominated rows: base rows, then copies scaled down
    entry by entry by factors in [0, 1] (some exactly 1, which tie), then
    exact repeats."""
    m = draw(st.integers(1, columns))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = np.array([0.0, 0.25, 1.0, 1.5, 3.0])
    base = rng.uniform(0.0, 3.0, (draw(st.sampled_from([1, 1, 2, 3, 6])),
                                  2 * m))
    base = np.where(rng.random(base.shape) < 0.4,
                    rng.choice(levels, base.shape), base)
    pick = rng.integers(0, len(base), draw(st.integers(0, 12)))
    factors = rng.choice([0.0, 0.5, 1.0, rng.uniform()], (len(pick), 2 * m))
    rows = np.concatenate([base, base[pick] * factors])
    rows = np.concatenate([rows, rows[rng.integers(0, len(rows),
                                                   draw(st.integers(0, 4)))]])
    rows = rows[rng.permutation(len(rows))]
    return rows[:, :m], rows[:, m:]


def _floored(terms):
    """``terms`` with every entry at least 1e-3 of the largest, as in the
    terms of a remainder (``A >= C`` entry by entry there): the optimal
    weights then lie inside ``[GAMMA_MIN, GAMMA_MAX]``."""
    A, C = terms
    floor = 1e-3 * max(A.max(), C.max())
    return np.maximum(A, floor), np.maximum(C, floor)


def _literal_nu_hat(A, C, gamma):
    """nu_hat of the terms from its definition, column by column."""
    total = sum(A[:, k] + gamma[k] / (2.0 - gamma[k]) * C[:, k]
                for k in range(len(gamma)))
    return sum(0.5 / g for g in gamma) * float(np.max(total))


def test_optimal_weights_of_two_rows_reach_the_dual_optimum():
    # the two rows trade off against each other: a 1501^2 grid over gamma
    # finds 2.6242540, the dual optimum is 2.624252494
    from cordeslab.conditions import _nu_hat_value, _optimal_weights
    A = np.array([[0.25, 0.0], [1.0, 0.75]])
    C = np.array([[1.0, 1.0], [0.75, 0.25]])
    gamma, bound = _optimal_weights(A, C)
    value = _nu_hat_value(A, C, gamma)
    assert abs(value - 2.624252494) <= 1e-9 * 2.624252494
    assert value - bound <= 1e-9 * value


@settings(max_examples=60, deadline=None)
@given(terms=nu_hat_terms())
def test_optimal_weights_close_the_duality_gap(terms):
    from cordeslab.conditions import (GAMMA_MAX, GAMMA_MIN, _nu_hat_value,
                                      _optimal_weights)
    A, C = _floored(terms)
    gamma, bound = _optimal_weights(A, C)
    assert np.all((GAMMA_MIN <= gamma) & (gamma <= GAMMA_MAX))
    value = _nu_hat_value(A, C, gamma)
    assert bound <= value
    assert value - bound <= 1e-9 * value
    assert value == _literal_nu_hat(A, C, gamma)


@settings(max_examples=25, deadline=None)
@given(terms=nu_hat_terms(columns=2))
def test_optimal_weights_beat_a_fine_grid(terms):
    from cordeslab.conditions import (GAMMA_MAX, GAMMA_MIN, _nu_hat_value,
                                      _optimal_weights)
    A, C = _floored(terms)
    m = A.shape[1]
    value = _nu_hat_value(A, C, _optimal_weights(A, C)[0])
    axis = np.linspace(GAMMA_MIN, GAMMA_MAX, 201)
    grid = np.stack(np.meshgrid(*[axis] * m, indexing="ij"),
                    axis=-1).reshape(-1, m)
    w = grid / (2.0 - grid)
    rows = (A[None] + w[:, None] * C[None]).sum(axis=2).max(axis=1)
    assert ((0.5 / grid).sum(axis=1) * rows).min() >= value * (1 - 1e-12)


def test_optimal_weights_of_one_row_are_the_closed_form():
    from cordeslab.conditions import _nu_hat_value, _optimal_weights
    rng = np.random.default_rng(13)
    for m in (1, 2, 3, 4, 5):
        C = rng.uniform(0.1, 2.0, (1, m))
        A = C + rng.uniform(0.0, 2.0, (1, m))
        closed = (np.sqrt(m * A.sum()) + np.sqrt(C).sum()) ** 2 / 4.0
        gamma, bound = _optimal_weights(A, C)
        assert abs(_nu_hat_value(A, C, gamma) - closed) <= 1e-12 * closed
        assert abs(bound - closed) <= 1e-12 * closed


def test_report_carries_the_dual_bound():
    # the bound certifies the searched weights; supplied weights have none
    f = make_field(2, 1.0, Box((0.0, 0.0), (1.0, 1.0)),
                   [["1.3 + 0.2*x1", 0.2], [0.2, "1.1 - 0.1*x2"]])
    samples = sample_set(f.sampling_box(), f.T, space=3, time=1)
    rep = full_report(f, samples=samples)
    assert rep.index_set == (1, 2)
    assert rep.nu_hat_bound <= rep.nu_hat
    assert rep.nu_hat - rep.nu_hat_bound <= 1e-9 * rep.nu_hat
    assert json.loads(rep.to_json())["nu_hat_bound"] == rep.nu_hat_bound
    rep = full_report(f, samples=samples, index_set=(1, 2),
                      gamma={1: 1.0, 2: 1.0})
    assert rep.nu_hat_bound is None
    rep = full_report(builtin_problem("identity_heat", {"n": 2}))
    assert rep.nu_hat == 0.0 and rep.nu_hat_bound == 0.0


def test_optimize_gamma_of_five_coordinates():
    # five covered coordinates: the reported value is nu_hat at the
    # returned weights, and no worse than at gamma = 1
    n = 5
    b = [[f"1.1 + 0.2*x{i + 1}" if i == j else
          0.05 * (abs(i - j) == 1) for j in range(n)] for i in range(n)]
    f = make_field(n, 1.0, Box((0.0,) * n, (1.0,) * n), b)
    samples = sample_set(f.sampling_box(), f.T, space=3, time=1)
    d = decompose(f, "identity", samples, index_set=range(1, n + 1))
    gamma, value = optimize_gamma(d, samples)
    assert sorted(gamma) == list(range(1, n + 1))
    assert value == nu_hat(d, samples, gamma)
    assert value <= nu_hat(d, samples, dict.fromkeys(gamma, 1.0))


def test_optimize_gamma_trivial():
    f = builtin_problem("identity_heat", {"n": 2})
    gamma, value = optimize_gamma(decompose(f, "identity"))
    assert gamma == {} and value == 0.0


# ----------------------------------------------------------------------------
# index-set search


def test_select_index_set_benchmark():
    d = benchmark_decomp(0.6, 0.8)
    idx, gamma, value, note = select_index_set(d)
    assert idx == (1,)
    assert abs(value - 1.0) <= 1e-4
    # the competing cover {2, 3} pays twice as much
    g23, v23 = optimize_gamma(d, index_set=(2, 3))
    assert abs(v23 - 2.0) <= 1e-3
    assert note == ""


def test_select_index_set_trivial():
    f = builtin_problem("identity_heat", {"n": 3})
    idx, gamma, value, _ = select_index_set(decompose(f, "identity"))
    assert idx == () and value == 0.0


def test_select_index_set_tie_lexicographic():
    f = make_field(2, 1.0, Box((0, 0), (1, 1)), [[1.0, 0.3], [0.3, 1.0]])
    d = decompose(f, "identity")
    idx, gamma, value, _ = select_index_set(d)
    assert idx == (1,)
    _, v2 = optimize_gamma(d, index_set=(2,))
    assert abs(value - v2) <= 1e-12


def test_select_index_set_beyond_sixteen_coordinates_is_greedy():
    # 17 coordinates: a star around x5 and the pair (16, 17); the greedy
    # cover takes the coordinate of highest remaining degree first
    n = 17
    b = np.eye(n).tolist()
    for i, j, value in ((4, 0, 0.2), (4, 1, "0.1*x1"), (4, 2, 0.1),
                        (15, 16, 0.3)):
        b[i][j] = b[j][i] = value
    f = make_field(n, 1.0, Box((0.0,) * n, (1.0,) * n), b)
    samples = SampleSet(np.array([[0.2] * n, [0.7] * n]), np.array([0.5]))
    d = decompose(f, "identity", samples)
    idx, gamma, value, note = select_index_set(d, samples)
    pattern = sparsity_pattern(d, samples)
    outside = np.ones(n, dtype=bool)
    outside[[k - 1 for k in idx]] = False
    assert pattern.any() and not (pattern & outside[:, None]
                                  & outside[None, :]).any()
    assert idx == (5, 16) and sorted(gamma) == [5, 16]
    assert note == "greedy cover heuristic (n > 16); not exhaustive"


# ----------------------------------------------------------------------------
# the split condition and classical checks


def test_split_condition_benchmark_thresholds():
    f = builtin_problem("paper_3x3",
                        {"alpha": 0.9, "beta": 0.4})  # 0.97 < 1
    _, delta, value, verdict = check_split_condition(f)
    assert delta == 1.0 and verdict.ok
    assert value < 1.0
    f = builtin_problem("paper_3x3", {"alpha": 1.1, "beta": 0.0})  # 1.21
    _, _, value, verdict = check_split_condition(f)
    assert not verdict.ok and value > 1.0


def test_split_condition_of_a_decomposition_on_a_given_index_set():
    # a decomposition carrying the minimal cover (1,) is checked on the
    # index set given beside it, as a split spec with that set would be
    f = builtin_problem("paper_3x3", {"alpha": 0.9, "beta": 0.4})
    decomp = decompose(f, "identity")
    assert decomp.index_set == (1,)
    got = check_split_condition(f, decomp, index_set=(1, 2, 3))
    want = check_split_condition(f, "identity", index_set=(1, 2, 3))
    assert got[0].index_set == want[0].index_set == (1, 2, 3)
    assert got[0].gamma == want[0].gamma
    assert got[1:3] == want[1:3]
    assert got[3].ok is want[3].ok is False     # (1,) alone passes


def test_split_condition_sufficient_frobenius_bound():
    rng = np.random.default_rng(371)
    # remainder with squared Frobenius mass 0.3 delta^2 / n is always fine
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        bh = 0.5 * (a + a.T)
        bh *= np.sqrt(0.3 / n) / np.linalg.norm(bh)
        f = make_field(n, 1.0, Box((0.0,) * n, (1.0,) * n), np.eye(n) + bh)
        samples = sample_set(f.sampling_box(), f.T, space=2, time=1)
        _, delta, value, verdict = check_split_condition(f, samples=samples)
        assert verdict.ok, (n, value, delta)


def test_split_condition_of_a_field_sweep_on_one_sample_set():
    # one reference part and one sample set shared by every field of the
    # sweep: each nu_hat is that field's, not the first field's remainder
    f0 = builtin_problem("paper_3x3", {"alpha": 0.1, "beta": 0.1})
    shared = sample_set(f0.sampling_box(), f0.T)
    d0 = decompose(f0, "identity", shared)
    values, verdicts = [], []
    for alpha in (0.1, 0.5, 0.9, 1.2):
        f = builtin_problem("paper_3x3", {"alpha": alpha, "beta": 0.1})
        _, delta, value, verdict = check_split_condition(
            f, Decomposition(f, d0.b_bar, d0.index_set), shared)
        fresh = sample_set(f.sampling_box(), f.T)
        _, _, expected, _ = check_split_condition(
            f, Decomposition(f, d0.b_bar, d0.index_set), fresh)
        assert delta == 1.0 and value == expected
        values.append(value)
        verdicts.append(verdict.ok)
    assert values == pytest.approx([0.02, 0.26, 0.82, 1.45], rel=1e-5)
    assert verdicts == [True, True, True, False]


def test_nu_hat_of_two_fields_sharing_a_reference_part():
    box = Box((0.0, 0.0), (1.0, 1.0))
    flat = make_field(2, 1.0, box, np.eye(2))
    steep = make_field(2, 1.0, box, np.diag([1.9, 1.0]))
    samples = sample_set(box, 1.0, space=3, time=1)
    d_flat = decompose(flat, "identity", samples)
    assert d_flat.index_set == () and nu_hat(d_flat, samples) == 0.0
    d_steep = Decomposition(steep, d_flat.b_bar, (1,), {1: 1.0})
    # 1/(2 gamma) * (bh11^2 + gamma/(2 - gamma) * bh11^2) with bh11 = 0.9
    assert nu_hat(d_steep, samples) == pytest.approx(0.81, rel=1e-12)


def test_classical_identity_all_pass():
    f = builtin_problem("identity_heat", {"n": 3})
    for which in ("cordes", "talenti", "landis", "gihman_skorohod"):
        v = check_classical(f, which)
        assert v.applicable and v.ok and v.margin > 0


def test_classical_thresholds_on_benchmark():
    cases = [
        (0.8, {"cordes": False, "talenti": False, "gihman_skorohod": False}),
        (0.70, {"cordes": True, "talenti": True}),
        (0.6, {"gihman_skorohod": False}),
        (0.45, {"gihman_skorohod": True}),
        (0.45 ** 2, {"landis": False}),
        (0.35 ** 2, {"landis": True}),
    ]
    for ab2, expected in cases:
        f = builtin_problem("paper_3x3", {"alpha": np.sqrt(ab2), "beta": 0.0})
        for which, want in expected.items():
            got = check_classical(f, which)
            assert got.ok is want, (ab2, which, got)


def test_landis_margin_formula():
    # spectrum {1 - r, 1, 1 + r}: margin 5(1 - r) - 3 = 2 - 5r
    for r in (0.1, 0.3, 0.39, 0.41):
        f = builtin_problem("paper_3x3", {"alpha": r, "beta": 0.0})
        v = check_classical(f, "landis")
        assert abs(v.margin - (2.0 - 5.0 * r)) <= 1e-12
        assert v.note != ""


def test_cordes_not_applicable_below_n3():
    f = builtin_problem("checkerboard_2d", {"low": 1.0, "high": 2.0})
    v = check_classical(f, "cordes")
    assert not v.applicable and v.ok is None


def test_gihman_skorohod_needs_identity_reference():
    f = builtin_problem("checkerboard_2d", {"low": 1.0, "high": 2.0})
    samples = sample_set(f.sampling_box(), f.T)
    v = check_classical(f, "gihman_skorohod", samples,
                        b_bar=decompose(f, "constant", samples))
    assert not v.applicable


def test_talenti_equivalence_identity_random():
    rng = np.random.default_rng(371)
    # (n-1) sum_{i<j} (li - lj)^2 < (sum l)^2 iff (n-1) sum l^2 < (sum l)^2
    disagreements = 0
    for _ in range(1000):
        n = int(rng.integers(3, 6))
        a = rng.standard_normal((n, n))
        m = 0.5 * (a + a.T)
        lam = symmetric_eigenvalues(m)
        assert abs((lam ** 2).sum() - (m ** 2).sum()) <= 1e-8
        s = lam.sum()
        cordes_lhs = (n - 1) * sum((lam[i] - lam[j]) ** 2
                                   for i in range(n) for j in range(i + 1, n))
        talenti_lhs = (n - 1) * (lam ** 2).sum()
        if (cordes_lhs < s ** 2) != (talenti_lhs < s ** 2):
            disagreements += 1
    assert disagreements == 0


# ----------------------------------------------------------------------------
# aggregated reports


def test_full_report_benchmark_comparison():
    f = builtin_problem("paper_3x3", {"alpha": np.sqrt(0.8), "beta": 0.0})
    rep = full_report(f)
    assert rep.satisfied
    assert rep.verdicts["cordes"].ok is False
    assert rep.verdicts["talenti"].ok is False
    assert rep.verdicts["gihman_skorohod"].ok is False
    assert rep.index_set == (1,)
    assert rep.eigen_range[0] == pytest.approx(1 - np.sqrt(0.8), abs=1e-12)


def test_full_report_identity_all_pass():
    f = builtin_problem("identity_heat", {"n": 3})
    rep = full_report(f)
    assert rep.satisfied
    for name, v in rep.verdicts.items():
        assert v.ok, name


def test_full_report_opposite_ordering_checkerboard():
    # large jumps break the split condition while the eigenvalue-spread
    # checks (landis here; cordes needs n >= 3) stay satisfied
    f = builtin_problem("checkerboard_2d", {"low": 1.0, "high": 4.0})
    rep = full_report(f, split_spec="constant")
    assert not rep.satisfied
    assert rep.verdicts["landis"].ok is True
    assert not rep.verdicts["cordes"].applicable


def test_full_report_json_roundtrip():
    f = builtin_problem("paper_3x3", {"alpha": 0.5, "beta": 0.0})
    rep = full_report(f)
    data = json.loads(rep.to_json())
    assert data["schema"] == "v1"
    assert data["verdicts"]["split_condition"]["ok"] is True
    assert data["N"] == [1]
    assert data["params"]["n"] == 3


def test_full_report_parameter_echo():
    f = make_field(2, 0.7, Box((0, 0), (1, 1)),
                   [[2.0, 0.0], [0.0, 2.0]], f=[0.3, -0.4], lam=(0.2, 0.5))
    rep = full_report(f, split_spec="constant")
    p = rep.params
    assert p["T"] == 0.7 and p["domain"] == [[0.0, 0.0], [1.0, 1.0]]
    assert abs(p["sup_b"] - np.sqrt(8.0)) <= 1e-12          # frobenius
    assert abs(p["sup_f"] - 0.5) <= 1e-12                   # euclidean
    assert abs(p["sup_lambda"] - np.hypot(0.2, 0.5)) <= 1e-12
    assert rep.eigen_range == (2.0, 2.0)


def test_verdicts_invariant_under_relabeling():
    rng = np.random.default_rng(99)
    for _ in range(6):
        n = 4
        a = rng.standard_normal((n, n)) * 0.35
        bh = 0.5 * (a + a.T)
        b = np.eye(n) * rng.uniform(1.0, 2.0) + bh
        perm = rng.permutation(n)
        P = np.eye(n)[perm]
        b_perm = P @ b @ P.T
        reps = []
        for m in (b, b_perm):
            f = make_field(n, 1.0, Box((0.0,) * n, (1.0,) * n), m)
            samples = sample_set(f.sampling_box(), f.T, space=2, time=1)
            reps.append(full_report(f, split_spec="constant", samples=samples))
        for name in reps[0].verdicts:
            assert reps[0].verdicts[name].ok == reps[1].verdicts[name].ok, name
        assert abs(reps[0].nu_hat - reps[1].nu_hat) <= 1e-9
