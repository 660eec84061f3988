import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from cordeslab.fields import (Box, ExprField, FieldConstructionError,
                              _bump_kernel, _probe_points, _smooth_parts,
                              builtin_problem, builtin_solve_data, decompose,
                              eval_field, make_field, minimal_vertex_cover,
                              mollify, sample_set, sparsity_pattern)
from cordeslab.grid import build_grid



def random_points(rng, field, count):
    box = field.sampling_box()
    x = rng.uniform(box.lo, box.hi, size=(count, field.n))
    t = rng.uniform(0.0, field.T, size=count)
    return x, t


# ----------------------------------------------------------------------------
# evaluation


def test_identity_field_eval():
    f = builtin_problem("identity_heat", {"n": 2})
    b, drift, lam = eval_field(f, [0.3, 0.4], 0.5)
    assert np.array_equal(b, np.eye(2))
    assert np.array_equal(drift, np.zeros(2))
    assert lam == 0


def test_benchmark_3x3_matrix():
    f = builtin_problem("paper_3x3", {"alpha": 0.6, "beta": 0.0})
    b, _, _ = eval_field(f, [0.0, 0.0, 0.0], 0.5)
    expected = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(b, expected)


def test_vanishes_outside_domain_and_horizon():
    f = builtin_problem("paper_3x3", {"alpha": 0.6, "beta": 0.2})
    b, drift, lam = eval_field(f, [0.0, 0.0, 0.0], f.T + 0.5)
    assert np.all(b == 0) and np.all(drift == 0) and lam == 0
    b, _, _ = eval_field(f, [5.0, 0.0, 0.0], 0.5)
    assert np.all(b == 0)
    # the bulk evaluators give the formulas' values outside Q
    assert np.all(np.diag(f.eval_b([[5.0, 0.0, 0.0]], f.T + 0.5)[0]) > 0)


@pytest.mark.parametrize("name,params", [
    ("identity_heat", {"n": 2}),
    ("paper_3x3", {"alpha": 0.5, "beta": 0.3}),
    ("checkerboard_2d", {"low": 1.0, "high": 2.0, "cells": 4}),
    ("manufactured_1d", {}),
    ("gaussian_free_space", {"n": 1}),
])
def test_symmetry_and_beta_factorization(name, params):
    rng = np.random.default_rng(2024)
    f = builtin_problem(name, params)
    x, ts = random_points(rng, f, 10_000)
    for t in (0.0, float(ts[0]), f.T):
        b = f.eval_b(x, t)
        assert np.array_equal(b, np.swapaxes(b, 1, 2))
        if f.beta is not None:
            beta = f.eval_beta(x, t)
            prod = 0.5 * np.einsum("pik,pjk->pij", beta, beta)
            assert np.abs(prod - b).max() <= 1e-12


def test_builtin_errors():
    with pytest.raises(KeyError):
        builtin_problem("no_such_problem")
    with pytest.raises(KeyError):
        builtin_problem("paper_3x3", {"alpha": 0.5})  # beta missing


def test_construction_rejects_asymmetry():
    with pytest.raises(FieldConstructionError):
        make_field(2, 1.0, Box((0, 0), (1, 1)), [[1.0, "x1"], [0.0, 1.0]])


def test_construction_rejects_wrong_beta():
    with pytest.raises(FieldConstructionError):
        make_field(1, 1.0, Box((0,), (1,)), [[1.0]], beta=[[1.0]])


def test_construction_rejects_out_of_range_variable():
    with pytest.raises(FieldConstructionError):
        make_field(1, 1.0, Box((0,), (1,)), [["1 + 0*x3"]])


def test_checkerboard_against_table_oracle():
    rng = np.random.default_rng(2024)
    low, high, cells = 1.0, 2.0, 4
    f = builtin_problem("checkerboard_2d",
                        {"low": low, "high": high, "cells": cells})
    x, _ = random_points(rng, f, 500)

    def oracle(pt):
        i = min(int(pt[0] * cells), cells - 1)
        j = min(int(pt[1] * cells), cells - 1)
        return low if (i + j) % 2 == 0 else high

    b = f.eval_b(x, 0.25)
    for p in range(len(x)):
        c = oracle(x[p])
        assert b[p, 0, 0] == c and b[p, 1, 1] == c
        assert b[p, 0, 1] == 0.0


# ----------------------------------------------------------------------------
# decomposition


def test_decompose_identity_trivial():
    rng = np.random.default_rng(2024)
    f = builtin_problem("identity_heat", {"n": 3})
    d = decompose(f, "identity")
    assert d.index_set == ()
    x, _ = random_points(rng, f, 100)
    assert np.abs(d.eval_b_hat(x, 0.5)).max() == 0.0


def test_decompose_benchmark_pattern_and_cover():
    rng = np.random.default_rng(2024)
    f = builtin_problem("paper_3x3", {"alpha": 0.6, "beta": 0.2})
    d = decompose(f, "identity")
    samples = sample_set(f.sampling_box(), f.T)
    pattern = sparsity_pattern(d, samples)
    expected = np.array([[False, True, True],
                         [True, False, False],
                         [True, False, False]])
    assert np.array_equal(pattern, expected)
    assert d.index_set == (1,)
    x, _ = random_points(rng, f, 64)
    bh = d.eval_b_hat(x, 0.3)
    assert np.allclose(bh[:, 0, 1], 0.6) and np.allclose(bh[:, 0, 2], 0.2)
    assert np.abs(bh[:, 1, 1:]).max() == 0.0


def test_decompose_readd_reproduces_b():
    rng = np.random.default_rng(2024)
    for name, params in [("paper_3x3", {"alpha": 0.4, "beta": 0.1}),
                         ("checkerboard_2d", {"low": 1, "high": 3})]:
        f = builtin_problem(name, params)
        for spec in ("identity", "constant"):
            d = decompose(f, spec)
            x, ts = random_points(rng, f, 2000)
            t = float(ts[0])
            total = d.eval_b_bar(x, t) + d.eval_b_hat(x, t)
            assert np.abs(total - f.eval_b(x, t)).max() <= 1e-12


def test_constant_reference_split_matches_averaging_oracle():
    f = make_field(2, 1.0, Box((0, 0), (1, 1)),
                   [[1.0, 0.0], [0.0, "1 + step(x1 - 0.5)"]])
    samples = sample_set(f.sampling_box(), f.T, space=9, time=3)
    d = decompose(f, "constant", samples)
    # independent averaging oracle over the same sample set
    acc = np.zeros((2, 2))
    for t in samples.times:
        vals = np.where(samples.points[:, 0] >= 0.5, 2.0, 1.0)
        acc += np.stack([np.full(len(vals), 1.0), np.zeros(len(vals)),
                         np.zeros(len(vals)), vals], axis=-1) \
            .mean(axis=0).reshape(2, 2)
    acc /= len(samples.times)
    got = d.eval_b_bar(np.array([[0.1, 0.1]]), 0.0)[0]
    assert np.abs(got - acc).max() <= 1e-12
    assert abs(got[1, 1] - 1.5) <= 0.05
    assert 2 in d.index_set


def test_user_index_set_must_cover():
    f = builtin_problem("paper_3x3", {"alpha": 0.6, "beta": 0.2})
    with pytest.raises(FieldConstructionError):
        decompose(f, "identity", index_set=(2,))
    d = decompose(f, "identity", index_set=(2, 3))
    assert d.index_set == (2, 3)


@pytest.mark.parametrize("index_set", [(-2,), (4,), (0,), (1.5,)])
def test_index_set_outside_one_to_n_is_refused(index_set):
    # -2 once acted as x1, 4 raised a bare IndexError and 0 was refused as
    # not covering; each is a coordinate the 3-D field lacks
    f = builtin_problem("paper_3x3", {"alpha": 0.6, "beta": 0.2})
    with pytest.raises(FieldConstructionError, match="outside 1..n"):
        decompose(f, "identity", index_set=index_set)


def test_repeated_index_counts_once():
    f = builtin_problem("paper_3x3", {"alpha": 0.6, "beta": 0.2})
    assert decompose(f, "identity", index_set=(3, 1, 1, 3)).index_set == \
        decompose(f, "identity", index_set=(1, 3)).index_set == (1, 3)


def test_box_and_horizon_must_be_finite():
    for lo, hi in [((0.0,), (np.inf,)), ((np.nan,), (1.0,)),
                   ((0.0, -np.inf), (1.0, 1.0))]:
        with pytest.raises(FieldConstructionError, match="finite"):
            Box(lo, hi)
    for T in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(FieldConstructionError, match="T = "):
            make_field(1, T, Box((0,), (1,)), [[1.0]])


def test_minimal_vertex_cover_rules():
    pattern = np.zeros((3, 3), dtype=bool)
    assert minimal_vertex_cover(pattern) == ()
    pattern[0, 1] = pattern[1, 0] = True
    assert minimal_vertex_cover(pattern) == (1,)
    pattern[1, 1] = True  # diagonal entry forces membership
    assert minimal_vertex_cover(pattern) == (2,)


# ----------------------------------------------------------------------------
# mollification


def test_mollify_constant_is_fixed_point():
    f = builtin_problem("identity_heat", {"n": 1})
    d = decompose(f, "identity")
    mf = mollify(d, eps=0.1)
    assert np.abs(mf.b_eps - 1.0).max() <= 1e-12
    assert mf.moduli["nu_b"] <= 1e-12
    assert mf.moduli["nu_b_bar"] <= 1e-10


def test_constant_entries_smooth_to_themselves():
    # the construction's kernel in 3-D (spacing eps/3, 93 taps), next to
    # non-constant entries; its weights sum 0.37 to 0.3700000000000003
    b = [[0.37, 0.1, 0.0], [0.1, "1 + 0.2*step(x2)", 0.0], [0.0, 0.0, 1.0]]
    f = make_field(3, 1.0, Box((-1.0,) * 3, (1.0,) * 3), b,
                   f=[0.0, -0.2, "sin(x1)"], lam=(0.3, -1.7))
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, 3))
    b_s, f_s, lam_s = _smooth_parts(f.b, f, pts, 0.3, [0.1] * 3, 0.0)
    assert len(np.flatnonzero(_bump_kernel(0.3, [0.1] * 3)[1])) == 93
    for (i, j), value in {(0, 0): 0.37, (0, 1): 0.1, (1, 0): 0.1,
                          (0, 2): 0.0, (2, 2): 1.0}.items():
        assert np.all(b_s[:, i, j] == value)
    assert np.all(f_s[:, :2] == [0.0, -0.2]) and np.all(lam_s == 0.3 - 1.7j)
    assert not np.all(b_s[:, 1, 1] == b_s[0, 1, 1])


def test_mollify_step_rate_has_steep_gradient():
    f = make_field(1, 1.0, Box((-1.0,), (1.0,)), [[1.0]], lam="step(x1)")
    mf = mollify(f, eps=0.1)
    grad = mf.moduli["nu_lambda_bar"]
    assert np.isfinite(grad) and grad > 1.0
    # closed-form oracle: the peak slope of the smoothed step is the
    # kernel's center value, 35/(32*eps) in one dimension
    assert abs(grad - 35.0 / (32.0 * 0.1)) <= 0.15 * grad


def test_mollify_linear_drift_unchanged():
    f = make_field(1, 1.0, Box((0.0,), (1.0,)), [[1.0]], f=["2*x1 - 0.5"])
    mf = mollify(f, eps=0.05)
    assert mf.moduli["nu_f"] <= 1e-6


def test_mollify_moduli_shrink_with_eps():
    f = make_field(1, 1.0, Box((0.0,), (1.0,)),
                   [["1.5 + 0.4*sin(6.283185307179586*x1)"]])
    values = [mollify(f, eps=e).moduli["nu_b"] for e in (0.2, 0.1, 0.05)]
    assert values[0] >= values[1] - 1e-9 >= values[2] - 2e-9
    assert all(np.isfinite(v) for v in values)


def test_mollify_rejects_bad_radius():
    f = builtin_problem("identity_heat", {"n": 1})
    with pytest.raises(ValueError):
        mollify(f, eps=0.0)


def test_mollify_refuses_a_radius_its_lattice_cannot_resolve():
    # 41 nodes an axis on [-1, 1]^3: spacing 0.05, so at eps = 0.04 the
    # taps at +-0.05 weigh 0 and the smoothing would be the identity
    b = [["1 + 0.3*step(x1)", 0.1, 0.0], [0.1, "1.5 + 0.2*sign(x2)", 0.0],
         [0.0, 0.0, 1.0]]
    f = make_field(3, 1.0, Box((-1.0,) * 3, (1.0,) * 3), b,
                   f=["sign(x3)", "step(x1)", 0.0], lam="step(x2)")
    with pytest.raises(ValueError, match=r"eps=0\.04 .* spacing 0\.05"):
        mollify(f, eps=0.04)
    mf = mollify(f, eps=0.06)
    assert all(len(axis) == 41 for axis in mf.axes)
    assert min(mf.moduli[k] for k in ("nu_b", "nu_f", "nu_lambda")) > 0.0


def test_mollify_subdomain_adds_outside_sup():
    # drift kink at x = 0.8 sits outside the smoothing box, so its
    # smoothing error enters through the sup term over the leftover region
    f = make_field(1, 1.0, Box((0.0,), (1.0,)), [[1.0]],
                   f=["abs(x1 - 0.8)"])
    eps = 0.05
    inner = mollify(f, eps=eps, box=Box((0.0,), (0.5,)))
    # inside (0, 0.5) the drift is linear, so the volume part vanishes and
    # only the outside sup survives; at the kink it is at most 35*eps/128
    assert 0.0 < inner.moduli["nu_f"] <= 35 * eps / 128 + 1e-9
    f_linear = make_field(1, 1.0, Box((0.0,), (1.0,)), [[1.0]],
                          f=["2*x1"])
    clean = mollify(f_linear, eps=eps, box=Box((0.0,), (0.5,)))
    assert clean.moduli["nu_f"] <= 1e-9


def test_mollify_holds_one_time_at_once():
    # the result stacks are filled time by time: besides them, one time's
    # smoothed values and errors are alive at once (the peak was 2.9
    # times the result when all three times were held)
    b = [["1 + 0.3*step(x1)", "0.2*sign(x2)", 0.0],
         ["0.2*sign(x2)", 1.0, 0.0], [0.0, 0.0, 1.0]]
    f = make_field(3, 0.5, Box((-1.0,) * 3, (1.0,) * 3), b,
                   f=["0.5*sign(x3)", "0.2", "sin(x1)"],
                   lam=("1 + 0.5*step(x2)", "0.3*x1"))
    tracemalloc.start()
    try:
        mf = mollify(f, eps=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = mf.b_eps.nbytes + mf.f_eps.nbytes + mf.lam_eps.nbytes
    assert mf.b_eps.shape == (3, 3, 3, 17, 17, 17)
    assert peak <= 2.5 * result


def test_builtin_solve_data_manufactured():
    f = builtin_problem("manufactured_1d", {})
    phi, Phi, exact = builtin_solve_data("manufactured_1d", f.T)
    x = np.array([[0.5]])
    assert abs(exact.eval_raw(x, 0.0)[0] - 1.0) <= 1e-12
    assert abs(Phi.eval_raw(x, 0.0)[0] - np.exp(-f.T)) <= 1e-12
    assert abs(phi.eval_raw(x, 0.0)[0] - (1 + np.pi ** 2)) <= 1e-12
    assert builtin_solve_data("identity_heat", 1.0) is None


def _fresh(text, x, t):
    """``text`` evaluated with no hold, at a writable copy of ``x``."""
    return ExprField(text).eval_raw(np.array(x), t)


TIMED = "sin(3*x1)*cos(x2) + exp(-t)*sin(3*x1) - step(x2 - t)"


def test_a_writable_array_changed_in_place_is_evaluated_afresh():
    rng = np.random.default_rng(2024)
    f = ExprField(TIMED)
    x = rng.uniform(0, 1, size=(6, 2))
    for t in (0.1, 0.2):
        assert np.array_equal(f.eval_raw(x, t), _fresh(TIMED, x, t))
        x += 0.5
        assert np.array_equal(f.eval_raw(x, t), _fresh(TIMED, x, t))
    assert f._hold[0] is None


def test_alternating_grids_give_each_grid_its_values():
    f = ExprField(TIMED)
    box = Box((0.0, 0.0), (1.0, 1.0))
    grids = [build_grid(box, m, 4, 1.0) for m in (5, 7)]
    for t in (0.0, 0.25, 0.5):
        for g in grids + grids[::-1]:
            got = f.eval_raw(g.nodes(), t)
            assert f._hold[0] is g.nodes()
            assert np.array_equal(got, _fresh(TIMED, g.nodes(), t))


def test_held_values_are_read_only_and_results_fresh():
    nodes = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 5, 4, 1.0).nodes()
    for text in (TIMED, "sin(x1) + x2"):
        f = ExprField(text)
        out = f.eval_raw(nodes, 0.5)
        held = [v for v in f._hold[1] if isinstance(v, np.ndarray)]
        assert held and not any(v.flags.writeable for v in held)
        first = out.copy()
        out += 1.0    # the caller's array is its own
        assert np.array_equal(f.eval_raw(nodes, 0.5), first)


def test_fields_of_one_text_do_not_share_a_hold():
    box = Box((0.0, 0.0), (1.0, 1.0))
    a, b = (build_grid(box, m, 4, 1.0).nodes() for m in (5, 7))
    f, g = ExprField(TIMED), ExprField(TIMED)
    f.eval_raw(a, 0.5)
    g.eval_raw(b, 0.5)
    assert f._hold[0] is a and g._hold[0] is b
    assert np.array_equal(f.eval_raw(a, 0.75), _fresh(TIMED, a, 0.75))


def test_concurrent_callers_see_matching_holds():
    # six threads alternate three grids and two times on one field; a hold
    # stored in two steps would pair one grid's values with another's
    box = Box((0.0, 0.0), (1.0, 1.0))
    grids = [build_grid(box, m, 4, 1.0).nodes() for m in (5, 7, 9)]
    times = (0.1, 0.2)
    want = {(i, t): _fresh(TIMED, g, t) for i, g in enumerate(grids)
            for t in times}
    f = ExprField(TIMED)

    def work(k):
        for r in range(3000):
            i, t = (k + r) % len(grids), times[r % 2]
            if not np.array_equal(f.eval_raw(grids[i], t), want[i, t]):
                return False
        return True
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            results = list(pool.map(work, range(6), timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert results == [True] * 6


def test_held_bytes_of_the_timedep_workload_source(monkeypatch):
    # the source of bench workload solve_timedep_2d at its 95^2 nodes: only
    # the time-free values that time-dependent subtrees read are held
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import workloads
    phi, _ = workloads._td2_source_text(0.2)
    nodes = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 95, 48, 0.25).nodes()
    f = ExprField(phi)
    f.eval_raw(nodes, 0.0)
    held = sum(v.nbytes for v in f._hold[1] if isinstance(v, np.ndarray))
    assert 0 < held <= 13 * len(nodes) * 8


@pytest.mark.parametrize("lam, real", [
    (0.0, True), ("1 + x1", True), (complex(2.0, 0.0), True),
    (("1", "0"), True), (("1", 0.0), True), (("1", "0*x1"), False),
    (complex(0.0, 1.0), False), (("1", "step(x1 - 5)"), False),
    (("1", "3*step(t - 0.6)*step(0.9 - t)"), False)])
def test_lambda_is_real_reads_the_entries(monkeypatch, lam, real):
    # the rate is real exactly when its imaginary entry is the constant 0,
    # even where an imaginary expression vanishes on the whole box; the
    # rule evaluates no entry
    f = make_field(1, 1.0, Box((-1,), (1,)), [["1"]], lam=lam)
    calls = []
    for entry in (f.lam_re, f.lam_im):
        evaluate = entry.eval_raw
        monkeypatch.setattr(entry, "eval_raw", lambda *a, evaluate=evaluate:
                            calls.append(a) or evaluate(*a))
    assert f.lambda_is_real is real
    assert calls == []


def test_time_dependent_is_decided_once(monkeypatch):
    from cordeslab.expr import Expr
    f = make_field(2, 1.0, Box((0, 0), (1, 1)), [["1 + t", "0"], ["0", "x1"]],
                   f=["x2", "0"], lam="sin(x1)")
    calls = []
    uses_t = Expr.uses_t
    monkeypatch.setattr(Expr, "uses_t",
                        lambda self: calls.append(self) or uses_t(self))
    assert f.time_dependent
    first = len(calls)
    assert f.time_dependent
    assert first > 0 and len(calls) == first


def test_probe_of_a_high_dimensional_field_takes_its_corners_lazily():
    # 16 of the 2^18 box corners, the first in product order: building
    # all of them peaked at about 50 MB
    box = Box((0.0,) * 5, (1.0,) * 5)
    corners = list(itertools.product(*zip(box.lo, box.hi)))[:16]
    assert np.array_equal(_probe_points(box, 1.0)[0][0][:16], corners)
    n = 18
    tracemalloc.start()
    try:
        f = make_field(n, 1.0, Box((0.0,) * n, (1.0,) * n), np.eye(n).tolist())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.n == n and peak < 4e6
