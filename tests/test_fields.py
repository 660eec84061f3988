import numpy as np
import pytest

from cordeslab.fields import (Box, FieldConstructionError, builtin_problem,
                              builtin_solve_data, decompose, eval_field,
                              make_field, minimal_vertex_cover, mollify,
                              sample_set, sparsity_pattern)

RNG = np.random.default_rng(2024)


def random_points(field, count):
    box = field.sampling_box()
    x = RNG.uniform(box.lo, box.hi, size=(count, field.n))
    t = RNG.uniform(0.0, field.T, size=count)
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


@pytest.mark.parametrize("name,params", [
    ("identity_heat", {"n": 2}),
    ("paper_3x3", {"alpha": 0.5, "beta": 0.3}),
    ("checkerboard_2d", {"low": 1.0, "high": 2.0, "cells": 4}),
    ("manufactured_1d", {}),
    ("gaussian_free_space", {"n": 1}),
])
def test_symmetry_and_beta_factorization(name, params):
    f = builtin_problem(name, params)
    x, ts = random_points(f, 10_000)
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
    low, high, cells = 1.0, 2.0, 4
    f = builtin_problem("checkerboard_2d",
                        {"low": low, "high": high, "cells": cells})
    x, _ = random_points(f, 500)

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
    f = builtin_problem("identity_heat", {"n": 3})
    d = decompose(f, "identity")
    assert d.index_set == ()
    x, _ = random_points(f, 100)
    assert np.abs(d.eval_b_hat(x, 0.5)).max() == 0.0


def test_decompose_benchmark_pattern_and_cover():
    f = builtin_problem("paper_3x3", {"alpha": 0.6, "beta": 0.2})
    d = decompose(f, "identity")
    samples = sample_set(f.sampling_box(), f.T)
    pattern = sparsity_pattern(d, samples)
    expected = np.array([[False, True, True],
                         [True, False, False],
                         [True, False, False]])
    assert np.array_equal(pattern, expected)
    assert d.index_set == (1,)
    x, _ = random_points(f, 64)
    bh = d.eval_b_hat(x, 0.3)
    assert np.allclose(bh[:, 0, 1], 0.6) and np.allclose(bh[:, 0, 2], 0.2)
    assert np.abs(bh[:, 1, 1:]).max() == 0.0


def test_decompose_readd_reproduces_b():
    for name, params in [("paper_3x3", {"alpha": 0.4, "beta": 0.1}),
                         ("checkerboard_2d", {"low": 1, "high": 3})]:
        f = builtin_problem(name, params)
        for spec in ("identity", "constant"):
            d = decompose(f, spec)
            x, ts = random_points(f, 2000)
            t = float(ts[0])
            total = d.eval_b_bar(x, t) + d.eval_b_hat(x, t)
            assert np.abs(total - f.eval_b(x, t, masked=False)).max() <= 1e-12


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


def test_builtin_solve_data_manufactured():
    f = builtin_problem("manufactured_1d", {})
    phi, Phi, exact = builtin_solve_data("manufactured_1d", f.T)
    x = np.array([[0.5]])
    assert abs(exact.eval_raw(x, 0.0)[0] - 1.0) <= 1e-12
    assert abs(Phi.eval_raw(x, 0.0)[0] - np.exp(-f.T)) <= 1e-12
    assert abs(phi.eval_raw(x, 0.0)[0] - (1 + np.pi ** 2)) <= 1e-12
    assert builtin_solve_data("identity_heat", 1.0) is None


def test_lambda_is_real_is_decided_once(monkeypatch):
    # a rate whose imaginary part is an expression vanishing on the box
    f = make_field(1, 1.0, Box((-1,), (1,)), [["1"]],
                   lam=("1", "step(x1 - 5)"))
    calls = []
    evaluate = f.lam_im.eval_raw
    monkeypatch.setattr(f.lam_im, "eval_raw",
                        lambda *a: calls.append(a) or evaluate(*a))
    assert f.lambda_is_real
    first = len(calls)
    assert f.lambda_is_real
    assert first > 0 and len(calls) == first
