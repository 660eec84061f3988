import json
import tracemalloc

import numpy as np
import pytest

from cordeslab import grid as grid_module
from cordeslab.fields import Box
from cordeslab.grid import (GridFunction, NormWeights, apply_stencil,
                            build_grid, discrete_norms, pair)



def test_build_grid_spacings():
    g = build_grid(Box((0.0,), (1.0,)), 3, nt=2, T=1.0)
    assert g.h[0] == 0.25
    assert np.allclose(g.axis_nodes(0), [0.25, 0.5, 0.75])
    g2 = build_grid(Box((0.0, 0.0), (1.0, 2.0)), (3, 7), nt=4, T=1.0)
    assert np.allclose(g2.h, [0.25, 0.25])


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(Box((0.0,), (1.0,)), 1, nt=2, T=1.0)
    with pytest.raises(ValueError):
        build_grid(Box((0.0,), (1.0,)), 5, nt=0, T=1.0)
    with pytest.raises(Exception):
        build_grid(Box((1.0,), (1.0,)), 5, nt=2, T=1.0)


def test_build_grid_takes_whole_counts_only():
    # 15.7 once gave m = (15.7,): size 15 but 16 rows of nodes; nt = 2.5
    # became 2
    box = Box((0.0,), (1.0,))
    for m, nt in [(15.7, 8), ((15.7,), 8), (15, 2.5), (15, float("nan"))]:
        with pytest.raises(ValueError, match="whole numbers"):
            build_grid(box, m, nt, 1.0)
    for m in (15.0, (15.0,), np.int64(15)):
        g = build_grid(box, m, 8.0, 1.0)
        assert g.m == (15,) and g.nt == 8
        assert all(type(v) is int for v in g.m + (g.nt,))
        assert g.size == len(g.nodes()) == 15


def test_nodes_are_built_once_and_read_only():
    g = build_grid(Box((0.0, -1.0), (1.0, 1.0)), (4, 3), nt=2, T=1.0)
    pts = g.nodes()
    assert g.nodes() is pts and pts.shape == (12, 2)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 5.0


def grid_fn(g, fn):
    pts = g.nodes()
    return GridFunction(g, fn(pts).reshape(g.shape))


def test_stencils_on_zero():
    g = build_grid(Box((0.0,), (1.0,)), 7, nt=1, T=1.0)
    z = GridFunction(g, np.zeros(g.shape))
    for kind, j in (("d1", None), ("d2", None)):
        out = apply_stencil(z, kind, 1, j)
        assert np.all(out.values == 0.0)


def test_d2_consistency_sine():
    g = build_grid(Box((0.0,), (1.0,)), 127, nt=1, T=1.0)
    u = grid_fn(g, lambda p: np.sin(np.pi * p[:, 0]))
    d2 = apply_stencil(u, "d2", 1)
    exact = -np.pi ** 2 * u.values
    assert np.abs(d2.values - exact).max() <= 0.01 * np.pi ** 2


def test_cross_exact_on_bilinear():
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), (9, 9), nt=1, T=1.0)
    u = grid_fn(g, lambda p: p[:, 0] * p[:, 1])
    cr = apply_stencil(u, "cross", 1, 2)
    # interior nodes away from the boundary see the exact value 1
    assert np.abs(cr.values[1:-1, 1:-1] - 1.0).max() <= 1e-12


def test_d2_second_order_convergence():
    errs = []
    for m in (31, 63):
        g = build_grid(Box((0.0,), (1.0,)), m, nt=1, T=1.0)
        u = grid_fn(g, lambda p: np.sin(np.pi * p[:, 0]))
        d2 = apply_stencil(u, "d2", 1)
        errs.append(np.abs(d2.values + np.pi ** 2 * u.values).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_stencil_rejects_out_of_range_axis():
    g = build_grid(Box((0.0,), (1.0,)), 7, nt=1, T=1.0)
    u = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(IndexError):
        apply_stencil(u, "d1", 2)


# pad-per-difference stencils: each difference pads its own copy of the
# values along the axes it shifts; the reference for the padded-block route


def reference_pad(values, n, axes):
    pad = [(0, 0)] * values.ndim
    for ax in axes:
        pad[values.ndim - n + ax] = (1, 1)
    return np.pad(values, pad)


def reference_shift(padded, n, offsets):
    sl = [slice(None)] * padded.ndim
    for ax, s in offsets:
        pos = padded.ndim - n + ax
        sl[pos] = slice(1 + s, padded.shape[pos] - 1 + s)
    return padded[tuple(sl)]


def reference_diff(values, g, i, j=None):
    n, h = g.n, g.h
    if j is None:
        p = reference_pad(values, n, [i])
        return (reference_shift(p, n, [(i, 1)])
                - reference_shift(p, n, [(i, -1)])) / (2.0 * h[i])
    if i == j:
        p = reference_pad(values, n, [i])
        return (reference_shift(p, n, [(i, 1)]) - 2.0 * values
                + reference_shift(p, n, [(i, -1)])) / h[i] ** 2
    p = reference_pad(values, n, [i, j])
    return (reference_shift(p, n, [(i, 1), (j, 1)])
            - reference_shift(p, n, [(i, 1), (j, -1)])
            - reference_shift(p, n, [(i, -1), (j, 1)])
            + reference_shift(p, n, [(i, -1), (j, -1)])) / \
        (4.0 * h[i] * h[j])


STENCIL_GRIDS = [((0.0,), (1.0,), (5,)),
                 ((0.0, -1.0), (1.0, 2.0), (4, 6)),
                 ((-1.0, 0.0, 0.5), (1.0, 1.0, 2.0), (3, 5, 4))]


def random_values(rng, shape, complex_values):
    values = rng.standard_normal(shape)
    if complex_values:
        values = values + 1j * rng.standard_normal(shape)
    return values


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("lo,hi,m", STENCIL_GRIDS)
def test_stencils_match_pad_per_difference_reference(lo, hi, m,
                                                     complex_values):
    rng = np.random.default_rng(17)
    g = build_grid(Box(lo, hi), m, nt=3, T=0.5)
    u = GridFunction(g, random_values(rng, g.shape, complex_values))
    for i in range(g.n):
        assert np.array_equal(apply_stencil(u, "d1", i + 1).values,
                              reference_diff(u.values, g, i))
        assert np.array_equal(apply_stencil(u, "d2", i + 1).values,
                              reference_diff(u.values, g, i, i))
        for j in range(g.n):
            if j != i:
                assert np.array_equal(
                    apply_stencil(u, "cross", i + 1, j + 1).values,
                    reference_diff(u.values, g, i, j))


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("lo,hi,m", STENCIL_GRIDS)
def test_norms_match_pad_per_difference_reference(lo, hi, m, complex_values,
                                                  monkeypatch):
    rng = np.random.default_rng(17)
    g = build_grid(Box(lo, hi), m, nt=3, T=0.5)
    inset = tuple(range(1, g.n + 1, 2))
    weights = [None, NormWeights(inset, {k: 0.3 + 0.5 * k for k in inset},
                                 alpha1=0.37, alpha2=1.9)]
    values = [random_values(rng, g.shape, complex_values),
              random_values(rng, (g.nt + 1,) + g.shape, complex_values)]
    bundles = [discrete_norms(GridFunction(g, v), w)
               for v in values for w in weights]

    def unpadded_diff(padded, grid, i, j=None, out=None):
        interior = (slice(None),) * (padded.ndim - grid.n) + \
            (slice(1, -1),) * grid.n
        d = reference_diff(padded[interior], grid, i, j)
        if out is None:
            return d
        out[...] = d
        return out
    monkeypatch.setattr(grid_module, "_diff", unpadded_diff)
    expected = [discrete_norms(GridFunction(g, v), w)
                for v in values for w in weights]
    for got, want in zip(bundles, expected):
        assert got.as_dict() == want.as_dict()


# ----------------------------------------------------------------------------
# norms


def test_norms_zero_function():
    g = build_grid(Box((0.0,), (1.0,)), 15, nt=4, T=1.0)
    nb = discrete_norms(GridFunction(g, np.zeros((5, 15))))
    for field in ("X0", "X2", "C0", "C1", "Y2", "Yhat2"):
        assert getattr(nb, field) == 0.0


def test_norms_sine_slice_values():
    g = build_grid(Box((0.0,), (1.0,)), 4095, nt=1, T=1.0)
    u = grid_fn(g, lambda p: np.sin(np.pi * p[:, 0]))
    nb = discrete_norms(u)
    assert abs(nb.H0[0] - 1 / np.sqrt(2)) <= 1e-4
    h1_semi = np.sqrt(nb.H1[0] ** 2 - nb.H0[0] ** 2)
    assert abs(h1_semi - np.pi / np.sqrt(2)) <= 1e-3


def test_norms_strengthened_second_order_value():
    # bracket with gamma = 1, alpha1 -> 0: sqrt(0.5 * pi^4 / 2) = pi^2 / 2
    g = build_grid(Box((0.0,), (1.0,)), 511, nt=1, T=1.0)
    u = grid_fn(g, lambda p: np.sin(np.pi * p[:, 0]))
    w = NormWeights((1,), {1: 1.0}, alpha1=1e-12, alpha2=1.0)
    nb = discrete_norms(u, w)
    assert abs(nb.Hhat2[0] - np.pi ** 2 / 2) <= 1e-2


def test_norm_equivalence_bounds():
    rng = np.random.default_rng(17)
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), (12, 12), nt=3, T=0.5)
    w = NormWeights((1, 2), {1: 0.7, 2: 1.6}, alpha1=0.1)
    n = g.n
    for _ in range(20):
        u = GridFunction(g, rng.standard_normal((4, 12, 12)))
        nb = discrete_norms(u, w)
        upper = (np.sqrt(n) + w.alpha1)
        assert np.all(w.alpha1 * nb.W22 <= nb.Hhat2 + 1e-12)
        assert np.all(nb.Hhat2 <= upper * nb.W22 + 1e-12)


def test_norms_absolutely_homogeneous():
    rng = np.random.default_rng(17)
    g = build_grid(Box((0.0,), (1.0,)), 15, nt=3, T=1.0)
    u = rng.standard_normal((4, 15)) + 1j * rng.standard_normal((4, 15))
    nb1 = discrete_norms(GridFunction(g, u))
    c = -2.5 + 1.3j
    nb2 = discrete_norms(GridFunction(g, c * u))
    for field in ("X0", "X2", "Xhat2", "C0", "C1", "Y2", "Yhat2"):
        assert abs(getattr(nb2, field) - abs(c) * getattr(nb1, field)) \
            <= 1e-12 * max(1.0, abs(getattr(nb1, field)))


def test_y_norm_composition():
    rng = np.random.default_rng(17)
    g = build_grid(Box((0.0,), (1.0,)), 15, nt=3, T=1.0)
    w = NormWeights.default(1, alpha2=1.7)
    u = GridFunction(g, rng.standard_normal((4, 15)))
    nb = discrete_norms(u, w)
    assert nb.Y2 == nb.X2 + nb.C1
    assert abs(nb.Yhat2 - (nb.Xhat2 + 1.7 * nb.C1)) <= 1e-15


def test_weights_validation():
    with pytest.raises(ValueError):
        NormWeights((1,), {1: 2.5})
    # the range of a split weight is fields.GAMMA_RANGE, as for the
    # decomposition and the config
    for gamma in (1e-12, 2.0 - 1e-12):
        with pytest.raises(ValueError, match=r"gamma\[1\]="):
            NormWeights((1,), {1: gamma})
    with pytest.raises(ValueError):
        NormWeights((1,), {2: 1.0})
    with pytest.raises(ValueError):
        NormWeights((1,), {1: 1.0}, alpha1=0.0)


# discrete_norms as it stood before the differences shared one buffer:
# every difference, modulus and square is a new array; the reference for
# the bits of the buffered route


def reference_norms(u, weights=None):
    grid, n = u.grid, u.grid.n
    if weights is None:
        weights = NormWeights.default(n)
    block = u.values if u.is_spacetime else u.values[None, ...]
    nslices = block.shape[0]

    def slice_l2(b):
        axes = tuple(range(b.ndim - n, b.ndim))
        return np.sqrt((np.abs(b) ** 2).sum(axis=axes) * grid.cell_volume)

    padded = np.pad(block, [(0, 0)] + [(1, 1)] * n)
    h = grid.h

    def at(*shifts):
        sl = [slice(None)] + [slice(1, -1)] * n
        for ax, s in shifts:
            sl[1 + ax] = slice(1 + s, padded.shape[1 + ax] - 1 + s)
        return padded[tuple(sl)]

    def diff(i, j=None):
        if j is None:
            return (at((i, 1)) - at((i, -1))) / (2.0 * h[i])
        if i == j:
            return (at((i, 1)) - 2.0 * at() + at((i, -1))) / h[i] ** 2
        return (at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                - at((i, -1), (j, 1)) + at((i, -1), (j, -1))) / \
            (4.0 * h[i] * h[j])

    H0 = slice_l2(block)
    grad_sq = sum(slice_l2(diff(i)) ** 2 for i in range(n))
    H1 = np.sqrt(H0 ** 2 + grad_sq)
    second_sq = np.zeros(nslices)
    bracket = np.zeros(nslices)
    for k in range(n):
        row_sq = [slice_l2(diff(k, i)) ** 2 for i in range(n)]
        second_sq += sum(row_sq)
        if (k + 1) in weights.index_set:
            g = weights.gamma[k + 1]
            bracket += sum(row_sq) - 0.5 * g * row_sq[k]
    W22 = np.sqrt(H1 ** 2 + second_sq)
    bracket = np.maximum(bracket, 0.0)
    Hhat2 = np.sqrt(bracket) + weights.alpha1 * W22
    X2 = grid_module._time_l2(W22, grid)
    Xhat2 = grid_module._time_l2(Hhat2, grid)
    C1 = float(H1.max())
    return grid_module.NormBundle(
        H0=H0, H1=H1, W22=W22, Hhat2=Hhat2,
        X0=grid_module._time_l2(H0, grid), X2=X2, Xhat2=Xhat2,
        C0=float(H0.max()), C1=C1, Y2=X2 + C1,
        Yhat2=Xhat2 + weights.alpha2 * C1)


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("lo,hi,m", STENCIL_GRIDS)
def test_norms_give_the_bits_of_the_reference_norms(lo, hi, m,
                                                    complex_values):
    rng = np.random.default_rng(17)
    g = build_grid(Box(lo, hi), m, nt=3, T=0.5)
    inset = tuple(range(1, g.n + 1, 2))
    for weights in (None, NormWeights(inset, {k: 0.3 + 0.5 * k
                                              for k in inset},
                                      alpha1=0.37, alpha2=1.9)):
        for shape in (g.shape, (g.nt + 1,) + g.shape):
            u = GridFunction(g, random_values(rng, shape, complex_values))
            assert json.dumps(discrete_norms(u, weights).as_dict()) == \
                json.dumps(reference_norms(u, weights).as_dict())


def test_norms_of_a_block_peak_below_three_block_sizes():
    rng = np.random.default_rng(17)
    # the proof mirror's 49 x 17^3 blocks: one padded block and one
    # difference buffer, no temporaries of the block's size
    g = build_grid(Box((-1.0,) * 3, (1.0,) * 3), 17, nt=48, T=0.25)
    u = GridFunction(g, rng.standard_normal((g.nt + 1,) + g.shape))
    tracemalloc.start()
    try:
        discrete_norms(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * u.values.nbytes


# ----------------------------------------------------------------------------
# pairing


def test_pair_normalized_density():
    g = build_grid(Box((0.0,), (1.0,)), 255, nt=1, T=1.0)
    ones = GridFunction(g, np.ones(g.shape))
    # interior triangular bump, normalized
    x = g.axis_nodes(0)
    rho = np.clip(1 - np.abs(x - 0.5) / 0.2, 0, None)
    rho /= rho.sum() * g.cell_volume
    assert abs(pair(ones, rho) - 1.0) <= 1e-9


def test_pair_linear_against_integral():
    g = build_grid(Box((0.0,), (1.0,)), 1023, nt=1, T=1.0)
    u = grid_fn(g, lambda p: p[:, 0])
    rho = np.ones(g.shape)
    assert abs(pair(u, rho) - 0.5) <= 1e-6


def test_pair_zero_density():
    rng = np.random.default_rng(17)
    g = build_grid(Box((0.0,), (1.0,)), 15, nt=1, T=1.0)
    u = GridFunction(g, rng.standard_normal(g.shape))
    assert pair(u, np.zeros(g.shape)) == 0.0


def test_pair_bilinear():
    rng = np.random.default_rng(17)
    g = build_grid(Box((0.0,), (1.0,)), 31, nt=1, T=1.0)
    u = rng.standard_normal(g.shape)
    v = rng.standard_normal(g.shape)
    w = rng.standard_normal(g.shape)
    a, b = 1.7, -0.4
    lhs = pair(GridFunction(g, a * u + b * v), w)
    rhs = a * pair(GridFunction(g, u), w) + b * pair(GridFunction(g, v), w)
    assert abs(lhs - rhs) <= 1e-12
    # conjugate linear in the second argument
    lhs2 = pair(GridFunction(g, u), (1 + 2j) * w)
    assert abs(lhs2 - np.conj(1 + 2j) * pair(GridFunction(g, u), w)) <= 1e-12