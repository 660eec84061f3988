import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.random import SFC64, Generator, SeedSequence

from conftest import FnEntry
from cordeslab import solver, stochastic
from cordeslab.fields import (Box, CoefficientField, ConstField,
                              builtin_problem, make_field)
from cordeslab.grid import GridFunction, build_grid, pair
from cordeslab.solver import (BackwardProblem, assemble_step, solve_backward,
                              solve_forward_adjoint)
from cordeslab.stochastic import (SDE, HatSampler, PointSampler,
                                  TruncatedGaussianSampler, UniformBoxSampler,
                                  characteristic_functional, density_compare,
                                  feynman_kac, max_principle_check,
                                  simulate_paths, verify_pairing)


def free_space(T=0.25, half_width=8.0):
    return builtin_problem("gaussian_free_space",
                           {"n": 1, "half_width": half_width, "T": T})


# ----------------------------------------------------------------------------
# simulation basics


def test_degenerate_diffusion_constant_paths():
    f = make_field(1, 0.5, Box((0.0,), (1.0,)), [[0.0]], beta=[[0.0]])
    ens = simulate_paths(SDE(f), PointSampler([0.4]), 0.05, 50, 3)
    assert np.all(ens.final_y == 0.4)
    assert np.all(ens.tau == 0.5)
    assert not ens.exited.any()


def test_second_moment_matches_gaussian():
    T = 0.25
    ens = simulate_paths(SDE(free_space(T)), PointSampler([0.0]), 1e-3,
                         100_000, 11)
    m2 = float((ens.final_y[:, 0] ** 2).mean())
    se = float((ens.final_y[:, 0] ** 2).std(ddof=1) / np.sqrt(ens.M))
    assert abs(m2 - 2 * T) <= 3 * se


def plan(monkeypatch, cores, block=2 ** 16):
    """Blocks of about ``block`` paths on ``cores`` workers."""
    monkeypatch.setattr(stochastic, "_usable_cores", lambda: cores)
    monkeypatch.setattr(stochastic, "_BLOCK", block)


def test_partitioning_determinism(monkeypatch):
    # noise keyed by groups of paths, blocks on group bounds: trajectories
    # agree bitwise no matter how the path range is partitioned
    f = free_space(0.1)
    sampler = PointSampler([0.0])
    plan(monkeypatch, 1)
    full = simulate_paths(SDE(f), sampler, 1e-3, 10_000, 99, record="all")
    plan(monkeypatch, 2, 1250)      # eight blocks of two or three groups
    eight = simulate_paths(SDE(f), sampler, 1e-3, 10_000, 99, record="all")
    assert np.array_equal(full.traj, eight.traj)
    plan(monkeypatch, 3, 777)       # fifteen blocks of one or two groups
    ragged = simulate_paths(SDE(f), sampler, 1e-3, 10_000, 99, record="all")
    assert np.array_equal(full.traj, ragged.traj)
    assert np.array_equal(full.final_y, ragged.final_y)


def test_seed_determinism_of_estimates(monkeypatch):
    f = free_space(0.1)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    runs = []
    for cores, block in ((1, 2 ** 16), (2, 613)):
        plan(monkeypatch, cores, block)
        runs.append(feynman_kac(simulate_paths(SDE(f), sampler, 1e-3, 5000,
                                               7),
                                Phi=lambda x: x[:, 0] ** 2))
    assert runs[0].value == runs[1].value
    assert runs[0].stderr == runs[1].stderr


def test_discount_positivity_real_rate():
    f = make_field(1, 0.3, Box((-4.0,), (4.0,)), [[1.0]],
                   lam="0.5 + 0.4*sin(x1)", beta=[[np.sqrt(2.0)]])
    ens = simulate_paths(SDE(f), PointSampler([0.2]), 2e-3, 2000, 5)
    factors = np.exp(-ens.discount)
    assert np.all(factors > 0.0) and np.all(factors <= 1.0)


def test_exit_monotonicity_nested_boxes():
    T = 0.2
    taus = {}
    for half in (1.0, 0.5):
        f = make_field(1, T, Box((-half,), (half,)), [[1.0]],
                       beta=[[np.sqrt(2.0)]])
        ens = simulate_paths(SDE(f), PointSampler([0.0]), 1e-3, 4000, 21)
        taus[half] = ens.tau
    assert np.all(taus[0.5] <= taus[1.0] + 1e-15)


def test_stderr_scaling_with_m():
    f = free_space(0.1)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    se = {}
    for M in (4000, 16000):
        ens = simulate_paths(SDE(f), sampler, 1e-3, M, 13)
        se[M] = feynman_kac(ens, Phi=lambda x: x[:, 0] ** 2).stderr
    assert abs(se[4000] / se[16000] - 2.0) <= 0.4


NOISE_DEFAULT = stochastic._NOISE_FLOATS
ENSEMBLE_ARRAYS = ("final_y", "tau", "exited", "discount", "traj",
                   "disc_traj")


def assert_same_ensemble(got, ref):
    for name in ENSEMBLE_ARRAYS:
        a, b = getattr(got, name), getattr(ref, name)
        if a is None or b is None:      # nothing recorded
            assert a is None and b is None, name
            continue
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def drifting_box_2d():
    # drift, a rate, a full constant beta (b = 0.5 beta beta^T) and exits
    return make_field(2, 0.2, Box((0.0, 0.0), (1.0, 1.0)),
                      [[0.865, 0.37], [0.37, 0.685]],
                      f=["0.5*sin(3*x2)", "-0.3 + x1"],
                      lam="0.5 + 0.4*sin(x1)", beta=[[1.3, 0.2], [0.4, 1.1]])


def reference_paths(sde, sampler, dt, M, seed):
    """The loop as it was before noise streaming, for one block of paths
    with drift and a constant beta: one whole ``(M, nsteps, n)`` noise
    array filled from the step-major group streams, a boolean live mask,
    every step recorded."""
    T = sde.T
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    n = sde.field.n
    domain = sde.domain
    group = stochastic._GROUP
    noise = np.empty((M, nsteps, n))
    for lo in range(0, M, group):
        stream = Generator(SFC64(SeedSequence(seed, spawn_key=(lo // group,))))
        noise[lo:lo + group] = stream.standard_normal(
            (nsteps, group, n)).transpose(1, 0, 2)[:M - lo]
    y = sampler.sample(Generator(SFC64(SeedSequence(seed))), M).copy()
    traj = np.empty((M, nsteps + 1, n))
    disc_traj = np.zeros((M, nsteps + 1))
    alive = domain.contains(y, open_set=True)
    tau = np.full(M, T)
    tau[~alive] = 0.0
    disc = np.zeros(M)
    beta = sde._const_beta()
    sqdt = np.sqrt(dt)
    traj[:, 0] = y
    for k in range(nsteps):
        t_k = k * dt
        if alive.any():
            disc[alive] += sde.field.eval_lambda(y[alive], t_k).real * dt
            ydot = np.zeros((int(alive.sum()), n))
            ydot += sde.field.eval_f(y[alive], t_k) * dt
            ydot += sqdt * noise[alive, k, :] @ beta.T
            y[alive] += ydot
            newly_out = alive & ~domain.contains(y, open_set=True)
            tau[newly_out] = (k + 1) * dt
            alive &= ~newly_out
        traj[:, k + 1] = y
        disc_traj[:, k + 1] = disc
    return stochastic.PathEnsemble(
        M=M, dt=dt, nsteps=nsteps, master_seed=seed, T=T, n=n,
        final_y=y, tau=tau, exited=tau < T, discount=disc,
        record_times=np.arange(nsteps + 1) * dt, traj=traj,
        disc_traj=disc_traj)


def test_samplers_refuse_spreads_out_of_range():
    box = Box((-8.0,), (8.0,))
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma = "):
            TruncatedGaussianSampler([0.0], sigma, box)
    # the box lies some 92 standard deviations from the mean
    with pytest.raises(ValueError, match="holds none of the Gaussian's mass"):
        TruncatedGaussianSampler([100.0], 1.0, box)
    for width in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="width = "):
            HatSampler([0.0], width)


@pytest.mark.parametrize("mean", [-16.0, 16.0])
def test_gaussian_sampler_far_tail_stays_in_the_box(mean):
    # the box [-8, 8] lies 8 to 24 standard deviations from the mean, on
    # either side: every draw is finite and inside it, and the density
    # integrates to 1 over it
    box = Box((-8.0,), (8.0,))
    sampler = TruncatedGaussianSampler([mean], 1.0, box)
    x = sampler.sample(np.random.default_rng(1), 100_000)
    assert np.isfinite(x).all() and box.contains(x).all()
    nodes = np.linspace(-8.0, 8.0, 200_001)
    pdf = sampler.pdf(nodes[:, None])
    assert abs(np.sum((pdf[1:] + pdf[:-1]) / 2 * np.diff(nodes)) - 1) < 1e-6


def test_streamed_engine_matches_whole_block_reference():
    f = drifting_box_2d()
    sampler = UniformBoxSampler(f.domain)
    got = simulate_paths(SDE(f), sampler, 2e-3, 1500, 5, record="all")
    ref = reference_paths(SDE(f), sampler, 2e-3, 1500, 5)
    assert got.exited.sum() > 300 and not got.exited.all()
    assert_same_ensemble(got, ref)


def test_one_dimensional_step_loop_matches_the_reference():
    # with n = 1 the step loop scales the noise by one rounded multiply
    # instead of a 1x1 product: the same bits as the reference's matmul
    f = make_field(1, 0.2, Box((0.0,), (1.0,)), [[0.845]],
                   f=["0.5*sin(3*x1)"], lam="0.5 + 0.4*sin(x1)",
                   beta=[[1.3]])
    sampler = UniformBoxSampler(f.domain)
    got = simulate_paths(SDE(f), sampler, 2e-3, 1500, 6, record="all")
    ref = reference_paths(SDE(f), sampler, 2e-3, 1500, 6)
    assert got.exited.sum() > 300 and not got.exited.all()
    assert_same_ensemble(got, ref)


def test_noise_chunks_do_not_change_paths(monkeypatch):
    # a budget of a few steps per chunk puts exits and record times on
    # both sides of chunk boundaries; one chunk per block is the reference
    f = drifting_box_2d()
    sampler = UniformBoxSampler(f.domain)
    times = [0.0, 0.013, 0.05, 0.111, 0.2]
    runs = []
    for budget in (2 ** 40, 7 * 1200 * 2, 1):
        monkeypatch.setattr(stochastic, "_NOISE_FLOATS", budget)
        runs.append(simulate_paths(SDE(f), sampler, 2e-3, 1200, 8,
                                   record=times))
    assert runs[0].exited.sum() > 200
    for run in runs[1:]:
        assert_same_ensemble(run, runs[0])


@pytest.mark.parametrize("derived", [False, True, None])
def test_worker_count_does_not_change_paths(monkeypatch, derived):
    # more workers than cores, switching often, blocks of at most 1000
    # paths in several noise chunks; beta is a given constant (False),
    # derived from b (True) or given and moving with position (None).  A
    # derived beta is the root of 2b per grid node and grid level, and each
    # block evaluates b once per level it enters: 5 levels here
    if derived:
        f = make_field(2, 0.1, Box((0.0, 0.0), (1.0, 1.0)),
                       [["1 + 0.3*t", "0.2"], ["0.2", "1 + 0.2*x1"]],
                       lam="0.3")
        sde_of = lambda: SDE(f, grid=build_grid(f.domain, (9, 9), 4, f.T))
    elif derived is None:
        f = make_field(2, 0.1, Box((0.0, 0.0), (1.0, 1.0)),
                       [["1 + 0.2*x1", "0"], ["0", "1"]], lam="0.3",
                       beta=[["sqrt(2*(1 + 0.2*x1))", "0"],
                             ["0", "sqrt(2)"]])
        sde_of = lambda: SDE(f)
    else:
        f = drifting_box_2d()
        sde_of = lambda: SDE(f)
    levels = []
    eval_b = CoefficientField.eval_b
    monkeypatch.setattr(CoefficientField, "eval_b",
                        lambda self, x, t:
                        levels.append(t) or eval_b(self, x, t))
    monkeypatch.setattr(stochastic, "_NOISE_FLOATS", 7 * 1000 * 2)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 4):
            plan(monkeypatch, cores, 1000)
            blocks = len(stochastic._partition(3000)[0]) - 1
            del levels[:]
            runs.append(simulate_paths(sde_of(), UniformBoxSampler(f.domain),
                                       5e-3, 3000, 3, record="all"))
            assert len(levels) == (5 * blocks if derived else 0)
            assert len(set(levels)) == (5 if derived else 0)
    finally:
        sys.setswitchinterval(interval)
    for run in runs[1:]:
        assert_same_ensemble(run, runs[0])


def test_every_core_gets_a_block(monkeypatch):
    # on two cores the characteristic panel's 1e5 1-D paths of 100 steps
    # (through the step loop, as the panel runs them) start one pool of
    # two workers and a one-group ensemble starts none; no plan puts more
    # than _BLOCK paths in a block, and blocks lie on group bounds
    pools, plans = [], []

    class Pool(stochastic.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)
    monkeypatch.setattr(stochastic, "ThreadPoolExecutor", Pool)
    partition = stochastic._partition
    monkeypatch.setattr(stochastic, "_partition",
                        lambda M: plans.append(partition(M)) or plans[-1])
    monkeypatch.setattr(stochastic, "_usable_cores", lambda: 2)
    f = free_space(0.1)
    for M in (100_000, 512):
        simulate_paths(SDE(f), PointSampler([0.0]), 1e-3, M, 1,
                       _on_step=no_step_hook)
    assert pools == [2]
    assert plans == [([0, 50176, 100_000], 2), ([0, 512], 1)]
    group, block = stochastic._GROUP, stochastic._BLOCK
    for cores in (1, 2, 3, 8):
        monkeypatch.setattr(stochastic, "_usable_cores", lambda: cores)
        for M in (1, 511, 513, 3 * group, block, block + 1, 2 * block + 1,
                  10 ** 6):
            bounds, workers = partition(M)
            groups = -(-M // group)
            sizes = np.diff(bounds)
            assert workers == min(cores, groups)
            assert bounds[0] == 0 and bounds[-1] == M and sizes.min() > 0
            assert sizes.max() <= block and not any(np.mod(bounds[:-1],
                                                           group))
            assert len(sizes) % workers == 0 or len(sizes) == groups


def no_step_hook(start, ids, y_live, disc_live, k):
    """Does nothing; any per-step hook keeps the step loop."""


def plain_box(n, domain=True):
    # a full constant beta, neither drift nor rate: running sums
    beta = np.array([[1.3, 0.2, -0.3], [0.4, 1.1, 0.25],
                     [-0.2, 0.3, 0.9]])[:n, :n]
    return make_field(n, 0.1, Box((0.0,) * n, (1.0,) * n) if domain else None,
                      (0.5 * beta @ beta.T).tolist(), beta=beta.tolist())


def exit_box():
    # the simulate_killed_1d problem (b = 1, beta = sqrt 2) on (0, 0.05)
    # up to T = 0.05: from 0.025 every path leaves within 250 steps of
    # dt = 2e-5, most of them within a few chunks
    return make_field(1, 0.05, Box((0.0,), (0.05,)), [[1.0]],
                      beta=[[np.sqrt(2.0)]])


def spy_streams(monkeypatch):
    """Route ``_stream`` through a spy; returns its two logs: the key of
    each stream made, and ``(key, shape)`` of each normal draw (both
    engines draw into buffers)."""
    streams, draws = [], []
    stream = stochastic._stream

    class Stream:
        def __init__(self, seed, *key):
            self.key = key
            streams.append(key)
            self.gen = stream(seed, *key)

        def standard_normal(self, out):
            draws.append((self.key, out.shape))
            return self.gen.standard_normal(out=out)

        def __getattr__(self, name):
            return getattr(self.gen, name)
    monkeypatch.setattr(stochastic, "_stream", Stream)
    return streams, draws


def assert_chunk_rule(ens, draws):
    """Both engines draw each group's stream in the chunks of its block:
    steps of the worker's share of ``_NOISE_FLOATS`` over the block's
    groups, from step 0 to the horizon or to the first chunk end at which
    the block has no live path; ``draws`` is the run's draw log."""
    bounds, workers = stochastic._partition(ens.M)
    budget = stochastic._NOISE_FLOATS // workers
    group = stochastic._GROUP
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        groups = range(lo // group, -(-hi // group))
        chunk = max(1, budget // (len(groups) * group * ens.n))
        last = round(ens.tau[lo:hi].max() / ens.dt)   # of the block's paths
        want = [(min(chunk, ens.nsteps - k), group, ens.n)
                for k in range(0, last, chunk)]
        for g in groups:
            assert [shape for key, shape in draws if key == (g,)] == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_running_sums_match_the_step_loop(monkeypatch, n):
    # starts on both sides of the box, many exits, a last block that ends
    # mid-group; the hook sends the same ensemble through the step loop
    sampler = UniformBoxSampler(Box((-0.2,) * n, (1.2,) * n))
    pools = []
    streams, draws = spy_streams(monkeypatch)

    class Pool(stochastic.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)
    monkeypatch.setattr(stochastic, "ThreadPoolExecutor", Pool)

    def both(f, cores, noise):
        plan(monkeypatch, cores, 1100)
        monkeypatch.setattr(stochastic, "_NOISE_FLOATS", noise)
        del streams[:], draws[:]
        sums = simulate_paths(SDE(f), sampler, 4e-3, 3000, 9)
        built = sorted(streams)
        assert_chunk_rule(sums, draws)
        del draws[:]
        loop = simulate_paths(SDE(f), sampler, 4e-3, 3000, 9,
                              _on_step=no_step_hook)
        assert_chunk_rule(loop, draws)
        assert_same_ensemble(sums, loop)
        return sums, built

    f, nsteps = plain_box(n), 25
    # the initial law's stream, and one per group of 512 paths (here two
    # in each of three blocks), none per path
    per_group = [()] + [(g,) for g in range(6)]
    ens, built = both(f, 1, NOISE_DEFAULT)
    assert (ens.tau == 0).sum() > 450 and ens.exited.sum() > 1800
    assert not ens.exited.all()
    assert built == per_group
    ens, _ = both(plain_box(n, domain=False), 1, NOISE_DEFAULT)
    assert not ens.exited.any()
    # one group's noise at each worker's share of the budget: blocks of
    # one or two groups on the pool, the workers switching often
    del pools[:]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 4):
            both(f, cores, cores * 512 * nsteps * n)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [1, 1, 2, 2, 4, 4]
    # one group's noise over a worker's share: both engines run in chunks
    # of steps over a block's groups (of 7 or 24 steps in a one-group
    # block, 3 or 12 in a two-group one), with exits on both sides of
    # chunk bounds, from the same streams
    for steps in (7, nsteps - 1):
        ens, built = both(f, 2, 2 * 512 * steps * n)
        assert built == per_group


@pytest.mark.parametrize("on_step", [None, no_step_hook],
                         ids=["sums", "loop"])
def test_no_chunk_is_drawn_after_the_last_exit(monkeypatch, on_step):
    # all 40 000 paths leave the narrow box within the first tenth of the
    # 2500 steps, and neither engine draws a chunk after the one in which
    # its block's last path left
    draws = spy_streams(monkeypatch)[1]
    f = exit_box()
    ens = simulate_paths(SDE(f), PointSampler([0.025]), 2e-5, 40_000, 4,
                         _on_step=on_step)
    assert ens.exited.all() and ens.tau.max() < 0.1 * f.T
    assert_chunk_rule(ens, draws)
    drawn = sum(np.prod(shape) for _, shape in draws)
    assert drawn < 0.15 * ens.M * ens.nsteps


def test_first_paths_do_not_depend_on_the_path_count(monkeypatch):
    # paths 0..699 of a 700-path and of a 1300-path ensemble, in blocks
    # ending mid-group (700 = 512 + 188) or on a group bound, through the
    # step loop and as running sums, some paths starting outside the box
    sampler = UniformBoxSampler(Box((-0.1, -0.1), (1.1, 1.1)))
    for f, record in ((drifting_box_2d(), "all"), (plain_box(2), None)):
        for cores, block in ((2, 512), (1, 2 ** 16)):
            plan(monkeypatch, cores, block)
            small, large = (simulate_paths(SDE(f), sampler, 4e-3, M, 6,
                                           record=record)
                            for M in (700, 1300))
            assert (small.tau == 0).sum() > 50 and small.exited.sum() > 200
            for name in ENSEMBLE_ARRAYS:
                a, b = getattr(small, name), getattr(large, name)
                assert (a is None and b is None) or \
                    np.array_equal(a, b[:700]), name


def noise_peak(on_step, M, nsteps, f=None, start=0.0):
    """Peak traced memory of an unrecorded run of ``f`` (free space by
    default) from ``start``; without a hook it runs as running sums, with
    one as the step loop."""
    f = free_space(0.1) if f is None else f
    tracemalloc.start()
    try:
        simulate_paths(SDE(f), PointSampler([start]), f.T / nsteps, M, 2,
                       _on_step=on_step)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("on_step", [None, no_step_hook],
                         ids=["sums", "loop"])
def test_noise_memory_is_bounded_by_the_chunk_budget(on_step):
    # unchunked, this ensemble's noise alone is M * nsteps * 8 = 160 MB
    M, nsteps = 20_000, 1000
    bound = 1.5 * stochastic._NOISE_FLOATS * 8 + 16 * M * 8
    assert noise_peak(on_step, M, nsteps) < bound < M * nsteps * 8


@pytest.mark.parametrize("on_step", [None, no_step_hook],
                         ids=["sums", "loop"])
def test_one_group_is_drawn_in_chunks_of_steps(monkeypatch, on_step):
    # one group whose noise is four times the budget: it is summed or
    # stepped in chunks, each drawn into one buffer
    monkeypatch.setattr(stochastic, "_NOISE_FLOATS", 2 ** 18)
    M, nsteps = 512, 2000
    bound = 1.5 * stochastic._NOISE_FLOATS * 8 + 16 * M * 8
    assert noise_peak(on_step, M, nsteps) < bound < M * nsteps * 8


@pytest.mark.parametrize("on_step", [None, no_step_hook],
                         ids=["sums", "loop"])
def test_noise_memory_is_bounded_while_paths_exit(on_step):
    # one group whose 1024-step first chunk holds every path's exit (the
    # last before step 250): the scan for first exits stays inside the
    # chunk budget's bound
    M, nsteps = 512, 2500
    bound = 1.5 * stochastic._NOISE_FLOATS * 8 + 16 * M * 8
    assert noise_peak(on_step, M, nsteps, exit_box(), 0.025) < bound


def test_recording_budget_raises_before_allocating():
    # a million paths of 1000 recorded steps: 16 GB of trajectories
    f = free_space(1.0)

    class Untouched(PointSampler):
        def sample(self, gen, M):
            raise AssertionError("sampled before the budget check")
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="budget"):
            simulate_paths(SDE(f), Untouched([0.0]), 1e-3, 10 ** 6, 1,
                           record="all")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def time_dependent_derived(T=0.1):
    # no beta given: the root of 2b is derived per grid node and level
    f = make_field(2, T, Box((0.0, 0.0), (1.0, 1.0)),
                   [["1 + 0.3*t", "0.2"], ["0.2", "1 + 0.2*x1"]], lam="0.3")
    return f, lambda: SDE(f, grid=build_grid(f.domain, (9, 9), 4, T))


def track_tables(monkeypatch):
    """Watch ``SDE.beta_table``: returns the levels built, the most tables
    alive at the start of a call, and the weak references of all built."""
    built, most, refs = [], [0], []
    beta_table = SDE.beta_table

    def watched(self, t, held=None):
        most[0] = max(most[0], sum(r() is not None for r in list(refs)))
        got = beta_table(self, t, held)
        assert got[0] == self.grid.level(t)
        if got is not held:
            built.append(got[0])
            refs.append(weakref.ref(got[1]))
        return got
    monkeypatch.setattr(SDE, "beta_table", watched)
    return built, most, refs


@pytest.mark.parametrize("cores", [1, 2])
def test_derived_roots_are_kept_for_the_current_level_only(monkeypatch,
                                                           cores):
    # each block holds the table of the level it is stepping and builds
    # each of the 5 levels it enters once; one block holds at most one
    # table, several (of groups of 32 paths, on one worker or two) at
    # most one each plus one being swapped in by another, none is left
    # after the run, and the paths are those of one block
    monkeypatch.setattr(stochastic, "_GROUP", 32)
    f, sde_of = time_dependent_derived()
    built, most, refs = track_tables(monkeypatch)
    plan(monkeypatch, 1)
    one = simulate_paths(sde_of(), UniformBoxSampler(f.domain), 2e-3, 300, 4,
                         record="all")
    assert built == [0, 1, 2, 3, 4] and most[0] <= 1
    assert all(r() is None for r in refs)
    built.clear()
    refs.clear()
    most[0] = 0
    plan(monkeypatch, cores, 100)
    monkeypatch.setattr(stochastic, "_NOISE_FLOATS", cores * 7 * 100 * 2)
    bounds, workers = stochastic._partition(300)
    assert workers == cores and len(bounds) - 1 == 2 + cores
    got = simulate_paths(sde_of(), UniformBoxSampler(f.domain), 2e-3, 300, 4,
                         record="all")
    assert sorted(built) == sorted(list(range(5)) * (len(bounds) - 1))
    assert most[0] <= 2 * cores - 1
    assert all(r() is None for r in refs)
    assert_same_ensemble(got, one)


def test_blocks_that_start_together_share_few_derived_roots(monkeypatch):
    # two equal blocks on two workers switching often over 1000 steps:
    # they share no table, each builds each of the 5 levels once (not one
    # table per step), at most one table each is alive plus one being
    # swapped in, and none after the run
    f, _ = time_dependent_derived()
    sde = SDE(f, grid=build_grid(f.domain, (31, 31), 4, f.T))
    built, most, refs = track_tables(monkeypatch)
    evals = []
    eval_b = CoefficientField.eval_b
    monkeypatch.setattr(CoefficientField, "eval_b", lambda self, x, t:
                        evals.append(t) or eval_b(self, x, t))
    plan(monkeypatch, 2)
    assert stochastic._partition(1024) == ([0, 512, 1024], 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        simulate_paths(sde, UniformBoxSampler(f.domain), 1e-4, 1024, 5)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(built) == sorted(list(range(5)) * 2) and len(evals) == 10
    assert most[0] <= 3 and all(r() is None for r in refs)


def test_derived_beta_memory_does_not_grow_with_the_steps(monkeypatch):
    # a time-dependent b with no beta given and no exits, four blocks of
    # 64 paths on two workers, so two blocks wait for the first two; each
    # running block holds the root table of the grid level it is stepping
    # (5 levels of a 31^2 grid, 30 KB each), so a run of 1000 steps peaks
    # as high as one of 100, and the paths do not depend on the partition
    # or the worker count; the noise comes in chunks of 50 steps in both
    monkeypatch.setattr(stochastic, "_GROUP", 32)
    monkeypatch.setattr(stochastic, "_NOISE_FLOATS", 2 * 50 * 64 * 2)
    f = make_field(2, 0.1, None,
                   [["1 + 0.3*t", "0.2"], ["0.2", "1 + 0.2*x1"]], lam="0.3")
    box = Box((0.0, 0.0), (1.0, 1.0))
    sde = SDE(f, grid=build_grid(box, (31, 31), 4, f.T))
    sampler = UniformBoxSampler(box)
    peaks, runs = {}, {}
    for nsteps in (100, 1000):
        plan(monkeypatch, 2, 64)
        assert stochastic._partition(256) == ([0, 64, 128, 192, 256], 2)
        tracemalloc.start()
        try:
            runs[nsteps] = simulate_paths(sde, sampler, 0.1 / nsteps, 256, 6)
            peaks[nsteps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] < peaks[100] + 2 ** 20, peaks
    for cores, block in ((1, 2 ** 16), (3, 32)):
        plan(monkeypatch, cores, block)
        assert_same_ensemble(simulate_paths(sde, sampler, 0.1 / 100, 256, 6),
                             runs[100])


def test_simulate_validation():
    f = free_space(0.1)
    with pytest.raises(ValueError):
        simulate_paths(SDE(f), PointSampler([0.0]), dt=-1.0, M=10,
                       master_seed=0)
    with pytest.raises(ValueError):
        simulate_paths(SDE(f), PointSampler([0.0]), dt=1e-3, M=0,
                       master_seed=0)


def test_derived_beta_matches_analytic():
    # drop the stored factor; the solver-side symmetric root must agree
    f = builtin_problem("identity_heat", {"n": 2})
    bare = make_field(2, 1.0, f.domain, [[1.0, 0.0], [0.0, 1.0]])
    g = build_grid(bare.domain, (9, 9), 4, 1.0)
    sde = SDE(bare, grid=g)
    y = np.array([[0.4, 0.6], [0.2, 0.8]])
    got = sde.beta_at(y, 0.0)
    assert np.abs(got - np.sqrt(2.0) * np.eye(2)).max() <= 1e-12


# ----------------------------------------------------------------------------
# path functionals


def test_constant_terminal_functional_exact():
    f = free_space(0.1)
    ens = simulate_paths(SDE(f), PointSampler([0.0]), 1e-3, 1000, 1)
    est = feynman_kac(ens, Phi=lambda x: np.ones(len(x)))
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_gaussian_quadratic_functional():
    T = 0.25
    f = free_space(T)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    ens = simulate_paths(SDE(f), sampler, 1e-3, 100_000, 123)
    est = feynman_kac(ens, Phi=lambda x: x[:, 0] ** 2)
    assert abs(est.value.real - (1 + 2 * T)) <= 3 * est.stderr


def test_killed_survival_against_spectral_series():
    def survival_series(a, T, terms=50):
        k = np.arange(1, 2 * terms, 2)
        return float(np.sum(4 / (k * np.pi) * np.sin(k * np.pi * a)
                            * np.exp(-(k * np.pi) ** 2 * T)))

    T = 0.05
    f = make_field(1, T, Box((0.0,), (1.0,)), [[1.0]], beta=[[np.sqrt(2.0)]])
    ens = simulate_paths(SDE(f), PointSampler([0.5]), 5e-5, 20_000, 77)
    est = feynman_kac(ens, Phi=lambda x: np.ones(len(x)))
    oracle = survival_series(0.5, T)
    assert abs(est.value.real - oracle) <= 3 * est.stderr + 0.01


def test_source_term_integrates_running_cost():
    # phi = 1, Phi = 0, no killing, no exits: the functional is exactly T
    T = 0.2
    f = free_space(T)
    ens = simulate_paths(SDE(f), PointSampler([0.0]), 1e-3, 500, 3,
                         record="all")
    est = feynman_kac(ens, phi=lambda x, t: np.ones(len(x)))
    assert abs(est.value.real - T) <= 1e-12
    with pytest.raises(ValueError):
        feynman_kac(simulate_paths(SDE(f), PointSampler([0.0]), 1e-3, 10, 3),
                    phi=lambda x, t: np.ones(len(x)))


def test_one_callable_convention_for_solver_and_paths():
    # sources are phi(points, t) and terminal data Phi(points) on both the
    # solver and the path side; a mismatched signature fails on both
    f = free_space(0.1)
    g = build_grid(f.domain, 31, 4, f.T)
    ens = simulate_paths(SDE(f), PointSampler([0.0]), 0.02, 20, 3,
                         record="all")
    one = lambda x: np.ones(len(x))
    one_t = lambda x, t: np.ones(len(x))
    good = BackwardProblem(f, phi=one_t, Phi=one)
    solve_backward(good, g)
    feynman_kac(ens, phi=good.phi, Phi=good.Phi)
    # (re, im) source pairs are accepted on the path side as well
    est = feynman_kac(ens, phi=(one_t, one_t))
    assert abs(est.value - (1 + 1j) * f.T) <= 1e-12
    for bad in (BackwardProblem(f, Phi=one_t), BackwardProblem(f, phi=one)):
        with pytest.raises(TypeError):
            solve_backward(bad, g)
        with pytest.raises(TypeError):
            feynman_kac(ens, phi=bad.phi, Phi=bad.Phi)


# ----------------------------------------------------------------------------
# pairing and density cross-checks


def test_verify_pairing_zero_data():
    f = free_space(0.1)
    g = build_grid(f.domain, 63, 16, f.T)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    report = verify_pairing(BackwardProblem(f), g, SDE(f), sampler,
                            dt=2e-3, M=2000, master_seed=4)
    assert report["pde"]["re"] == 0.0 and report["mc"]["re"] == 0.0
    assert report["pass"]


def test_verify_pairing_gaussian_quadratic():
    T = 0.25
    f = free_space(T)
    g = build_grid(f.domain, 511, 128, T)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    prob = BackwardProblem(f, Phi=lambda x: x[:, 0] ** 2)
    report = verify_pairing(prob, g, SDE(f), sampler, dt=1e-3, M=50_000,
                            master_seed=12, allowance=2e-2)
    assert report["pass"], report
    assert abs(report["pde"]["re"] - 1.5) <= 2e-2


def test_verify_pairing_benchmark_box():
    # two independent routes act as each other's oracle on the 3-D box
    f = builtin_problem("paper_3x3", {"alpha": 0.5, "beta": 0.0, "T": 0.15})
    g = build_grid(f.domain, (13, 13, 13), 24, f.T)
    sampler = HatSampler([0.0, 0.0, 0.0], 0.6)
    Phi = lambda x: np.prod(np.cos(0.5 * np.pi * x), axis=1)
    prob = BackwardProblem(f, Phi=Phi)
    report = verify_pairing(prob, g, SDE(f), sampler, dt=5e-4, M=40_000,
                            master_seed=31, allowance=3e-2)
    assert report["pass"], report


def test_verify_pairing_time_dependent_derived_beta():
    # no beta given and b moving in time: the paths read the root of 2b at
    # the nearest grid node and level; the box is wide enough that exits
    # are negligible, and a beta frozen at t = 0 would miss by 0.2
    f = make_field(1, 0.25, Box((-6.0,), (6.0,)), [["1 + 0.6*sin(12*t)"]])
    g = build_grid(f.domain, 255, 16, f.T)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.domain)
    prob = BackwardProblem(f, Phi=lambda x: x[:, 0] ** 2)
    report = verify_pairing(prob, g, SDE(f, grid=g), sampler, dt=1e-3,
                            M=20_000, master_seed=17, allowance=1e-2)
    assert report["pass"], report


def test_density_free_space_and_initial_law():
    T = 0.5
    f = builtin_problem("gaussian_free_space",
                        {"n": 1, "half_width": 8.0, "T": T})
    g = build_grid(f.domain, 127, 128, T)
    hat = HatSampler([0.0], 0.25)
    ens = simulate_paths(SDE(f), hat, T / 128, 100_000, 321,
                         record=[0.0, T])
    adj = solve_forward_adjoint(hat.grid_density(g), BackwardProblem(f), g)
    assert density_compare(ens, adj, T) <= 0.05
    # same-law check at t = 0 with a smooth density
    gauss = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    ens0 = simulate_paths(SDE(f), gauss, T / 128, 100_000, 22, record=[0.0])
    assert density_compare(ens0, GridFunction(g, gauss.grid_density(g)),
                           0.0) <= 0.05
    # oracle: both sides near the N(0, 2T) density
    x = g.axis_nodes(0)
    ref = np.exp(-x ** 2 / (4 * T)) / np.sqrt(4 * np.pi * T)
    assert density_compare(ens, GridFunction(g, ref), T) <= 0.05


def test_density_killing_mass_decay():
    c, T = 1.0, 0.5
    f = make_field(1, T, Box((-8.0,), (8.0,)), [[1.0]], lam=c,
                   beta=[[np.sqrt(2.0)]])
    ens = simulate_paths(SDE(f), HatSampler([0.0], 0.1), T / 128, 50_000, 9,
                         record=[T])
    w = np.exp(-ens.disc_traj[:, -1].real)
    mass = float(w[~ens.exited].sum() / ens.M)
    binom_se = np.sqrt(np.exp(-c * T) * (1 - np.exp(-c * T)) / ens.M)
    assert abs(mass - np.exp(-c * T)) <= 3 * binom_se + 1e-3


def test_density_compare_requires_records():
    f = free_space(0.1)
    g = build_grid(f.domain, 31, 8, f.T)
    ens = simulate_paths(SDE(f), PointSampler([0.0]), 1e-2, 100, 5)
    with pytest.raises(ValueError):
        density_compare(ens, GridFunction(g, np.zeros(g.shape)), 0.05)


# ----------------------------------------------------------------------------
# characteristic functional


def test_characteristic_zero_panel_is_exactly_one():
    T = 0.2
    f = free_space(T)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    xi_t = np.array([0.0, T])
    xi_v = np.zeros((2, 1))
    mc = characteristic_functional(xi_t, xi_v, "mc", sde=SDE(f),
                                   sampler=sampler, dt=2e-3, M=500,
                                   master_seed=8)
    assert mc.value == 1.0 + 0.0j and mc.stderr == 0.0
    g = build_grid(f.domain, 63, 16, T)
    pde = characteristic_functional(xi_t, xi_v, "pde", grid=g,
                                    sampler=sampler, field=f)
    assert pde.value == 1.0 + 0.0j


def test_characteristic_modulus_bounded_by_one():
    T = 0.2
    f = free_space(T)
    sampler = TruncatedGaussianSampler([0.3], 1.0, f.sampling_box())
    xi_t = np.linspace(0, T, 5)
    for scale in (0.5, 2.0, 7.0):
        xi_v = scale * np.sin(1 + 3 * xi_t).reshape(-1, 1)
        mc = characteristic_functional(xi_t, xi_v, "mc", sde=SDE(f),
                                       sampler=sampler, dt=2e-3, M=4000,
                                       master_seed=15)
        assert abs(mc.value) <= 1.0 + 1e-12


def test_characteristic_mc_vs_pde_constant_panel():
    T = 0.25
    f = free_space(T)
    sampler = TruncatedGaussianSampler([0.4], 1.0, f.sampling_box())
    g = build_grid(f.domain, 255, 64, T)
    xi_t = np.array([0.0, T])
    xi_v = np.array([[2.0], [2.0]])
    mc = characteristic_functional(xi_t, xi_v, "mc", sde=SDE(f),
                                   sampler=sampler, dt=T / 64, M=100_000,
                                   master_seed=5)
    pde = characteristic_functional(xi_t, xi_v, "pde", grid=g,
                                    sampler=sampler, field=f)
    assert abs(mc.value - pde.value) <= 3 * mc.stderr + 3e-2
    assert abs(mc.value.imag) > 0.05  # a genuinely complex case


def test_weak_uniqueness_proxy_step_halving():
    T = 0.2
    f = free_space(T)
    sampler = TruncatedGaussianSampler([0.2], 1.0, f.sampling_box())
    xi_t = np.linspace(0.0, T, 9)
    panel = [0.5 * np.ones((9, 1)),
             2.0 * np.ones((9, 1)),
             np.linspace(0, 3, 9).reshape(-1, 1),
             3.0 * np.sin(10 * xi_t).reshape(-1, 1),
             np.where(xi_t < T / 2, 2.0, -1.0).reshape(-1, 1)]
    for xi_v in panel:
        ests = [characteristic_functional(xi_t, xi_v, "mc", sde=SDE(f),
                                          sampler=sampler, dt=dt, M=20_000,
                                          master_seed=int(1000 * dt))
                for dt in (4e-3, 2e-3)]
        diff = abs(ests[0].value - ests[1].value)
        tol = 3 * np.hypot(ests[0].stderr, ests[1].stderr) + 0.02
        assert diff <= tol


def panel_marches(monkeypatch):
    """Record the grid shape of every panel march (one per batch)."""
    shapes = []
    stepper = solver._Stepper

    def counted(grid, *args):
        shapes.append(grid.shape)
        return stepper(grid, *args)
    monkeypatch.setattr(solver, "_Stepper", counted)
    return shapes


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_panel_march_matches_each_functions_own(monkeypatch, theta):
    # five functions in one batch: zero, tiny beside large, a switch and a
    # ramp; each agrees with its own march, and the zero one is exactly 1
    T = 0.2
    f = free_space(T)
    sampler = TruncatedGaussianSampler([0.3], 1.0, f.sampling_box())
    g = build_grid(f.domain, 127, 40, T)
    xi_t = np.linspace(0.0, T, 9)
    panel = [(xi_t, np.zeros((9, 1))),
             (xi_t, 1e-3 * np.cos(20 * xi_t).reshape(-1, 1)),
             (xi_t, 5.0 * np.ones((9, 1))),
             (xi_t, np.where(xi_t < T / 2, 2.0, -1.5).reshape(-1, 1)),
             (xi_t, np.linspace(-1.0, 3.0, 9).reshape(-1, 1))]
    shapes = panel_marches(monkeypatch)
    got = stochastic._characteristic_panel_pde(g, f, sampler, theta, panel)
    assert shapes == [(5,) + g.shape]
    assert got[0].value == 1.0 + 0.0j
    for est, (times, values) in zip(got, panel):
        own = characteristic_functional(times, values, "pde", grid=g,
                                        sampler=sampler, field=f, theta=theta)
        assert abs(est.value - own.value) <= 1e-9
    assert shapes[1:] == [(1,) + g.shape] * 5
    assert abs(got[1].value - 1.0) < 1e-3 < abs(got[2].value - 1.0)


def test_panel_above_the_bound_marches_in_batches(monkeypatch):
    # a 2-D panel of three functions under a bound of two grids' unknowns
    # runs as batches of two and one, with the values of one batch
    T = 0.1
    f = builtin_problem("gaussian_free_space",
                        {"n": 2, "half_width": 4.0, "T": T})
    sampler = TruncatedGaussianSampler([0.2, -0.1], 1.0, f.sampling_box())
    g = build_grid(f.domain, 15, 8, T)
    xi_t = np.linspace(0.0, T, 5)
    rng = np.random.default_rng(3)
    panel = [(xi_t, rng.uniform(-3, 3, (5, 2))) for _ in range(3)]
    shapes = panel_marches(monkeypatch)
    whole = stochastic._characteristic_panel_pde(g, f, sampler, 1.0, panel)
    monkeypatch.setattr(stochastic, "_PANEL_UNKNOWNS", 2 * g.size + 1)
    split = stochastic._characteristic_panel_pde(g, f, sampler, 1.0, panel)
    assert shapes == [(3,) + g.shape, (2,) + g.shape, (1,) + g.shape]
    for a, b in zip(whole, split):
        assert abs(a.value - b.value) <= 1e-9


def test_panel_batch_operator_is_block_diagonal(monkeypatch):
    # the function axis carries no coefficient, so no coupling joins two
    # functions: each diagonal block of a batch's operator is the
    # one-function assembly with that function's rate, and nothing is
    # stored outside the blocks
    T = 0.1
    f = make_field(2, T, Box((-1.0, -1.0), (1.0, 1.0)),
                   [["1 + 0.3*x1", "0.2*x2"], ["0.2*x2", 1.0]],
                   f=[0.5, "x1"])
    sampler = TruncatedGaussianSampler([0.1, 0.0], 1.0, f.sampling_box())
    g = build_grid(f.domain, 9, 4, T)
    xi_t = np.linspace(0.0, T, 3)
    rng = np.random.default_rng(11)
    panel = [(xi_t, rng.uniform(-2.0, 2.0, (3, 2))) for _ in range(3)]
    levels = []
    assemble = solver._assemble_from_arrays

    def kept(grid, b, fv, lam, dtype):
        pattern, data = assemble(grid, b, fv, lam, dtype)
        levels.append((lam, pattern.matrix(data)))
        return pattern, data
    monkeypatch.setattr(solver, "_assemble_from_arrays", kept)
    stochastic._characteristic_panel_pde(g, f, sampler, 1.0, panel)
    monkeypatch.undo()
    N = g.size
    b, fv = f.eval_b(g.nodes(), 0.0), f.eval_f(g.nodes(), 0.0)
    assert len(levels) == g.nt
    for lam, A in levels:
        stored = A.tocoo()
        assert A.shape == (3 * N, 3 * N)
        assert np.array_equal(stored.row // N, stored.col // N)
        for k, rate in enumerate(lam.reshape(3, N)):
            pattern, data = assemble(g, b, fv, rate, complex)
            block = A[k * N:(k + 1) * N, k * N:(k + 1) * N]
            assert block.nnz == len(data)
            assert np.array_equal(block.toarray(),
                                  pattern.matrix(data).toarray())


@pytest.mark.parametrize("n, theta", [(1, 1.0), (1, 0.5), (2, 1.0)])
def test_pde_route_is_the_one_function_backward_solve(n, theta):
    # the one-function panel march gives the bits of the complex backward
    # problem with source xi . arctan(x) and rate i times that source
    T = 0.1
    f = builtin_problem("gaussian_free_space",
                        {"n": n, "half_width": 4.0, "T": T})
    sampler = TruncatedGaussianSampler([0.2] * n, 1.0, f.sampling_box())
    g = build_grid(f.domain, 31 if n == 1 else 15, 12, T)
    xi_t = np.linspace(0.0, T, 4)
    xi_v = np.random.default_rng(n).uniform(-3, 3, (4, n))
    xi_at = stochastic._xi_interpolant(xi_t, xi_v, n)

    def phi(x, t):
        return np.arctan(np.atleast_2d(x)) @ xi_at(t)
    problem = BackwardProblem(dataclasses.replace(
        f, lam_re=ConstField(0.0), lam_im=FnEntry(phi)), phi=phi)
    v0 = solve_backward(problem, g, theta).v.values[0]
    ref = 1.0 - 1j * pair(GridFunction(g, v0), sampler.grid_density(g))
    got = characteristic_functional(xi_t, xi_v, "pde", grid=g,
                                    sampler=sampler, field=f, theta=theta)
    assert got.value == ref


@pytest.mark.parametrize("times, values, message", [
    ([0.0, 0.1, 0.05], [1.0, 2.0, 3.0], "increase strictly"),
    ([0.0, 0.1, 0.1], [1.0, 2.0, 3.0], "increase strictly"),
    ([0.0, np.inf], [1.0, 2.0], "non-finite"),
    ([0.0, 0.1], [np.nan, 2.0], "non-finite"),
    ([0.0, 0.1], [1.0, -np.inf], "non-finite")])
@pytest.mark.parametrize("via", ["mc", "pde"])
def test_characteristic_rejects_bad_panels(times, values, message, via):
    T = 0.1
    f = free_space(T)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    with pytest.raises(ValueError, match=message):
        characteristic_functional(
            np.array(times), np.array(values).reshape(-1, 1), via,
            sde=SDE(f), sampler=sampler, dt=0.01, M=10, master_seed=1,
            grid=build_grid(f.domain, 15, 4, T), field=f)


@pytest.mark.parametrize("via", ["mc", "pde"])
def test_characteristic_rejects_a_panel_of_another_dimension(via):
    T = 0.1
    f = free_space(T)
    sampler = TruncatedGaussianSampler([0.0], 1.0, f.sampling_box())
    with pytest.raises(ValueError, match="shapes do not line up"):
        characteristic_functional(
            np.array([0.0, 0.1]), np.ones((2, 2)), via, sde=SDE(f),
            sampler=sampler, dt=0.01, M=10, master_seed=1,
            grid=build_grid(f.domain, 15, 4, T), field=f)


# ----------------------------------------------------------------------------
# maximum principle


def test_max_principle_zero_data():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, 8, 1.0)
    prob = BackwardProblem(f)
    sol = solve_backward(prob, g)
    mn, verdict = max_principle_check(sol, prob)
    assert mn == 0.0 and verdict == "pass"


def test_max_principle_positive_bump():
    f = make_field(1, 0.5, Box((0.0,), (1.0,)), [[1.0]], lam=1.0,
                   beta=[[np.sqrt(2.0)]])
    g = build_grid(f.domain, 31, 64, 0.5)
    prob = BackwardProblem(f, Phi=lambda x: np.sin(np.pi * x[:, 0]) ** 2)
    sol = solve_backward(prob, g, theta=1.0)
    mn, verdict = max_principle_check(sol, prob)
    assert verdict == "pass" and mn >= -1e-10


def test_max_principle_not_applicable_on_signed_data():
    f = builtin_problem("identity_heat", {"n": 1})
    g = build_grid(f.domain, 15, 8, 1.0)
    prob = BackwardProblem(f, Phi=lambda x: x[:, 0] - 0.5)
    sol = solve_backward(prob, g)
    _, verdict = max_principle_check(sol, prob)
    assert verdict == "not applicable"


def test_time_windowed_imaginary_rate_is_complex_on_both_routes():
    # the rate's imaginary part is 0 at t = 0, T/2 and T and 3 on (0.6,
    # 0.9): each path's discount turns the datum 1 by exp(-0.9 i) on the
    # wide box, up to one step of the rate at each end of the window, as
    # the march does, and the solution is complex
    f = make_field(1, 1.0, Box((-8.0,), (8.0,)), [[1.0]],
                   lam=(0.0, "3*step(t - 0.6)*step(0.9 - t)"),
                   beta=[[np.sqrt(2.0)]])
    assert not f.lambda_is_real
    g = build_grid(f.domain, 255, 1000, f.T)
    sampler = TruncatedGaussianSampler([0.0], 0.5, f.domain)
    prob = BackwardProblem(f, Phi=lambda x: np.ones(len(x)))
    sol = solve_backward(prob, g)
    pde = pair(GridFunction(g, sol.v.values[0]), sampler.grid_density(g))
    mc = feynman_kac(simulate_paths(SDE(f), sampler, 1e-3, 2000, 1),
                     Phi=prob.Phi)
    assert abs(mc.value - np.exp(-0.9j)) <= 2 * 3.0 * 1e-3
    assert abs(mc.value - pde) <= 2e-2
    assert max_principle_check(sol, prob)[1] == "not applicable"


def test_max_principle_random_nonnegative_problems():
    rng = np.random.default_rng(44)
    for trial in range(4):
        n = 1 + trial % 2
        diag = [[f"{rng.uniform(0.8, 1.6):.3f} + "
                 f"{rng.uniform(0.1, 0.3):.3f}*step(x1 - 0.5)"
                 if i == j else 0.0 for j in range(n)] for i in range(n)]
        f = make_field(n, 0.3, Box((0.0,) * n, (1.0,) * n), diag,
                       f=[f"{rng.uniform(-0.3, 0.3):.3f}"] * n,
                       lam=float(rng.uniform(0.0, 1.5)))
        g = build_grid(f.domain, (17,) * n, 24, f.T)
        prob = BackwardProblem(
            f, phi=lambda x, t: np.prod(np.sin(np.pi * x) ** 2, axis=1),
            Phi=lambda x: np.prod(np.sin(np.pi * x) ** 2, axis=1))
        sol = solve_backward(prob, g, theta=1.0)
        mn, verdict = max_principle_check(sol, prob)
        assert verdict == "pass", (trial, mn)


@st.composite
def sign_problems(draw):
    """A 1-D or 2-D problem with a diagonal b (a jump in x1 and a slope in
    t), a constant drift inside the cell Peclet bound |f_i| h_i < 2 b_ii,
    a nonnegative real rate and nonnegative data, on a small grid."""
    n = draw(st.sampled_from([1, 2]))
    T = draw(st.sampled_from([0.1, 0.3]))
    box = Box((0.0,) * n, (1.0,) * n)
    g = build_grid(box, (draw(st.sampled_from([5, 9, 15])),) * n,
                   draw(st.sampled_from([2, 6])), T)
    hundredths = lambda lo, hi: st.integers(lo, hi).map(lambda k: k / 100)
    diag, drift = [], []
    for i in range(n):
        low = draw(hundredths(20, 200))     # the entry's minimum
        diag.append(f"{low} + {draw(hundredths(0, 100))}*step(x1 - 0.5)"
                    f" + {draw(hundredths(0, 300))}*t")
        drift.append(draw(hundredths(-95, 95)) * 2 * low / g.h[i])
    b = [[diag[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    lam = (f"{draw(hundredths(0, 200))}"
           f" + {draw(hundredths(0, 200))}*step(x1 - 0.3)")
    f = make_field(n, T, box, b, f=drift, lam=lam)
    p, q, k = (draw(hundredths(0, 500)), draw(hundredths(0, 500)),
               draw(hundredths(0, 800)))
    return g, BackwardProblem(
        f, phi=lambda x, t: p * (1.0 + np.cos(k * x[:, 0] + t)),
        Phi=lambda x: q * np.prod(np.sin(np.pi * x) ** 2, axis=1))


@settings(max_examples=40, deadline=None)
@given(sign_problems())
def test_sign_principle_on_m_matrix_problems(problem):
    # theta = 1 with these coefficients makes every step matrix an
    # M-matrix: off-diagonals <= 0, rows diagonally dominant; nonnegative
    # data then give a nonnegative solution
    g, prob = problem
    for k in range(g.nt):
        B = assemble_step(prob, g, k * g.dt, theta=1.0)[0].tocoo()
        off = B.row != B.col
        assert (B.data[off] <= 0.0).all()
        dominance = np.zeros(g.size)
        np.add.at(dominance, B.row, np.where(off, -np.abs(B.data), B.data))
        assert (dominance >= 0.0).all()
    sol = solve_backward(prob, g, theta=1.0)
    mn, verdict = max_principle_check(sol, prob)
    assert verdict == "pass", mn


# ----------------------------------------------------------------------------
# streamed functionals against the recorded reductions


def narrow_box(n):
    """Paths on a narrow box with drift and a rate, so that a good share
    of them exits; in 2-D beta is derived from a time-dependent b and the
    rate is complex."""
    if n == 1:
        f = make_field(1, 0.1, Box((0.0,), (0.5,)), [[0.98]],
                       f=["0.5 - x1"], lam="0.3 + 0.2*x1", beta=[[1.4]])
        return f, lambda: SDE(f)
    f = make_field(2, 0.1, Box((0.0, 0.0), (0.6, 0.5)),
                   [["0.8 + t", "0.1"], ["0.1", "0.6"]],
                   f=["0.3*x2", "-0.2"], lam=("0.4", "0.2*x1"))
    return f, lambda: SDE(f, grid=build_grid(f.domain, (7, 7), 4, f.T))


def recorded_phases(ens, panel):
    """Per path ``exp(-i phase)`` of each panel function from a fully
    recorded ensemble: the rectangle rule over the trajectory frozen at
    exit, the dot product summed from the first coordinate."""
    out = []
    for times, values in panel:
        xi_at = stochastic._xi_interpolant(times, values, ens.n)
        phase = np.zeros(ens.M)
        for k in range(ens.nsteps):
            z = np.arctan(ens.traj[:, k, :])
            xi = xi_at(k * ens.dt)
            inc = z[:, 0] * xi[0]
            for i in range(1, ens.n):
                inc = inc + z[:, i] * xi[i]
            phase += inc * ens.dt
        out.append(np.exp(-1j * phase))
    return out


def streamed_layout(monkeypatch, block, noise, cores):
    """Blocks of about ``block`` paths (and at least one group) on group
    bounds, ``noise`` values in flight per simulation (a budget below a
    block's noise runs it in chunks of steps) and ``cores`` workers."""
    plan(monkeypatch, cores, block)
    monkeypatch.setattr(stochastic, "_NOISE_FLOATS", noise)


def streamed_example(check, monkeypatch, *args):
    """One example with its patches undone after it, the workers
    switching often, and noise groups of 32 paths (so that the 300 paths
    of an example make ten groups, to be split into blocks); returns the
    worker counts of the pools started."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pools = []

    class Pool(stochastic.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(stochastic, "_GROUP", 32)
            patch.setattr(stochastic, "ThreadPoolExecutor", Pool)
            check(patch, *args)
    finally:
        sys.setswitchinterval(interval)
    return pools


STREAMED = dict(n=st.sampled_from([1, 2]), block=st.integers(1, 400),
                noise=st.integers(1, 6000), cores=st.sampled_from([1, 2, 4]),
                seed=st.integers(0, 2 ** 31))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(**STREAMED)
def test_streamed_panel_matches_recorded_reduction(monkeypatch, n, block,
                                                   noise, cores, seed):
    streamed_example(check_streamed_panel, monkeypatch, n, block, noise,
                     cores, seed)


def check_streamed_panel(monkeypatch, n, block, noise, cores, seed):
    f, sde_of = narrow_box(n)
    sampler = UniformBoxSampler(f.domain)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, f.T, 4)
    panel = [(times, rng.uniform(-3, 3, (4, n))) for _ in range(3)]
    monkeypatch.setattr(stochastic, "_NOISE_FLOATS", NOISE_DEFAULT)
    plan(monkeypatch, 1)     # the reference runs as one block
    ens = simulate_paths(sde_of(), sampler, 4e-3, 300, seed, record="all")
    assert ens.exited.any()
    ref = recorded_phases(ens, panel)

    seen = []
    mean_and_stderr = stochastic._mean_and_stderr
    monkeypatch.setattr(stochastic, "_mean_and_stderr",
                        lambda vals: seen.append(vals) or
                        mean_and_stderr(vals))
    streamed_layout(monkeypatch, block, noise, cores)
    got = stochastic._characteristic_panel_mc(sde_of(), sampler, 4e-3, 300,
                                              seed, panel)
    for vals, want, est in zip(seen, ref, got):
        assert np.array_equal(vals, want)
        assert (est.value, est.stderr) == mean_and_stderr(want)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(**STREAMED)
def test_streamed_source_matches_feynman_kac(monkeypatch, n, block, noise,
                                             cores, seed):
    streamed_example(check_streamed_source, monkeypatch, n, block, noise,
                     cores, seed)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("check", ["panel", "source"])
def test_streamed_examples_reach_the_pool(monkeypatch, check, n):
    # ten groups in six blocks of one or two groups, each block's noise
    # over its worker's share of the budget: the hook reductions run
    # across blocks on two workers
    check = {"panel": check_streamed_panel,
             "source": check_streamed_source}[check]
    assert streamed_example(check, monkeypatch, n, 64, 32 * 25 * n, 2,
                            7) == [2]


def check_streamed_source(monkeypatch, n, block, noise, cores, seed):
    f, sde_of = narrow_box(n)
    sampler = UniformBoxSampler(f.domain)

    def phi(x, t):
        return np.cos(3.0 * x[:, 0]) * (1.0 + t) + x[:, -1] ** 2

    monkeypatch.setattr(stochastic, "_NOISE_FLOATS", NOISE_DEFAULT)
    plan(monkeypatch, 1)     # the reference runs as one block
    ens = simulate_paths(sde_of(), sampler, 4e-3, 300, seed, record="all")
    assert ens.exited.any()
    seen = []
    mean_and_stderr = stochastic._mean_and_stderr
    monkeypatch.setattr(stochastic, "_mean_and_stderr",
                        lambda vals: seen.append(vals) or
                        mean_and_stderr(vals))
    ref = feynman_kac(ens, phi=phi)

    streamed_layout(monkeypatch, block, noise, cores)
    streamed, source = stochastic._streamed_source(sde_of(), sampler, 4e-3,
                                                   300, seed, phi)
    got = stochastic._path_estimate(source, streamed)
    assert np.array_equal(stochastic._real_if_possible(source), seen[0])
    assert (got.value, got.stderr) == (ref.value, ref.stderr)
    for name in ("final_y", "tau", "discount"):
        assert np.array_equal(getattr(streamed, name), getattr(ens, name))
