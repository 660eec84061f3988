"""The benchmark's four workloads: pinned configs made from a seed, the
CLI commands each one runs, and the output checks.

Every check compares the program's artifacts with a computation made
here from the same formulas the configs are written from (closed forms,
spectral series, a fine Crank-Nicolson solve, trace and Frobenius-norm
margins) or with a property the method must have.  None compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr

PI = float(np.pi)
WORKLOADS = ("solve_timedep_2d", "proof_mirror_rough_3d",
             "simulate_killed_1d", "characteristic_panel_1d")


def _num(x: float) -> str:
    return repr(float(x))


def _seed_params(workload: str, seed: int) -> dict:
    """Seed-dependent inputs.  They vary data, not the amount of work:
    operators, grids, path counts and step counts are pinned."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "solve_timedep_2d":
        return {"a": float(rng.uniform(-0.3, 0.3))}
    if workload == "proof_mirror_rough_3d":
        return {"c": float(rng.uniform(0.8, 1.2))}
    if workload == "simulate_killed_1d":
        return {"x0": float(rng.uniform(0.45, 0.55)),
                "mc_seed": int(rng.integers(1, 2 ** 31))}
    return {"mc_seed": int(rng.integers(1, 2 ** 31))}


# ----------------------------------------------------------------------------
# solve_timedep_2d: manufactured solution on a time-dependent operator with
# a moving jump in b22


TD2 = {"m": 95, "nt": 48, "T": 0.25}
TD2_COEF = {
    "b11": "1 + 0.3*sin(3*x2 + 2*t)",
    "b12": "0.1*sin(x1 + x2)",
    "b22": "1 + 0.6*step(x1 - 0.4 - 0.4*t)",
    "f1": "0.3*x2",
    "f2": "-0.2",
    "lam": "0.5 + t",
}


def td2_exact(x1, x2, t, a):
    """The manufactured solution ``u`` of ``solve_timedep_2d``."""
    return np.exp(-t) * (np.sin(PI * x1) * np.sin(PI * x2)
                         + a * np.sin(2 * PI * x1) * np.sin(PI * x2))


def _td2_source_text(a: float) -> tuple:
    """``phi = -(u_t + A u)`` and ``Phi = u(., T)`` as expression text."""
    pi = _num(PI)
    terms = []
    for w, p, q in ((1.0, 1, 1), (a, 2, 1)):  # (weight, p, q) of each mode
        sp, sq = f"sin({p}*{pi}*x1)", f"sin({q}*{pi}*x2)"
        cp, cq = f"cos({p}*{pi}*x1)", f"cos({q}*{pi}*x2)"
        kp, kq = _num((p * PI) ** 2), _num((q * PI) ** 2)
        # -(u_t + A u) for one mode, without the exp(-t) factor
        terms.append(
            f"{_num(w)}*({sp}*{sq}"
            f" + ({TD2_COEF['b11']})*{kp}*{sp}*{sq}"
            f" + ({TD2_COEF['b22']})*{kq}*{sp}*{sq}"
            f" - 2*({TD2_COEF['b12']})*{_num(p * q * PI ** 2)}*{cp}*{cq}"
            f" - ({TD2_COEF['f1']})*{_num(p * PI)}*{cp}*{sq}"
            f" - ({TD2_COEF['f2']})*{_num(q * PI)}*{sp}*{cq}"
            f" + ({TD2_COEF['lam']})*{sp}*{sq})")
    phi = "exp(-t)*(" + " + ".join(terms) + ")"
    Phi = (f"exp(-{_num(TD2['T'])})*(sin({pi}*x1)*sin({pi}*x2) + "
           f"{_num(a)}*sin(2*{pi}*x1)*sin({pi}*x2))")
    return phi, Phi


def _td2_config(a: float) -> str:
    phi, Phi = _td2_source_text(a)
    c = TD2_COEF
    return "\n".join([
        "n = 2", f"T = {TD2['T']}", "domain.lo = 0 0", "domain.hi = 1 1",
        f'b[1][1] = "{c["b11"]}"', f'b[1][2] = "{c["b12"]}"',
        f'b[2][1] = "{c["b12"]}"', f'b[2][2] = "{c["b22"]}"',
        f'f[1] = "{c["f1"]}"', f'f[2] = "{c["f2"]}"',
        f'lambda.re = "{c["lam"]}"',
        f"grid.m = {TD2['m']}", f"grid.nt = {TD2['nt']}",
        f'solve.phi = "{phi}"', f'solve.Phi = "{Phi}"',
    ]) + "\n"


# ----------------------------------------------------------------------------
# proof_mirror_rough_3d: static coefficients with sign/step jumps and sin
# variation; the index set is chosen by the analysis


R3 = {"m": 17, "nt": 48, "T": 0.25, "samples": 13, "samples_t": 3}
R3_B = {
    (1, 1): "1 + 0.2*sign(x1) + 0.05*sin(3*x3)",
    (2, 2): "1 - 0.15*step(x2 - 0.25)",
    (3, 3): "1",
    (1, 2): "0.1*step(x3)*sign(x2)",
    (1, 3): "0.05*sin(4*x2)*step(x1)",
    (2, 3): "0",
}
R3_F = ("0.5*sign(x2)", "0.3*sin(2*x1)", "-0.2*step(x3)")
R3_LAM = "1 + 0.5*sin(x1*x2) + 0.5*step(x3 - 0.2)"


def r3_b_np(x):
    """The matrix ``b`` of the rough 3-D problem at points ``x`` (P, 3)."""
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    step = lambda z: np.where(z >= 0, 1.0, 0.0)  # noqa: E731
    b = np.zeros((len(x), 3, 3))
    b[:, 0, 0] = 1 + 0.2 * np.sign(x1) + 0.05 * np.sin(3 * x3)
    b[:, 1, 1] = 1 - 0.15 * step(x2 - 0.25)
    b[:, 2, 2] = 1.0
    b[:, 0, 1] = b[:, 1, 0] = 0.1 * step(x3) * np.sign(x2)
    b[:, 0, 2] = b[:, 2, 0] = 0.05 * np.sin(4 * x2) * step(x1)
    return b


def _r3_data_text(c: float) -> tuple:
    h = _num(PI / 2)
    phi = f"{_num(c)}*(1 - x1^2)*(1 - x2^2)*(1 - x3^2)"
    Phi = (f"cos({h}*x1)*cos({h}*x2)*cos({h}*x3)"
           f"*(1 + {_num(0.5 * (c - 1.0))}*x1*x3)")
    return phi, Phi


def _r3_problem_file() -> str:
    lines = ["n = 3", f"T = {R3['T']}", "domain.lo = -1 -1 -1",
             "domain.hi = 1 1 1"]
    for (i, j), text in R3_B.items():
        lines.append(f'b[{i}][{j}] = "{text}"')
        if i != j:
            lines.append(f'b[{j}][{i}] = "{text}"')
    lines += [f'f[{i + 1}] = "{text}"' for i, text in enumerate(R3_F)]
    lines.append(f'lambda.re = "{R3_LAM}"')
    return "\n".join(lines) + "\n"


def _r3_config(c: float) -> str:
    phi, Phi = _r3_data_text(c)
    return "\n".join([
        "problem.file = rough3d.problem",
        f"grid.m = {R3['m']}", f"grid.nt = {R3['nt']}",
        f"conditions.samples.space = {R3['samples']}",
        f"conditions.samples.time = {R3['samples_t']}",
        f'solve.phi = "{phi}"', f'solve.Phi = "{Phi}"',
    ]) + "\n"


# ----------------------------------------------------------------------------
# simulate_killed_1d: Brownian motion (b = 1) killed on leaving (0, 1)


K1 = {"T": 0.05, "dt": 2e-5, "M": 40000}


def k1_survival(x0: float, T: float) -> float:
    """Spectral series of P(no exit from (0, 1) before T | start x0)."""
    k = np.arange(1, 400, 2)
    return float(np.sum(4 / (k * PI) * np.sin(k * PI * x0)
                        * np.exp(-(k * PI) ** 2 * T)))


def _k1_config(x0: float, mc_seed: int) -> str:
    return "\n".join([
        "n = 1", f"T = {K1['T']}", "domain.lo = 0", "domain.hi = 1",
        "b[1][1] = 1", f"beta[1][1] = {_num(np.sqrt(2.0))}",
        f"mc.M = {K1['M']}", f"mc.dt = {K1['dt']}", f"mc.seed = {mc_seed}",
        "mc.sampler = point", f"mc.sampler.at = {_num(x0)}",
    ]) + "\n"


# ----------------------------------------------------------------------------
# characteristic_panel_1d: wide-box Brownian motion, Gaussian start


CP = {"T": 0.25, "m": 255, "nt": 100, "M": 100000, "half_width": 8.0,
      "center": 0.4, "sigma": 1.0}
CP_TIMES = np.linspace(0.0, CP["T"], 11)
CP_PANEL = {
    0: np.zeros(11),
    1: 0.5 * np.ones(11),
    2: np.linspace(0.0, 3.0, 11),
    3: 2.0 * np.sign(np.sin(8.0 * CP_TIMES)) + 0.5,
}


def _cp_panel_csv() -> str:
    rows = ["func,t,xi1"]
    for fid, vals in CP_PANEL.items():
        rows += [f"{fid},{_num(t)},{_num(v)}" for t, v in zip(CP_TIMES, vals)]
    return "\n".join(rows) + "\n"


def _cp_config(mc_seed: int) -> str:
    return "\n".join([
        "problem.builtin = gaussian_free_space", "problem.param.n = 1",
        f"problem.param.half_width = {CP['half_width']}",
        f"problem.param.T = {CP['T']}",
        f"grid.m = {CP['m']}", f"grid.nt = {CP['nt']}",
        f"mc.M = {CP['M']}", f"mc.dt = {_num(CP['T'] / CP['nt'])}",
        f"mc.seed = {mc_seed}", "mc.sampler = gaussian",
        f"mc.sampler.center = {CP['center']}",
        f"mc.sampler.sigma = {CP['sigma']}",
        "characteristic.panel = panel.csv",
    ]) + "\n"


# ----------------------------------------------------------------------------
# materialising a workload


COMMANDS = {
    "solve_timedep_2d": [["solve"]],
    "proof_mirror_rough_3d": [["analyze"], ["solve", "--proof-mirror"]],
    "simulate_killed_1d": [["simulate"]],
    "characteristic_panel_1d": [["characteristic"]],
}


def write_inputs(workload: str, seed: int, where: Path) -> dict:
    """Write the workload's config files under ``where``; return the spec
    the child process and the checks need."""
    where.mkdir(parents=True, exist_ok=True)
    p = _seed_params(workload, seed)
    if workload == "solve_timedep_2d":
        text = _td2_config(p["a"])
    elif workload == "proof_mirror_rough_3d":
        (where / "rough3d.problem").write_text(_r3_problem_file())
        text = _r3_config(p["c"])
    elif workload == "simulate_killed_1d":
        text = _k1_config(p["x0"], p["mc_seed"])
    else:
        (where / "panel.csv").write_text(_cp_panel_csv())
        text = _cp_config(p["mc_seed"])
    (where / "run.cfg").write_text(text)
    return {"workload": workload, "config": str(where / "run.cfg"),
            "commands": COMMANDS[workload], "params": p}


# ----------------------------------------------------------------------------
# output checks; each returns a list of failure messages (empty when fine)


TD2_TOL = 1e-3
CP_MC_ALLOW = 1e-2
CP_PDE_ALLOW = 1e-2


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_solve_timedep_2d(out: Path, params: dict) -> list:
    rows = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=2)
    expect = (TD2["nt"] + 1) * TD2["m"] ** 2
    if rows.shape != (expect, 5):
        return [f"solution.csv has shape {rows.shape}, expected ({expect}, 5)"]
    t, x1, x2, re, im = rows.T
    err = float(np.abs(re - td2_exact(x1, x2, t, params["a"])).max())
    fails = []
    if np.any(im != 0.0):
        fails.append("real problem produced imaginary parts")
    if not err <= TD2_TOL:
        fails.append(f"max error vs manufactured solution {err:.3e} "
                     f"> {TD2_TOL:.1e}")
    return fails


def _sample_points(lo: float, hi: float, space: int, n: int) -> np.ndarray:
    """Lattice nodes plus cell midpoints per axis, as the analysis samples."""
    base = np.linspace(lo, hi, space)
    axis = np.sort(np.concatenate([base, 0.5 * (base[:-1] + base[1:])]))
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _nu_hat(bh: np.ndarray, index_set, gamma) -> float:
    """The weighted remainder measure, written out from its definition."""
    n = bh.shape[1]
    inset = [i for i in range(n) if i + 1 in index_set]
    outset = [i for i in range(n) if i + 1 not in index_set]
    total = np.zeros(len(bh))
    for k, g in zip(index_set, gamma):
        c = k - 1
        total += (sum(bh[:, i, c] ** 2 for i in inset)
                  + 4.0 * sum((bh[:, i, c] ** 2 for i in outset), 0.0)
                  + g / (2.0 - g) * bh[:, c, c] ** 2)
    return float(sum(0.5 / g for g in gamma) * total.max())


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_proof_mirror_rough_3d(out: Path, params: dict) -> list:
    rep = _read_json(out / "report.json")["report"]
    fails = []
    b = r3_b_np(_sample_points(-1.0, 1.0, R3["samples"], 3))
    n = 3
    tr = np.trace(b, axis1=1, axis2=2)
    talenti = float((tr ** 2 - (n - 1) * (b ** 2).sum(axis=(1, 2))).min())
    v = rep["verdicts"]
    if not _close(v["talenti"]["margin"], talenti):
        fails.append(f"talenti margin {v['talenti']['margin']!r} != "
                     f"{talenti!r}")
    if not _close(v["cordes"]["margin"], n * talenti):
        fails.append(f"cordes margin {v['cordes']['margin']!r} != "
                     f"{n * talenti!r}")
    bh = b - np.eye(n)
    delta, nu = rep["delta"], rep["nu_hat"]
    if delta != 1.0:
        fails.append(f"identity split has delta {delta!r}, not 1")
    if not _close(v["split_condition"]["margin"], delta ** 2 - nu, 1e-12):
        fails.append("split margin != delta^2 - nu_hat")
    if v["split_condition"]["ok"] is not True:
        fails.append("split condition not satisfied")
    active = np.abs(bh).max(axis=0) > 0
    index_set = tuple(rep["N"])
    for i, j in zip(*np.nonzero(active)):
        if i + 1 not in index_set and j + 1 not in index_set:
            fails.append(f"index set {index_set} misses b_hat[{i + 1}][{j + 1}]")
    mine = _nu_hat(bh, index_set, rep["gamma"])
    if not _close(nu, mine):
        fails.append(f"nu_hat {nu!r} != recomputed {mine!r}")
    if nu > _nu_hat(bh, index_set, [1.0] * len(index_set)) + 1e-12:
        fails.append("optimized gamma is worse than gamma = 1")

    fp = _read_json(out / "norms.json")["fixed_point"]
    dt = R3["T"] / R3["nt"]
    h = 2.0 / (R3["m"] + 1)
    axis = -1.0 + h * np.arange(1, R3["m"] + 1)
    x1, x2, x3 = np.meshgrid(axis, axis, axis, indexing="ij")
    Phi = (np.cos(0.5 * PI * x1) * np.cos(0.5 * PI * x2)
           * np.cos(0.5 * PI * x3) * (1 + 0.5 * (params["c"] - 1.0) * x1 * x3))
    Phi_max = float(np.abs(Phi).max())
    if fp["converged"] is not True:
        fails.append("fixed point did not converge")
    if not fp["contraction_est"] < 1.0:
        fails.append(f"contraction estimate {fp['contraction_est']} >= 1")
    gap = fp["K"] * dt * Phi_max
    if fp["agreement_vs_direct"] is None or \
            not fp["agreement_vs_direct"] <= gap:
        fails.append(f"fixed point vs direct {fp['agreement_vs_direct']} > "
                     f"K*dt*max|Phi| = {gap:.3e}")
    return fails


def check_simulate_killed_1d(out: Path, params: dict) -> list:
    est = _read_json(out / "ensemble.json")["estimate"]
    series = k1_survival(params["x0"], K1["T"])
    diff = abs(est["re"] - series)
    tol = 3.0 * est["stderr"] + 0.01
    if est["M"] != K1["M"] or not diff <= tol:
        return [f"survival {est['re']:.5f} vs series {series:.5f}: "
                f"diff {diff:.4f} > {tol:.4f}"]
    return []


@functools.lru_cache(maxsize=None)
def cp_reference(fid: int, nx: int = 1001, nt: int = 500) -> complex:
    """E exp(-i int_0^T xi(t) arctan(y_t) dt) for dy = sqrt(2) dW from the
    truncated Gaussian start, by Crank-Nicolson on the Feynman-Kac equation
    ``w_t + w_xx - i xi(t) arctan(x) w = 0``, ``w(T) = 1``, ``w = 1`` on the
    wide box's faces (exits before T have negligible probability)."""
    L = CP["half_width"]
    x = np.linspace(-L, L, nx)
    h = x[1] - x[0]
    dt = CP["T"] / nt
    inner = x[1:-1]
    z = np.arctan(inner)
    w = np.ones(nx - 2, dtype=complex)
    xi = lambda t: np.interp(t, CP_TIMES, CP_PANEL[fid])  # noqa: E731
    off = np.full(nx - 2, 1.0 / h ** 2)
    for k in range(nt, 0, -1):
        t_new, t_old = (k - 1) * dt, k * dt
        pot_old = -1j * xi(t_old) * z
        pot_new = -1j * xi(t_new) * z
        lap = np.empty_like(w)
        lap[1:-1] = (w[2:] - 2 * w[1:-1] + w[:-2]) / h ** 2
        lap[0] = (w[1] - 2 * w[0] + 1.0) / h ** 2
        lap[-1] = (1.0 - 2 * w[-1] + w[-2]) / h ** 2
        rhs = w + 0.5 * dt * (lap + pot_old * w)
        rhs[0] += 0.5 * dt / h ** 2
        rhs[-1] += 0.5 * dt / h ** 2
        ab = np.zeros((3, nx - 2), dtype=complex)
        ab[0, 1:] = -0.5 * dt * off[1:]
        ab[1] = 1.0 + dt / h ** 2 - 0.5 * dt * pot_new
        ab[2, :-1] = -0.5 * dt * off[:-1]
        w = solve_banded((1, 1), ab, rhs)
    rho = np.exp(-0.5 * ((inner - CP["center"]) / CP["sigma"]) ** 2) / \
        (np.sqrt(2 * PI) * CP["sigma"])
    mass = ndtr((L - CP["center"]) / CP["sigma"]) - \
        ndtr((-L - CP["center"]) / CP["sigma"])
    return complex(np.sum(w * rho) * h / mass)


def check_characteristic_panel_1d(out: Path, params: dict) -> list:
    table = _read_json(out / "characteristic.json")["table"]
    fails = []
    if sorted(row["func"] for row in table) != sorted(CP_PANEL):
        return [f"panel functions {[r['func'] for r in table]}"]
    for row in table:
        mc = complex(row["mc"]["re"], row["mc"]["im"])
        pde = complex(row["pde"]["re"], row["pde"]["im"])
        fid = row["func"]
        if fid == 0:
            if mc != 1.0 or pde != 1.0:
                fails.append(f"xi = 0 gave mc {mc}, pde {pde}, not 1")
            continue
        ref = cp_reference(fid)
        tol = 3.0 * row["mc"]["stderr"] + CP_MC_ALLOW
        if not abs(mc - ref) <= tol:
            fails.append(f"func {fid}: mc {mc:.5f} vs reference {ref:.5f} "
                         f"> {tol:.4f}")
        if not abs(pde - ref) <= CP_PDE_ALLOW:
            fails.append(f"func {fid}: pde {pde:.5f} vs reference {ref:.5f} "
                         f"> {CP_PDE_ALLOW}")
    return fails


CHECKS = {
    "solve_timedep_2d": check_solve_timedep_2d,
    "proof_mirror_rough_3d": check_proof_mirror_rough_3d,
    "simulate_killed_1d": check_simulate_killed_1d,
    "characteristic_panel_1d": check_characteristic_panel_1d,
}


def references(seed: int) -> dict:
    """The independent reference values the checks use for one seed."""
    td2, r3, k1 = (_seed_params(w, seed) for w in WORKLOADS[:3])
    b = r3_b_np(_sample_points(-1.0, 1.0, R3["samples"], 3))
    tr = np.trace(b, axis1=1, axis2=2)
    talenti = float((tr ** 2 - 2 * (b ** 2).sum(axis=(1, 2))).min())
    return {
        "solve_timedep_2d": {"a": td2["a"], "tolerance": TD2_TOL,
                             "u(0.5, 0.5, 0)": float(td2_exact(
                                 0.5, 0.5, 0.0, td2["a"]))},
        "proof_mirror_rough_3d": {"talenti_margin": talenti,
                                  "cordes_margin": 3 * talenti},
        "simulate_killed_1d": {"x0": k1["x0"],
                               "survival": k1_survival(k1["x0"], K1["T"])},
        "characteristic_panel_1d": {
            str(fid): [cp_reference(fid).real, cp_reference(fid).imag]
            for fid in CP_PANEL if fid},
    }


if __name__ == "__main__":
    # python3 bench/workloads.py SEED: print the references for that seed
    print(json.dumps(references(int(sys.argv[1])), indent=2))
