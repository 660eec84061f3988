"""Solvability condition checks for the second-order coefficient matrix.

Two families are decided against a shared sampling set:

* the split condition: after writing ``b = b_bar + b_hat`` with a
  uniformly elliptic continuous reference part, the weighted measure
  ``nu_hat`` of the remainder must stay strictly below ``delta**2``
  (``delta`` = infimum of the smallest eigenvalue of ``b_bar``).  The
  index set is searched over covers; each cover's weights ``gamma`` come
  from a convex dual whose value, ``nu_hat_bound``, certifies them.
* four classical eigenvalue-spread checks (cordes, talenti, landis,
  gihman_skorohod), each decided by a sampled margin.

Strict ``exists eps > 0`` inequalities are decided by ``margin >
STRICT_TOL`` at the sampled extremum, a deterministic proxy for the
essential supremum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (CoefficientField, Decomposition, SampleSet, decompose,
                     sample_set, sparsity_pattern, unique_b_hat, _all_covers,
                     _memoized, _sampled_matrices, _validate_gamma,
                     _validate_index_set)
from .linalg import symmetric_eigenvalues

__all__ = [
    "Verdict", "ConditionReport", "STRICT_TOL",
    "ellipticity_delta", "symmetric_eigenvalues", "nu_hat",
    "optimize_gamma", "select_index_set",
    "check_split_condition", "check_classical", "full_report",
]

STRICT_TOL = 1e-10
GAMMA_MIN = 1e-6
GAMMA_MAX = 2.0 - 1e-6
_FW_STEPS = 10_000  # cap on the Frank-Wolfe steps of the weight search

CLASSICAL = ("cordes", "talenti", "landis", "gihman_skorohod")

_LANDIS_NOTE = (
    "literal eigenvalue inequality; for the paper_3x3 family it fails "
    "exactly when sqrt(alpha^2 + beta^2) >= 2/5 (the threshold applies to "
    "the root of alpha^2 + beta^2, not to the sum itself)")


@dataclass
class Verdict:
    ok: bool | None
    margin: float | None
    eps_max: float | None = None
    applicable: bool = True
    note: str = ""

    def as_dict(self) -> dict:
        return {"ok": self.ok, "margin": self.margin, "eps_max": self.eps_max,
                "applicable": self.applicable, "note": self.note}


@dataclass
class ConditionReport:
    delta: float
    nu_hat: float
    index_set: tuple
    gamma: dict
    verdicts: dict
    eigen_range: tuple
    params: dict
    samples_info: dict
    split: dict = dc_field(default_factory=dict)
    nu_hat_bound: float | None = None

    @property
    def satisfied(self) -> bool:
        return bool(self.verdicts["split_condition"].ok)

    def as_dict(self) -> dict:
        return {
            "schema": "v1",
            "delta": self.delta,
            "nu_hat": self.nu_hat,
            "nu_hat_bound": self.nu_hat_bound,
            "N": list(self.index_set),
            "gamma": [self.gamma[k] for k in self.index_set],
            "verdicts": {k: v.as_dict() for k, v in self.verdicts.items()},
            "eigen_range": {"min": self.eigen_range[0],
                            "max": self.eigen_range[1]},
            "params": self.params,
            "samples": self.samples_info,
            "split": self.split,
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        kwargs.setdefault("indent", 2)
        return json.dumps(self.as_dict(), **kwargs)


# ----------------------------------------------------------------------------
# sampled matrix helpers


def _eigenvalues(samples: SampleSet, key: tuple, evaluate) -> np.ndarray:
    """Eigenvalues of the sampled matrix table of ``_sampled_matrices``
    under ``key``, memoized under a tag of their own."""
    return _memoized(samples, ("eig_" + key[0],) + key[1:],
                     lambda: symmetric_eigenvalues(
                         _sampled_matrices(samples, key, evaluate)))


# ----------------------------------------------------------------------------
# split condition ingredients


def ellipticity_delta(source, samples: SampleSet | None = None) -> float:
    """Infimum over the samples of the smallest eigenvalue of the reference part.

    ``source`` is a :class:`Decomposition` (its ``b_bar``), a
    :class:`CoefficientField` (its full ``b``), or a pre-evaluated stack of
    symmetric matrices.  Raises if the infimum is not strictly positive.
    """
    if isinstance(source, Decomposition):
        if samples is None:
            samples = sample_set(source.field.sampling_box(), source.field.T)
        eig = _eigenvalues(samples, ("b_bar", source.b_bar),
                           source.eval_b_bar)
    elif isinstance(source, CoefficientField):
        if samples is None:
            samples = sample_set(source.sampling_box(), source.T)
        eig = _eigenvalues(samples, ("b", source), source.eval_b)
    else:
        mats = np.asarray(source, dtype=float)
        eig = symmetric_eigenvalues(mats.reshape(-1, *mats.shape[-2:]))
    delta = float(eig[:, 0].min())
    if delta <= 0.0:
        raise ValueError(
            f"reference part not uniformly elliptic (min eigenvalue {delta:.3e})")
    return delta


def _nu_hat_terms(decomp: Decomposition, samples: SampleSet, index_set):
    """Per-sample ingredients of the weighted remainder measure.

    Returns ``(A, C)`` with ``A[s, k] = sum_{i in N} bh[i,k]^2 +
    4 sum_{i not in N} bh[i,k]^2`` and ``C[s, k] = bh[k,k]^2`` for the
    deduplicated sample rows ``s`` and the covered coordinates ``k``.
    """
    cols = [k - 1 for k in index_set]
    inset = np.isin(np.arange(decomp.field.n), cols)
    sq = unique_b_hat(decomp, samples)[:, :, cols] ** 2
    A = sq[:, inset].sum(axis=1) + 4.0 * sq[:, ~inset].sum(axis=1)
    return A, sq[:, cols, range(len(cols))]


def _nu_hat_value(A: np.ndarray, C: np.ndarray, gamma_vec: np.ndarray) -> float:
    """``nu_hat`` of the terms ``(A, C)`` at one weight vector.  Each row
    adds ``A_k + w_k C_k`` column by column, so its bits do not depend on
    the row count, as a matrix product's BLAS kernel would."""
    if gamma_vec.size == 0:
        return 0.0
    w = gamma_vec / (2.0 - gamma_vec)
    inner = w[0] * C[:, 0]
    inner += A[:, 0]
    for k in range(1, len(w)):
        term = w[k] * C[:, k]
        term += A[:, k]
        inner += term
    return float(np.sum(0.5 / gamma_vec) * inner.max())


def nu_hat(decomp: Decomposition, samples: SampleSet | None = None,
           gamma: dict | None = None) -> float:
    """Weighted sampled measure of the remainder part.

    ``nu_hat = (sum_k 1/(2 gamma_k)) * max over samples of
    sum_k ( sum_{i in N} bh_ik^2 + 4 sum_{i not in N} bh_ik^2
    + gamma_k/(2-gamma_k) * bh_kk^2 )`` over the covered coordinates ``k``.
    """
    if samples is None:
        samples = sample_set(decomp.field.sampling_box(), decomp.field.T)
    gamma = decomp.gamma if gamma is None else gamma
    if not decomp.index_set:
        return 0.0
    if gamma is None:
        raise ValueError("gamma weights are not set; optimize or supply them")
    gamma = _validate_gamma(gamma, decomp.index_set)
    A, C = _nu_hat_terms(decomp, samples, decomp.index_set)
    gvec = np.array([gamma[k] for k in decomp.index_set])
    return _nu_hat_value(A, C, gvec)


def optimize_gamma(decomp: Decomposition, samples: SampleSet | None = None,
                   index_set=None):
    """Minimize ``nu_hat`` over the weights, clamped to ``[GAMMA_MIN,
    GAMMA_MAX]``, by solving the convex dual (``_optimal_weights``) to a
    relative duality gap of about ``2e-12``.  Returns ``(gamma, value)``;
    ``value`` is ``nu_hat`` at the returned weights.
    """
    if samples is None:
        samples = sample_set(decomp.field.sampling_box(), decomp.field.T)
    index_set = (decomp.index_set if index_set is None else
                 _validate_index_set(index_set, decomp.field.n))
    if not index_set:
        return {}, 0.0
    A, C = _nu_hat_terms(decomp, samples, index_set)
    gvec, _ = _optimal_weights(A, C)
    gamma = {k: float(g) for k, g in zip(index_set, gvec)}
    return gamma, _nu_hat_value(A, C, gvec)


def _optimal_weights(A: np.ndarray, C: np.ndarray):
    """``(gamma, bound)`` for the terms ``(A, C)`` of a nonempty index
    set: the weights that minimize ``nu_hat``, and a lower bound on it.

    With ``w_k = gamma_k/(2-gamma_k)`` and ``a_s = sum_k A_sk``, ``nu_hat =
    (m + sum_k 1/w_k) max_s (a_s + sum_k C_sk w_k) / 4``.  Cauchy-Schwarz
    bounds it below by ``h(y)^2/4``, ``h(y) = sum_j sqrt(y_j)``, at every
    ``y`` in the hull of the rows ``(m a_s, C_s1, ..., C_sm)``, with
    equality at ``w_k = sqrt(y_0/y_k)/m`` for the ``y`` that maximizes
    ``h``.  Pairwise Frank-Wolfe (Lacoste-Julien and Jaggi, NeurIPS 2015)
    maximizes the concave ``h`` from the row of the largest ``h`` until
    its gap is at most ``1e-12 h(y)``; the unclamped weights then score
    within ``2e-12`` of the bound.  One row is the closed form at step 0.
    """
    m = A.shape[1]
    rows = np.column_stack([m * A.sum(axis=1), C])
    lam = np.zeros(len(rows))
    lam[np.argmax(np.sqrt(rows).sum(axis=1))] = 1.0
    for _ in range(_FW_STEPS):
        y = lam @ rows
        grad = 0.5 / np.sqrt(np.maximum(y, np.finfo(float).tiny))
        score = rows @ grad
        up = int(np.argmax(score))
        if score[up] - y @ grad <= 1e-12 * np.sqrt(y).sum():
            break
        held = np.flatnonzero(lam)
        down = held[np.argmin(score[held])]
        t = _line_search(y, rows[up] - rows[down], lam[down])
        lam[up] += t
        lam[down] -= t
    y = lam @ rows
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = 2.0 / (1.0 + m * np.sqrt(y[1:] / y[0]))
    gamma = np.clip(np.where(y[1:] > 0.0, gamma, GAMMA_MAX),
                    GAMMA_MIN, GAMMA_MAX)
    # at a zero gap, rounding may put h^2/4 an ulp above the value
    bound = min(np.sqrt(y).sum() ** 2 / 4.0, _nu_hat_value(A, C, gamma))
    return gamma, float(bound)


def _line_search(y: np.ndarray, d: np.ndarray, t_max: float) -> float:
    """The step ``t`` in ``[0, t_max]`` that maximizes the concave
    ``h(y + t d)``: all of it where ``h`` still rises at ``t_max``, else
    Newton on the decreasing slope from 0, bisecting the bracket where a
    Newton step leaves it."""
    live = d != 0.0
    y, d = y[live], d[live]
    lo, hi, t = 0.0, t_max, t_max
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(60):
            z = np.sqrt(np.maximum(y + t * d, 0.0))
            slope = d @ (1.0 / z)   # twice the slope of h at t
            if slope == 0.0 or (slope > 0.0 and t == t_max):
                return t
            lo, hi = (t, hi) if slope > 0.0 else (lo, t)
            step = t + 2.0 * slope / ((d * d) @ z ** -3.0)
            if t == t_max:
                step = 0.0
            elif not lo < step < hi:
                step = 0.5 * (lo + hi)
            if abs(step - t) <= 1e-12 * step:
                return step
            t = step
    return t


def select_index_set(decomp: Decomposition, samples: SampleSet | None = None):
    """Search index sets covering the remainder's sparsity pattern.

    Exhaustive over all covers for n <= 16 (each optimized over gamma);
    greedy highest-degree heuristic beyond, flagged in the returned note.
    Ties are broken towards the smaller, lexicographically first set.
    Returns ``(index_set, gamma, value, note)``.
    """
    field = decomp.field
    if samples is None:
        samples = sample_set(field.sampling_box(), field.T)
    pattern = sparsity_pattern(decomp, samples)
    n = field.n
    if not pattern.any():
        return (), {}, 0.0, ""
    note = ""
    if n <= 16:
        candidates = list(_all_covers(pattern))
    else:  # greedy cover: the coordinate of highest remaining degree first
        note = "greedy cover heuristic (n > 16); not exhaustive"
        work = pattern.copy()
        chosen: list = []
        while work.any():
            deg = work.sum(axis=0) + work.sum(axis=1)
            k = int(np.argmax(deg))
            chosen.append(k + 1)
            work[k, :] = False
            work[:, k] = False
        candidates = [tuple(sorted(chosen))]
    best = None
    for combo in candidates:
        gamma, v = optimize_gamma(decomp, samples, combo)
        if best is None or v < best[2] - 1e-12:
            best = (combo, gamma, v)
    return best[0], best[1], best[2], note


def check_split_condition(field: CoefficientField, split_spec="identity",
                          samples: SampleSet | None = None,
                          index_set=None, gamma=None):
    """Decide ``nu_hat < delta**2`` for the best (or supplied) split weights.

    Returns ``(decomp, delta, nu_hat_value, verdict)`` with the decomposition
    carrying the chosen index set and gamma.
    """
    if samples is None:
        samples = sample_set(field.sampling_box(), field.T)
    if isinstance(split_spec, Decomposition):
        decomp = split_spec
        if index_set is not None:
            decomp = decomp.with_index_set(index_set, samples)
    else:
        decomp = decompose(field, split_spec, samples, index_set=index_set)
    note = ""
    delta = ellipticity_delta(decomp, samples)
    if gamma is not None:
        decomp = decomp.with_gamma(gamma)
        value = nu_hat(decomp, samples)
    elif index_set is not None or (isinstance(split_spec, Decomposition)
                                   and decomp.index_set):
        g, value = optimize_gamma(decomp, samples)
        if g:
            decomp = decomp.with_gamma(g)
    else:
        chosen, g, value, note = select_index_set(decomp, samples)
        decomp = Decomposition(decomp.field, decomp.b_bar, chosen,
                               g if g else None)
    margin = delta ** 2 - value
    verdict = Verdict(ok=bool(value < delta ** 2), margin=margin, note=note)
    return decomp, delta, value, verdict


# ----------------------------------------------------------------------------
# classical checks


def _classical_margins(which: str, eig: np.ndarray, bhat_sq_sum=None):
    n = eig.shape[1]
    s = eig.sum(axis=1)
    if which == "cordes":
        diffs = sum((eig[:, i] - eig[:, j]) ** 2
                    for i in range(n - 1) for j in range(i + 1, n))
        margin = s ** 2 - (n - 1) * diffs
        with np.errstate(divide="ignore", invalid="ignore"):
            eps = 1.0 - (n - 1) * diffs / s ** 2
        return margin, eps
    if which == "talenti":
        sq = (eig ** 2).sum(axis=1)
        margin = s ** 2 - (n - 1) * sq
        with np.errstate(divide="ignore", invalid="ignore"):
            eps = s ** 2 / sq - (n - 1)
        return margin, eps
    if which == "landis":
        mn = eig[:, 0]
        margin = (n + 2) * mn - s
        with np.errstate(divide="ignore", invalid="ignore"):
            eps = np.where(mn > 0, n + 2 - s / mn, -np.inf)
        return margin, eps
    if which == "gihman_skorohod":
        margin = 1.0 - bhat_sq_sum
        return margin, margin
    raise ValueError(f"unknown classical condition {which!r}")


def check_classical(field: CoefficientField, which: str,
                    samples: SampleSet | None = None,
                    b_bar=None) -> Verdict:
    """Decide one of the classical eigenvalue-spread conditions.

    ``cordes``/``talenti`` need n >= 3 and are decided through the same
    functional so their verdicts always agree; ``gihman_skorohod`` needs
    the reference part to be the identity (pass the report's ``b_bar``
    via a :class:`Decomposition`, identity by default).
    """
    if which not in CLASSICAL:
        raise ValueError(f"unknown classical condition {which!r}")
    if samples is None:
        samples = sample_set(field.sampling_box(), field.T)
    n = field.n
    if which in ("cordes", "talenti") and n < 3:
        return Verdict(ok=None, margin=None, applicable=False,
                       note="stated for n >= 3 only")
    if which == "gihman_skorohod":
        decomp = (b_bar if isinstance(b_bar, Decomposition)
                  else decompose(field, "identity" if b_bar is None else b_bar,
                                 samples))
        bbar = _sampled_matrices(samples, ("b_bar", decomp.b_bar),
                                 decomp.eval_b_bar)
        dev = np.abs(bbar - np.eye(n)).max()
        if dev > 1e-12:
            return Verdict(ok=None, margin=None, applicable=False,
                           note="requires the identity reference part")
        bh = unique_b_hat(decomp, samples)
        sq = (bh ** 2).sum(axis=(1, 2))
        margins, eps = _classical_margins(which, np.zeros((len(sq), n)), sq)
    else:
        eig = _eigenvalues(samples, ("b", field), field.eval_b)
        margins, eps = _classical_margins(which, eig)
    i = int(np.argmin(margins))
    margin = float(margins[i])
    eps_max = float(eps[i]) if np.isfinite(eps[i]) else None
    # cordes margin is exactly n * talenti margin; scale its strictness
    # threshold so the two verdicts can never disagree
    tol = n * STRICT_TOL if which == "cordes" else STRICT_TOL
    note = _LANDIS_NOTE if which == "landis" else ""
    return Verdict(ok=bool(margin > tol), margin=margin, eps_max=eps_max,
                   note=note)


# ----------------------------------------------------------------------------
# aggregation


def full_report(field: CoefficientField, split_spec="identity",
                samples: SampleSet | None = None,
                index_set=None, gamma=None) -> ConditionReport:
    """Run the split condition and all four classical checks."""
    if samples is None:
        samples = sample_set(field.sampling_box(), field.T)
    decomp, delta, value, split_verdict = check_split_condition(
        field, split_spec, samples, index_set=index_set, gamma=gamma)
    verdicts = {"split_condition": split_verdict}
    for which in CLASSICAL:
        verdicts[which] = check_classical(field, which, samples,
                                          b_bar=decomp)
    eig = _eigenvalues(samples, ("b", field), field.eval_b)
    eigen_range = (float(eig.min()), float(eig.max()))
    mats = _sampled_matrices(samples, ("b", field), field.eval_b)
    sup_b = float(np.sqrt((mats ** 2).sum(axis=(1, 2))).max())
    fv = np.concatenate([field.eval_f(samples.points, t)
                         for t in samples.times])
    lv = np.concatenate([field.eval_lambda(samples.points, t)
                         for t in samples.times])
    params = {
        "n": field.n, "T": field.T,
        "domain": None if field.domain is None
        else [list(field.domain.lo), list(field.domain.hi)],
        "sup_b": sup_b,
        "sup_f": float(np.sqrt((fv ** 2).sum(axis=1)).max()),
        "sup_lambda": float(np.abs(lv).max()),
    }
    bound = None   # the dual bound certifies searched weights only
    if gamma is None:
        terms = _nu_hat_terms(decomp, samples, decomp.index_set)
        bound = _optimal_weights(*terms)[1] if decomp.index_set else 0.0
    gamma_map = decomp.gamma or {}
    return ConditionReport(
        delta=delta, nu_hat=value, nu_hat_bound=bound,
        index_set=decomp.index_set,
        gamma={k: gamma_map.get(k, 1.0) for k in decomp.index_set},
        verdicts=verdicts, eigen_range=eigen_range, params=params,
        samples_info={"count": samples.count, "grid": samples.descriptor},
        split=decomp.describe())
