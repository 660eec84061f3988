"""Dense symmetric eigenvalue routines for small coefficient matrices,
and the numpy-only helpers that the solver shares with the path layer.

The eigen routines are thin checked wrappers over LAPACK
(``numpy.linalg.eigvalsh``/``eigh``); each accepts one ``n x n`` matrix
or a stack ``(..., n, n)`` and decomposes the whole stack in one batched
call.  Nothing here imports scipy, so a run that solves nothing loads
none of it.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["symmetric_eigenvalues", "symmetric_sqrt"]


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    at = np.swapaxes(a, -1, -2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if np.any(np.abs(a - at).max(axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("asymmetric input")
    return 0.5 * (a + at)


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix in a
    stack (raises on asymmetry)."""
    return np.linalg.eigvalsh(_check_symmetric(m))


def symmetric_sqrt(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix, or of each
    matrix in a stack."""
    vals, vecs = np.linalg.eigh(_check_symmetric(m))
    scale = np.maximum(1.0, np.abs(vals).max(axis=-1))
    if np.any(vals.min(axis=-1) < -tol * scale):
        raise ValueError("matrix is not positive semidefinite")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root[..., None, :]) @ np.swapaxes(vecs, -1, -2)


class SolverError(RuntimeError):
    pass


def _usable_cores() -> int:
    """The cores this process may run on: the worker count of the path
    blocks and of the fixed-point sweeps."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity interface on this platform
        return os.cpu_count() or 1


def _real_if_possible(values) -> np.ndarray:
    """``values`` as a real array when their imaginary parts all vanish."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and not np.abs(values.imag).any():
        return values.real
    return values
