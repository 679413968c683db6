"""Finite-state Markov chain primitives: kernels, distributions, observables.

States are 1-indexed in all file I/O and user-facing configuration; internally
everything is a 0-indexed numpy array.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Iterative solver failed to reach tolerance; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic kernel on a finite state space."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("state space must have at least one state")
        if np.any(m < 0):
            raise ValueError("transition matrix has negative entries")
        rowsums = m.sum(axis=1)
        bad = np.abs(rowsums - 1.0)
        # a NaN or inf entry makes its row sum non-finite, which fails this
        # test (argmax finds the first NaN)
        if not bad.max() <= ROW_SUM_TOL:
            i = int(bad.argmax())
            raise ValueError(f"row {i + 1} sums to {float(rowsums[i])!r}, "
                             f"off by more than {ROW_SUM_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def row_cumsums(self) -> np.ndarray:
        """Per-row cumulative sums, used for inverse-CDF sampling of one step.

        Built on the first call, not at construction, so kernels that are only
        solved never hold the extra S x S array; cached read-only after that.
        """
        c = self.__dict__.get("_row_cumsums")
        if c is None:
            c = np.cumsum(self.matrix, axis=1)
            c[:, -1] = 1.0
            c.setflags(write=False)
            object.__setattr__(self, "_row_cumsums", c)
        return c

    def step(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One step from each given state, inverting that state's row CDF at
        the uniform u in [0, 1) beside it: the first column j with
        cumsum[j] > u, which is the count of columns with cumsum <= u.

        Found by bisection, in O(log S) gathers per state rather than a
        states x S comparison: a row's cumsums never decrease and its last
        one is 1 > u.
        """
        cum = self.row_cumsums()
        n = cum.shape[1]
        flat = cum.ravel()
        row = np.asarray(states, dtype=np.int64) * n
        lo, hi = row, row + (n - 1)  # flat indices; the answer lies in [lo, hi]
        for _ in range((n - 1).bit_length()):
            mid = (lo + hi) >> 1
            right = flat[mid] <= u
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        return lo - row


@dataclass(frozen=True)
class Distribution:
    """Probability vector over states."""

    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("distribution must be a vector")
        if np.any(w < 0):
            raise ValueError("distribution has negative entries")
        if not abs(w.sum() - 1.0) <= ROW_SUM_TOL:  # NaN and inf fail too
            raise ValueError(f"distribution sums to {float(w.sum())!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def point_mass(cls, state: int, n_states: int) -> "Distribution":
        """Delta distribution at a 0-indexed state."""
        w = np.zeros(n_states)
        w[state] = 1.0
        return cls(w)


@dataclass(frozen=True)
class Observable:
    """Real-valued function on states, stored as a vector."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("observable must be a vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("observable has non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @classmethod
    def indicator(cls, states, n_states: int) -> "Observable":
        """Indicator of a set of 0-indexed states."""
        v = np.zeros(n_states)
        v[list(states)] = 1.0
        return cls(v)


def _check_dims(a: int, b: int, what: str):
    if a != b:
        raise ValueError(f"dimension mismatch in {what}: {a} vs {b}")


def apply_right(K: TransitionMatrix, f: Observable) -> Observable:
    """Right action Kf: (Kf)(x) = sum_y K(x,y) f(y), the one-step expectation."""
    _check_dims(K.n_states, f.n_states, "apply_right")
    return Observable(K.matrix @ f.values)


def apply_left(zeta: Distribution, K: TransitionMatrix) -> Distribution:
    """Left action zeta K: pushes a distribution one step forward."""
    _check_dims(zeta.n_states, K.n_states, "apply_left")
    return Distribution(zeta.weights @ K.matrix)


def power(K: TransitionMatrix, n: int) -> TransitionMatrix:
    """K^n by repeated squaring; K^0 is the identity."""
    if n < 0:
        raise ValueError("power requires n >= 0")
    result = np.linalg.matrix_power(K.matrix, n)
    # renormalize roundoff so rows stay stochastic within validation tolerance
    result = result / result.sum(axis=1, keepdims=True)
    return TransitionMatrix(result)


def stationary(
    K: TransitionMatrix,
    tol: float = 1e-12,
    max_iters: int = 10**6,
) -> Distribution:
    """Stationary distribution pi with pi K = pi, max|pi K - pi| <= tol.

    Solves the dense linear system first, then refines by power iteration; the
    chain must be irreducible and aperiodic (detected via non-convergence).
    Entries of the solve that are negative only by roundoff (at least
    -tol * max|pi|, as on states no other state reaches) are clipped to 0;
    a solve that fails or is negative beyond that restarts from uniform.
    """
    m = K.matrix
    n = m.shape[0]
    # linear solve: pi (K - I) = 0 with sum(pi) = 1, via transposed system
    a = m.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        pi = np.full(n, 1.0 / n)
    if not np.all(np.isfinite(pi)) or pi.min() < -tol * np.abs(pi).max():
        pi = np.full(n, 1.0 / n)
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    residual = np.abs(pi @ m - pi).max()
    for _ in range(max_iters):
        if residual <= tol:
            break
        pi = pi @ m
        pi = pi / pi.sum()
        residual = np.abs(pi @ m - pi).max()
    else:
        raise ConvergenceError("stationary distribution did not converge", residual)
    if residual > tol:
        raise ConvergenceError("stationary distribution did not converge", residual)
    return Distribution(np.maximum(pi, 0.0) / np.maximum(pi, 0.0).sum())


def second_eigenvalue_modulus(P: TransitionMatrix) -> float:
    """|lambda_2|, the second-largest eigenvalue modulus of a stochastic matrix."""
    eigs = np.linalg.eigvals(P.matrix)
    mods = np.sort(np.abs(eigs))[::-1]
    if mods.size < 2:
        return 0.0
    return float(min(mods[1], 1.0))


THREE_WELL_SIZE = 90


def build_three_well_chain(lag: int = 4) -> tuple[TransitionMatrix, TransitionMatrix]:
    """The 90-state birth-death chain over a three-well landscape.

    Returns (Q, K) where Q is the one-step tridiagonal matrix with drift
    m(i) = sin(6 pi i / 90) and K = Q^lag is the resampling-interval kernel.
    """
    n = THREE_WELL_SIZE
    states = np.arange(1, n + 1)  # 1-indexed, matching the drift definition
    m = np.sin(6.0 * np.pi * states / 90.0)
    up = 0.4 + m / 5.0
    down = 0.4 - m / 5.0
    Q = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            Q[i, i + 1] = up[i]
        if i - 1 >= 0:
            Q[i, i - 1] = down[i]
        Q[i, i] = 1.0 - Q[i].sum()
    Qm = TransitionMatrix(Q)
    return Qm, power(Qm, lag)
