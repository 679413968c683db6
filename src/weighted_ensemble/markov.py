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
    """Row-stochastic kernel on a finite state space; `step` samples one move
    per particle from its inverse-CDF tables (`CdfTables`)."""

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

    def cdf_tables(self) -> "CdfTables":
        """The inverse-CDF tables that `step` samples from.

        Built on the first call, not at construction, so kernels that are only
        solved never hold them; cached read-only after that.
        """
        t = self.__dict__.get("_cdf_tables")
        if t is None:
            t = CdfTables.of(self.matrix)
            object.__setattr__(self, "_cdf_tables", t)
        return t

    def step(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One step from each given state, inverting that state's row CDF at
        the uniform u in [0, 1) beside it: the first column with a positive
        entry whose cumsum exceeds u.

        The guide bucket of u, floor(u G), brackets the answer's slot among
        the row's positive entries (`CdfTables`), and a binary search with
        halving steps closes the bracket in `CdfTables.rounds` gathers per
        state: one on the package's chains, against log2 S for a search of
        the full row.
        """
        t = self.cdf_tables()
        buckets = t.guide.shape[1] - 1
        s = np.asarray(states, dtype=np.int64)
        u = np.asarray(u, dtype=float)
        guide, cum = t.guide.ravel(), t.cumsums.ravel()
        # u * buckets is exact, as buckets is a power of two
        k = s * (buckets + 1) + (u * buckets).astype(np.int64)
        row = s * t.cumsums.shape[1]
        lo = row + guide[k]  # flat slot indices; the answer lies in [lo, hi]
        if t.rounds > 1:
            # a probe past hi reads a cumsum above u, so clamping it is exact
            hi = row + guide[k + 1]
            for r in range(t.rounds - 1, 0, -1):
                lo += (cum[np.minimum(lo + ((1 << r) - 1), hi)] <= u) * (1 << r)
        lo += cum[lo] <= u
        return t.columns.ravel()[lo].astype(np.int64)


# most guide buckets per row; rows that still have two cumsums in one bucket
# at this size search a wider bracket
MAX_GUIDE_BUCKETS = 1024

# matrix entries per pass when building CdfTables: each of the build's
# temporaries stays within a few MB at any state count
_BUILD_ENTRIES = 1 << 20


@dataclass(frozen=True)
class CdfTables:
    """Each row's CDF over its positive entries, with a guide table that
    narrows each inverse-CDF search to a bracket of one or two slots
    (Chen & Asau, AIIE Trans. 1974; Devroye, Non-Uniform Random Variate
    Generation, 1986, III.2.4).

    Row i's c_i positive columns, in order, are ``columns[i, :c_i]`` and
    their cumulative sums ``cumsums[i, :c_i]``, both padded to W, the
    largest c_i. The sums are the sequential ones of `np.cumsum` over the
    full row, clamped to 1.0 and pinned to exactly 1.0 at the last positive
    entry, so u < 1 never reaches a zero-probability column; the padding is
    1.0 too. With G guide buckets (a power of two, at most
    `MAX_GUIDE_BUCKETS`), ``guide[i, k]`` counts row i's cumsums <= k/G for
    k < G, and ``guide[i, G]`` those < 1: the slot of u in [k/G, (k+1)/G)
    lies in [guide[i, k], guide[i, k + 1]]. G is the smallest size that
    gives every bracket at most two slots, and ``rounds`` halving steps (at
    least one) close the widest bracket.

    Memory: about (8 + 2) S W bytes of cumsums and columns plus 2 S (G + 1)
    bytes of guide (columns and guide use the narrowest unsigned type that
    holds S - 1 and W). The build reads the matrix in blocks of rows, so
    no temporary is larger than the tables or about 2^20 entries.
    """

    columns: np.ndarray
    cumsums: np.ndarray
    guide: np.ndarray
    rounds: int

    @classmethod
    def of(cls, m: np.ndarray) -> "CdfTables":
        n = m.shape[0]
        step = max(1, _BUILD_ENTRIES // n)
        blocks = [slice(i, i + step) for i in range(0, n, step)]
        count = np.concatenate([np.count_nonzero(m[b], axis=1) for b in blocks])
        width = int(count.max())
        columns = np.zeros((n, width), np.min_scalar_type(n - 1))
        cumsums = np.zeros((n, width))
        for b in blocks:
            flat = np.flatnonzero(m[b] > 0)
            filled = np.arange(width) < count[b, None]  # row-major, like flat
            cumsums[b][filled] = m[b].ravel()[flat]
            columns[b][filled] = flat % n
        # the sequential sums of the full row: adding the skipped zeros is exact
        np.cumsum(cumsums, axis=1, out=cumsums)
        np.minimum(cumsums, 1.0, out=cumsums)
        cumsums[np.arange(width) >= count[:, None] - 1] = 1.0
        # a cumsum below 1 goes in guide column ceil(cumsum * G). A row with
        # k of them needs G >= k, and a size that separates a row's cumsums
        # still does when doubled
        most = int(np.count_nonzero(cumsums < 1.0, axis=1).max())
        buckets = min(MAX_GUIDE_BUCKETS, 1 << max(most - 1, 0).bit_length())
        for b in blocks:
            inner = cumsums[b, 1:] < 1.0
            while buckets < MAX_GUIDE_BUCKETS:
                col = np.ceil(cumsums[b] * buckets)
                if not np.any((col[:, 1:] == col[:, :-1]) & inner):
                    break
                buckets *= 2
        guide = np.zeros((n, buckets + 1), np.min_scalar_type(width))
        widest = 0
        for b in blocks:
            c = cumsums[b]
            col = np.ceil(c * buckets).astype(np.int64)
            col += np.arange(c.shape[0])[:, None] * (buckets + 1)
            hits = np.bincount(col[c < 1.0], minlength=guide[b].size)
            widest = max(widest, int(hits.max()))
            guide[b] = np.cumsum(hits.reshape(-1, buckets + 1), axis=1)
        rounds = max(1, widest.bit_length())
        for a in (columns, cumsums, guide):
            a.setflags(write=False)
        return cls(columns, cumsums, guide, rounds)


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
