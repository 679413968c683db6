"""Finite-state Markov chain primitives: kernels, distributions, observables,
and the exact linear solves on them.

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
    """Row-stochastic kernel on a finite state space in ELL rows (Bell &
    Garland, "Implementing sparse matrix-vector multiplication on
    throughput-oriented processors", SC'09).

    Row i's c_i positive entries, in ascending column order, are
    ``columns[i, :c_i]`` and ``probs[i, :c_i]``; both are padded to W, the
    largest c_i, with column 0 and probability 0. Every product is a gather
    of W terms per row (`apply`, `push`), and `step` samples one move per
    particle from inverse-CDF tables over the same rows (`CdfTables`).
    Memory is 16 S W bytes; `from_entries` and `from_dense` build it.
    """

    columns: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.columns, dtype=np.intp)
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or c.shape != p.shape or p.shape[1] < 1:
            raise ValueError("ELL columns and probs must share one shape (S, W), W >= 1")
        n = p.shape[0]
        if n < 1:
            raise ValueError("state space must have at least one state")
        if np.any((c < 0) | (c >= n)):
            raise ValueError(f"column index outside 0..{n - 1}")
        if np.any(p < 0):
            raise ValueError("transition matrix has negative entries")
        rowsums = p.sum(axis=1)
        bad = np.abs(rowsums - 1.0)
        # a NaN or inf entry makes its row sum non-finite, which fails this
        # test (argmax finds the first NaN)
        if not bad.max() <= ROW_SUM_TOL:
            i = int(bad.argmax())
            raise ValueError(f"row {i + 1} sums to {float(rowsums[i])!r}, "
                             f"off by more than {ROW_SUM_TOL}")
        positive = p > 0
        if np.any(positive[:, 1:] & ((c[:, 1:] <= c[:, :-1]) | ~positive[:, :-1])):
            raise ValueError("each row must list its positive entries first, "
                             "in ascending column order")
        for a in (c, p):
            a.setflags(write=False)
        object.__setattr__(self, "columns", c)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_entries(cls, n: int, rows, cols, vals) -> "TransitionMatrix":
        """The n-state kernel with entry vals[k] at (rows[k], cols[k]), in any
        order, each position at most once; zero entries are dropped."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        if n < 1:
            raise ValueError("state space must have at least one state")
        if np.any(vals < 0):
            raise ValueError("transition matrix has negative entries")
        keep = vals != 0  # keeps NaN, for the row-sum check to name its row
        order = np.lexsort((cols[keep], rows[keep]))
        rows, cols, vals = rows[keep][order], cols[keep][order], vals[keep][order]
        count = np.bincount(rows, minlength=n)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
        columns = np.zeros((n, max(int(count.max()), 1)), np.intp)
        probs = np.zeros(columns.shape)
        columns[rows, slot] = cols
        probs[rows, slot] = vals
        return cls(columns, probs)

    @classmethod
    def from_dense(cls, m) -> "TransitionMatrix":
        """The kernel of a square array."""
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {m.shape}")
        rows, cols = np.nonzero(m)
        return cls.from_entries(m.shape[0], rows, cols, m[rows, cols])

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and probability of every positive entry, row by row."""
        rows, slots = np.nonzero(self.probs > 0)
        return rows, self.columns[rows, slots], self.probs[rows, slots]

    def to_dense(self) -> np.ndarray:
        """The S x S array, for small kernels: coarse models and tests."""
        rows, cols, vals = self.entries()
        m = np.zeros((self.n_states, self.n_states))
        m[rows, cols] = vals
        return m

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Kg, the one-step expectation (Kg)(x) = sum_y K(x, y) g(y)."""
        g = np.asarray(g, dtype=float)
        _check_dims(self.n_states, g.shape[0], "apply")
        # a product with ones sums each row in a third of the time of .sum
        return (self.probs * g[self.columns]) @ np.ones(self.probs.shape[1])

    def push(self, x: np.ndarray) -> np.ndarray:
        """xK, a row vector pushed one step forward: a distribution's law
        after one step."""
        x = np.asarray(x, dtype=float)
        _check_dims(self.n_states, x.shape[0], "push")
        return np.bincount(self.columns.ravel(), weights=(x[:, None] * self.probs).ravel(),
                           minlength=self.n_states)

    def cdf_tables(self) -> "CdfTables":
        """The inverse-CDF tables that `step` samples from.

        Built on the first call, not at construction, so kernels that are only
        solved never hold them; cached read-only after that.
        """
        t = self.__dict__.get("_cdf_tables")
        if t is None:
            t = CdfTables.of(self.probs)
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
        return self.columns.ravel()[lo]


# most guide buckets per row; rows that still have two cumsums in one bucket
# at this size search a wider bracket
MAX_GUIDE_BUCKETS = 1024


@dataclass(frozen=True)
class CdfTables:
    """Each ELL row's CDF over its positive entries, with a guide table that
    narrows each inverse-CDF search to a bracket of one or two slots
    (Chen & Asau, AIIE Trans. 1974; Devroye, Non-Uniform Random Variate
    Generation, 1986, III.2.4).

    ``cumsums[i, :c_i]`` are the sequential sums of row i's c_i positive
    probabilities, clamped to 1.0 and pinned to exactly 1.0 at the last
    positive entry, so u < 1 never reaches a zero-probability column; the
    padding is 1.0 too. The kernel's ``columns`` hold the states they stand
    for. With G guide buckets (a power of two, at most `MAX_GUIDE_BUCKETS`),
    ``guide[i, k]`` counts row i's cumsums <= k/G for k < G, and
    ``guide[i, G]`` those < 1: the slot of u in [k/G, (k+1)/G) lies in
    [guide[i, k], guide[i, k + 1]]. G is the smallest size that gives every
    bracket at most two slots, and ``rounds`` halving steps (at least one)
    close the widest bracket.

    Memory: 8 S W bytes of cumsums plus S (G + 1) guide entries of the
    narrowest unsigned type that holds W.
    """

    cumsums: np.ndarray
    guide: np.ndarray
    rounds: int

    @classmethod
    def of(cls, probs: np.ndarray) -> "CdfTables":
        n, width = probs.shape
        count = np.count_nonzero(probs, axis=1)
        cumsums = np.cumsum(probs, axis=1)
        np.minimum(cumsums, 1.0, out=cumsums)
        cumsums[np.arange(width) >= count[:, None] - 1] = 1.0
        # a cumsum below 1 goes in guide column ceil(cumsum * G). A row with
        # k of them needs G >= k, and a size that separates a row's cumsums
        # still does when doubled
        inner = cumsums < 1.0
        most = int(np.count_nonzero(inner, axis=1).max())
        buckets = min(MAX_GUIDE_BUCKETS, 1 << max(most - 1, 0).bit_length())
        while buckets < MAX_GUIDE_BUCKETS:
            col = np.ceil(cumsums * buckets)
            if not np.any((col[:, 1:] == col[:, :-1]) & inner[:, 1:]):
                break
            buckets *= 2
        col = np.ceil(cumsums * buckets).astype(np.int64)
        col += np.arange(n)[:, None] * (buckets + 1)
        hits = np.bincount(col[inner], minlength=n * (buckets + 1))
        guide = np.cumsum(hits.reshape(n, buckets + 1), axis=1).astype(
            np.min_scalar_type(width))
        rounds = max(1, int(hits.max()).bit_length())
        for a in (cumsums, guide):
            a.setflags(write=False)
        return cls(cumsums, guide, rounds)


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


def power(K: TransitionMatrix, n: int) -> TransitionMatrix:
    """K^n by repeated squaring of the dense matrix; K^0 is the identity.
    For small chains, such as the three-well lag kernel."""
    if n < 0:
        raise ValueError("power requires n >= 0")
    result = np.linalg.matrix_power(K.to_dense(), n)
    # renormalize roundoff so rows stay stochastic within validation tolerance
    result = result / result.sum(axis=1, keepdims=True)
    return TransitionMatrix.from_dense(result)


# ------------------------------------------------------------- graph search

def _adjacency(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges src -> dst as adjacency lists: state x's successors are
    ``succ[start[x]:start[x + 1]]``."""
    start = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=start[1:])
    return start, dst[np.argsort(src, kind="stable")]


def _levels(n: int, sources, *graphs) -> np.ndarray:
    """Breadth-first level of every state from the ``sources`` along the
    edges of the ``graphs`` (`_adjacency` lists); -1 where none reaches.

    A Python loop over the edges, about 0.1 us each: a level-synchronous
    numpy search pays a dozen calls per level, and a banded chain has S / b
    levels."""
    lists = [(start.tolist(), succ.tolist()) for start, succ in graphs]
    level = [-1] * n
    frontier = sorted(set(np.asarray(sources, dtype=np.intp).tolist()))
    for x in frontier:
        level[x] = 0
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for start, succ in lists:
            for x in frontier:
                for y in succ[start[x]:start[x + 1]]:
                    if level[y] < 0:
                        level[y] = depth
                        reached.append(y)
        frontier = reached
    return np.array(level, dtype=np.intp)


# -------------------------------------------------------------------- solves

# the block-tridiagonal solve cuts the states into blocks of
# max(bandwidth, MIN_BLOCK): larger blocks cost B^3 flops each, smaller ones
# a numpy round trip each
MIN_BLOCK = 64
# most states in one block: its dense B x B matrix takes 8 B^2 bytes, 32 MB here
MAX_BLOCK = 2048


def solve_identity_minus(n: int, rows, cols, vals, rhs, leak=None) -> np.ndarray:
    """x with (I - E) x = rhs, E the n x n matrix with entry vals[k] at
    (rows[k], cols[k]), each position at most once, and I - E a nonsingular
    M-matrix (E >= 0, substochastic in rows or columns, with every state
    leaking).

    Block-tridiagonal elimination (Stewart, Introduction to the Numerical
    Solution of Markov Chains, 1994, ch. 2 and 4): with b = max |row - col|,
    the bandwidth, blocks of B = max(b, `MIN_BLOCK`) consecutive states
    couple only to their neighbours, and only through their b states nearest
    the boundary. Each block's dense Schur complement is solved by
    np.linalg.solve; a chain of bandwidth n is one block. Memory is
    O(B^2 + n b); a B above `MAX_BLOCK` raises ValueError.

    ``leak``, when given, holds the column sums of I - E, each >= 0: a
    column's mass that leaves the system. Each Schur complement's diagonal
    is then rebuilt from its leak and off-diagonal entries, and the leak is
    carried from block to block, as Grassmann, Taksar and Heyman (Oper. Res.
    1985) do state by state; neither step subtracts. The solve of each block
    does: its LU factorisation updates the diagonal by differences. So only
    blocks of one state (B = 1) keep every entry's relative accuracy; in a
    larger block the result is normwise accurate, and an entry far below the
    block's largest can lose all of it, as one deep in a metastable well does.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    vals = np.asarray(vals, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    band = int(np.abs(rows - cols).max(initial=0))
    size = max(band, MIN_BLOCK)
    if size > MAX_BLOCK and n > MAX_BLOCK:
        raise ValueError(f"the linear solve couples states {band} apart, more than "
                         f"{MAX_BLOCK}: its dense blocks would not fit in memory")
    cuts = np.searchsorted(rows, np.arange(0, n + size, size))
    if leak is not None:
        leak = np.array(leak, dtype=float)
        # E's mass in each column from the rows of the next block
        nxt = rows // size == cols // size + 1
        down = np.bincount(cols[nxt], weights=vals[nxt], minlength=n)
    blocks = []  # per block: (D^-1 U, D^-1 r), D the Schur complement
    for k, s in enumerate(range(0, n, size)):
        m = min(size, n - s)
        ent = slice(cuts[k], cuts[k + 1])
        r, c, v = rows[ent] - s, cols[ent] - s, vals[ent]
        below, above = c < 0, c >= m
        inside = ~(below | above)
        d = np.eye(m)
        d[r[inside], c[inside]] -= v[inside]
        b = rhs[s:s + m].copy()
        if blocks and band:
            # eliminate the coupling to the last `band` states of the block
            # before: D -= L (D_prev^-1 U_prev), r -= L (D_prev^-1 r_prev)
            lower = np.zeros((m, band))
            lower[r[below], c[below] + band] = -v[below]
            g, y = blocks[-1]
            d[:, :g.shape[1]] -= lower @ g[-band:]
            b -= lower @ y[-band:]
            if leak is not None:
                leak[s:s + g.shape[1]] -= leak[s - g.shape[0]:s] @ g
        if leak is not None:
            np.fill_diagonal(d, 0.0)
            np.fill_diagonal(d, leak[s:s + m] - d.sum(axis=0) + down[s:s + m])
        width = min(band, n - s - m)  # the next block's states coupled to this
        upper = np.zeros((m, width))
        upper[r[above], c[above] - m] = -v[above]
        sol = np.linalg.solve(d, np.column_stack((upper, b)))
        blocks.append((sol[:, :width], sol[:, width]))
    x = np.empty(n)
    after = np.empty(0)
    for k in range(len(blocks) - 1, -1, -1):
        g, y = blocks[k]
        after = y - g @ after[:g.shape[1]]
        x[k * size:k * size + y.size] = after
    return x


def stationary(
    K: TransitionMatrix,
    tol: float = 1e-12,
    max_iters: int = 10**6,
) -> Distribution:
    """Stationary distribution pi with pi K = pi, max|pi K - pi| <= tol.

    Pins pi at a state k that every state reaches and solves the balance
    equations of the other states k reaches, pi_j - sum_{i != k} pi_i K(i, j)
    = K(k, j), by `solve_identity_minus` with their flows into k as the leak.
    States that k does not reach are transient and get exactly 0. The states
    go from the farthest from k (in steps to k) to the nearest, the order in
    which Grassmann, Taksar and Heyman eliminate; it also keeps the states a
    restart row joins (a source-sink chain's) near each other, so the band
    stays narrow. When no state is reached by every state (two closed
    classes, so pi is not unique) or the solve fails or is negative beyond
    roundoff (at least -tol * max pi is clipped to 0), it starts from
    uniform instead; either way power iteration then refines pi until the
    residual is within tol, and raises ConvergenceError if it never is (a
    periodic chain from a start that is not stationary).
    """
    n = K.n_states
    src, dst, p = K.entries()
    ahead_graph, back_graph = _adjacency(n, src, dst), _adjacency(n, dst, src)
    pin = 0
    while True:
        ahead = _levels(n, [pin], ahead_graph)
        steps = _levels(n, [pin], back_graph)  # from each state to the pin
        beyond = (ahead >= 0) & (steps < 0)
        if not beyond.any():
            break
        pin = int(np.argmax(np.where(beyond, ahead, -1)))  # the deepest of them
    pi = np.full(n, 1.0 / n)
    if np.all(steps >= 0):
        live = ahead >= 0
        live[pin] = False
        solved = np.flatnonzero(live)
        solved = solved[np.argsort(-steps[solved], kind="stable")]
        pos = np.full(n, -1, np.intp)
        pos[solved] = np.arange(solved.size)
        inner = live[src] & live[dst]
        from_pin = (src == pin) & live[dst]
        to_pin = (dst == pin) & live[src]
        rhs = np.zeros(solved.size)
        rhs[pos[dst[from_pin]]] = p[from_pin]
        leak = np.zeros(solved.size)
        leak[pos[src[to_pin]]] = p[to_pin]
        try:
            x = solve_identity_minus(solved.size, pos[dst[inner]], pos[src[inner]],
                                     p[inner], rhs, leak)
        except np.linalg.LinAlgError:  # a block singular in working precision
            x = None
        if x is not None and x.min(initial=0.0) >= -tol * max(x.max(initial=0.0), 1.0):
            pi = np.zeros(n)
            pi[pin] = 1.0
            pi[solved] = np.maximum(x, 0.0)
            pi /= pi.sum()
    residual = np.abs(K.push(pi) - pi).max()
    for _ in range(max_iters):
        if residual <= tol:
            break
        pi = K.push(pi)
        pi = pi / pi.sum()
        residual = np.abs(K.push(pi) - pi).max()
    else:
        raise ConvergenceError("stationary distribution did not converge", residual)
    if residual > tol:
        raise ConvergenceError("stationary distribution did not converge", residual)
    return Distribution(pi)


def reaches(K: TransitionMatrix, targets) -> np.ndarray:
    """Mask of the states from which the chain reaches some state of ``targets``
    (the targets included)."""
    src, dst, _ = K.entries()
    return _levels(K.n_states, targets, _adjacency(K.n_states, dst, src)) >= 0


def second_eigenvalue_modulus(P: TransitionMatrix) -> float:
    """|lambda_2|, the second-largest eigenvalue modulus of a (small, coarse)
    stochastic matrix."""
    eigs = np.linalg.eigvals(P.to_dense())
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
    Qm = TransitionMatrix.from_dense(Q)
    return Qm, power(Qm, lag)
