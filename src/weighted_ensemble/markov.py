"""Finite-state Markov chain primitives: kernels, distributions, observables,
and the exact linear solves on them.

States are 1-indexed in all file I/O and user-facing configuration; internally
everything is a 0-indexed numpy array.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

ROW_SUM_TOL = 1e-12


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

    def __init__(self, columns: np.ndarray, probs: np.ndarray):
        c = np.asarray(columns, dtype=np.intp)
        p = np.asarray(probs, dtype=float)
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
        self.columns, self.probs = c, p
        self._cdf_tables = None  # built by the first `cdf_tables` call

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
        return self.applier()(g)

    def applier(self) -> Callable[[np.ndarray], np.ndarray]:
        """`apply` for the many steps of a recursion on this kernel: the same
        gather, product and row sum, so the same bits, with the ones vector
        made once, and without the conversion and shape check, so each step
        is given a float vector over the states."""
        probs, columns = self.probs, self.columns
        # a product with ones sums each row in a third of the time of .sum
        ones = np.ones(probs.shape[1])
        return lambda g: (probs * g[columns]) @ ones

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
        if self._cdf_tables is None:
            self._cdf_tables = CdfTables.of(self.probs)
        return self._cdf_tables

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
        buckets = t.slots.shape[1] - 1
        s = np.asarray(states, dtype=np.int64)
        u = np.asarray(u, dtype=float)
        slots, cum = t.slots.ravel(), t.cumsums.ravel()
        # u * buckets is exact, as buckets is a power of two
        k = s * (buckets + 1) + (u * buckets).astype(np.int64)
        # flat slot indices; the answer lies in [lo, hi]
        lo = slots[k].astype(np.intp)
        if t.rounds > 1:
            # a probe past hi reads a cumsum above u, so clamping it is exact
            hi = slots[k + 1]
            for r in range(t.rounds - 1, 0, -1):
                lo += (cum[np.minimum(lo + ((1 << r) - 1), hi)] <= u) * (1 << r)
        lo += cum[lo] <= u
        return self.columns.ravel()[lo]


# most guide buckets per row; rows that still have two cumsums in one bucket
# at this size search a wider bracket
MAX_GUIDE_BUCKETS = 1024


class CdfTables(NamedTuple):
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
    close the widest bracket. The guide is kept as ``slots``, i W +
    guide[i, k], the flat index of that slot in the (S, W) tables, so a
    bracket's end is one gather.

    Memory: 8 S W bytes of cumsums plus S (G + 1) slots of the narrowest
    unsigned type that holds S W.
    """

    cumsums: np.ndarray
    slots: np.ndarray
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
        guide = np.cumsum(hits.reshape(n, buckets + 1), axis=1)
        slots = (guide + (np.arange(n) * width)[:, None]).astype(
            np.min_scalar_type(n * width))
        rounds = max(1, int(hits.max()).bit_length())
        for a in (cumsums, slots):
            a.setflags(write=False)
        return cls(cumsums, slots, rounds)


class Distribution:
    """Probability vector over states."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("distribution must be a vector")
        if np.any(w < 0):
            raise ValueError("distribution has negative entries")
        if not abs(w.sum() - 1.0) <= ROW_SUM_TOL:  # NaN and inf fail too
            raise ValueError(f"distribution sums to {float(w.sum())!r}, not 1")
        w.setflags(write=False)
        self.weights = w

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def point_mass(cls, state: int, n_states: int) -> "Distribution":
        """Delta distribution at a 0-indexed state."""
        w = np.zeros(n_states)
        w[state] = 1.0
        return cls(w)


class Observable:
    """Real-valued function on states, stored as a vector."""

    def __init__(self, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1:
            raise ValueError("observable must be a vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("observable has non-finite entries")
        v.setflags(write=False)
        self.values = v

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


def _levels(n: int, sources, graph) -> np.ndarray:
    """Breadth-first level of every state from the ``sources`` along the
    edges of ``graph`` (`_adjacency` lists); -1 where none reaches.

    A Python loop over the edges, about 0.1 us each: a level-synchronous
    numpy search pays a dozen calls per level, and a banded chain has S / b
    levels."""
    start, succ = (a.tolist() for a in graph)
    level = [-1] * n
    frontier = sorted(set(np.asarray(sources, dtype=np.intp).tolist()))
    for x in frontier:
        level[x] = 0
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for x in frontier:
            for y in succ[start[x]:start[x + 1]]:
                if level[y] < 0:
                    level[y] = depth
                    reached.append(y)
        frontier = reached
    return np.array(level, dtype=np.intp)


def _closed_classes(n: int, graph) -> tuple[np.ndarray, np.ndarray]:
    """Each state's closed class (one that no edge of ``graph``, `_adjacency`
    lists, leaves), or -1 for a transient state, and each class's lowest
    state, the classes numbered in that state's order. Tarjan's strongly
    connected components (SIAM J. Comput. 1972) with an explicit path, in
    O(states + edges); a visited state is on ``stack`` until labelled."""
    start, succ = (a.tolist() for a in graph)
    nxt, index, low, comp = start[:-1], [-1] * n, [0] * n, [-1] * n
    stack, path, count, found = [], [], 0, 0
    for root in range(n):
        w = root if index[root] < 0 else -1
        while w >= 0 or path:
            if w >= 0:
                index[w] = low[w] = count
                count += 1
                stack.append(w)
                path.append(w)
            v = path[-1]
            k, end, lv = nxt[v], start[v + 1], low[v]
            w = -1
            while k < end:  # up to v's next unvisited successor w
                w = succ[k]
                if index[w] < 0:
                    break  # its edge is read again, for its low, once w is done
                if comp[w] < 0 and low[w] < lv:
                    lv = low[w]
                k, w = k + 1, -1
            nxt[v], low[v] = k, lv
            if w < 0:  # v is done
                path.pop()
                if lv == index[v]:
                    while comp[v] < 0:
                        comp[stack.pop()] = found
                    found += 1
    comp = np.array(comp, dtype=np.intp)
    src = np.repeat(np.arange(n), np.diff(graph[0]))
    closed = np.bincount(comp[src], weights=comp[src] != comp[graph[1]],
                         minlength=found) == 0
    lowest = np.sort(np.unique(comp, return_index=True)[1][closed])
    label = np.full(found, -1, np.intp)
    label[comp[lowest]] = np.arange(lowest.size)
    return label[comp], lowest


# -------------------------------------------------------------------- solves

# most states apart that the solve may couple; it takes about 60 n b bytes
# at bandwidth b
MAX_BLOCK = 2048
PANEL = 32  # states per panel of `_gth_eliminate`


def solve_identity_minus(n: int, rows, cols, vals, rhs, leak) -> np.ndarray:
    """x with (I - E) x = rhs, E the n x n matrix with entry vals[k] at
    (rows[k], cols[k]), each position at most once, and I - E a nonsingular
    M-matrix (E >= 0, substochastic in columns, with every state leaking).

    ``leak`` holds the column sums of I - E, each >= 0, and E's diagonal is
    never read: each pivot is rebuilt from its column's leak and off-diagonal
    entries, and the leak is carried to the columns left (Grassmann, Taksar
    and Heyman, Oper. Res. 1985). No step subtracts, so for rhs >= 0 every
    entry of x keeps its relative accuracy (O'Cinneide, Numer. Math. 1993),
    one deep in a metastable well too. Blocks of b = max |row - col| states
    (one block if 2 b >= n) couple only to their neighbours, and `_reduce`
    solves them in O(n b^2) flops and O(n b) memory; b > `MAX_BLOCK` raises.
    """
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    band = int(np.abs(rows - cols).max(initial=0))
    if band > MAX_BLOCK and n > MAX_BLOCK:
        raise ValueError(f"the linear solve couples states {band} apart, more than "
                         f"{MAX_BLOCK}: its dense blocks would not fit in memory")
    size = max(n if 2 * band >= n else band, 1)
    m = -(-n // size)
    blocks = np.zeros((m, size, (3 if m > 1 else 1) * size + 1))
    blocks[rows // size, rows % size, (cols - rows + rows % size) % (3 * size)] = vals
    blocks[..., -1].flat[:n] = rhs
    # the states past n only leak
    leaks = np.concatenate((leak, np.ones(m * size - n))).reshape(m, size)
    return _reduce(blocks, leaks).ravel()[:n]


def _reduce(blocks: np.ndarray, leak: np.ndarray) -> np.ndarray:
    """x (m, B) of `solve_identity_minus`'s system in m blocks of B states,
    block k's rows ``blocks[k]`` (overwritten: E in the columns of blocks k,
    k + 1 and k - 1, or of k alone, then the rhs) and columns' leaks
    ``leak[k]``. Block cyclic reduction (Heller, SIAM J. Numer. Anal. 1976):
    `_gth_eliminate` eliminates the even blocks, their fill on the odd ones
    is a product of nonnegative matrices, and the odd blocks' x come first."""
    m, size = leak.shape
    even, odd = blocks[0::2], blocks[1::2]
    ne, no = even.shape[0], odd.shape[0]
    w = (blocks.shape[2] - size - 1) // 2  # the width of the blocks on either side
    # odd block i is right of even block i and left of even block i + 1; out:
    # the rows of those odd blocks in the even blocks' columns, then the leaks
    out = np.zeros((ne, 2 * w + 1, size))
    if no:
        out[:no, :w] = odd[:, :, size + w:-1]
        out[1:, w:-1] = odd[:ne - 1, :, size:size + w]
        odd[:, :, size:-1] = 0.0
    out[:, -1] = leak[0::2]
    t = np.zeros((ne, size + 1, size + 2 * w + 1))
    t[:, :size] = even
    t[:, -1, :size] = out.sum(axis=1)
    pivot = _gth_eliminate(t, size)
    own = t[:, :size, size:] / pivot[:, :, None]  # x = own . (x beside, 1)
    del t  # own is a new array: free the elimination before the fill product
    x = np.zeros((m + 2, size))  # the blocks' x, between two blocks of zeros
    if no:
        fill = out @ own
        odd[:, :, :size] += fill[:no, :w, :w]
        odd[:, :, size + w:] += fill[:no, :w, w:]
        odd[:ne - 1, :, :size] += fill[1:, w:-1, w:-1]
        odd[:ne - 1, :, size:size + w] += fill[1:, w:-1, :w]
        odd[:ne - 1, :, -1] += fill[1:, w:-1, -1]
        reduced_leak = leak[1::2] + fill[:no, -1, :w]
        reduced_leak[:ne - 1] += fill[1:, -1, w:-1]
        del out, fill
        x[2:m + 1:2] = _reduce(odd, reduced_leak)
    beside = np.concatenate((x[2::2][:ne, :w], x[:2 * ne:2, :w], np.ones((ne, 1))), axis=1)
    x[1:m + 1:2] = (own @ beside[:, :, None])[:, :, 0]
    return x[1:m + 1]


def _gth_eliminate(t: np.ndarray, size: int) -> np.ndarray:
    """The pivots (batch, size) of Gauss-Jordan steps without pivoting, in
    place, over the first ``size`` rows and columns of each t[b] >= 0: E of
    (I - E) x = rhs (diagonal unread), the rhs last, then a row of leaks.
    Each pivot is the sum of the entries below it, and each step adds a
    nonnegative multiple of its row to every other row, leaving pivot_i x_i
    = t[b, i, size:] . (x of the other states, 1). Updates past a panel of
    `PANEL` states, but its own rows', wait for one product."""
    pivot = np.empty((size, t.shape[0]))
    for a in range(0, size, PANEL):
        b = min(a + PANEL, size)
        end = t.shape[2] if b == size else b  # the last panel updates every column
        for j in range(a, b):
            t[:, j, j] = 0.0
            p = np.add.reduce(t[:, j + 1:, j], axis=1, out=pivot[j])
            f = t[:, :, j, None] / p[:, None, None]
            update = t[:, :, j + 1:end]
            update += f * t[:, None, j, j + 1:end]
            if end < t.shape[2]:  # each row of the panel reaches its step whole
                below = t[:, j + 1:b, end:]
                below += f[:, j + 1:b] * t[:, None, j, end:]
        if end < t.shape[2]:
            f = t[:, :, a:b] / pivot[a:b].T[:, None, :]
            f[:, a:b][:, np.tri(b - a, dtype=bool)] = 0.0
            past = t[:, :, end:]
            past += f @ t[:, a:b, end:].copy()
    return pivot.T


def occupation(K: TransitionMatrix, keep, start) -> np.ndarray:
    """y with y (I - Q) = start, Q the kernel K restricted to the states
    ``keep`` in that order: from the measure ``start`` on them, the expected
    visits to each before the chain leaves ``keep``, each to its relative
    accuracy. The one caller of `solve_identity_minus`, on the transposed
    system, whose leaks are the kept states' flows out of ``keep``."""
    pos = np.full(K.n_states, -1, np.intp)
    pos[keep] = np.arange(len(keep))
    src, dst, p = K.entries()
    src, dst = pos[src], pos[dst]
    inner, out = (src >= 0) & (dst >= 0), (src >= 0) & (dst < 0)
    leak = np.bincount(src[out], weights=p[out], minlength=len(keep))
    return solve_identity_minus(len(keep), dst[inner], src[inner], p[inner], start, leak)


# the residual max|pi K - pi| that `stationary` accepts
STATIONARY_TOL = 1e-12


def stationary(K: TransitionMatrix) -> Distribution:
    """Stationary distribution pi with pi K = pi: the Cesaro limit of the
    chain's laws from uniform. ValueError if max|pi K - pi| > `STATIONARY_TOL`
    or if pi pinned at 1 overflows.

    Pins each closed class's law at its lowest state k and solves the
    balance equations of its other states,
    pi_j - sum_{i != k} pi_i K(i, j) = K(k, j), by one `occupation` call for
    all classes (each state's leak is its flow into its class's k), so each
    pi_j keeps its relative accuracy. Transient states get exactly 0. Within
    a class the states go from the farthest from k (in steps to k) to the
    nearest, by descending state within a step: that keeps the band narrow,
    for a source-sink chain's restart rows too. With several classes, each
    law is weighted by the mass that uniform sends into its class (Kemeny
    and Snell, Finite Markov Chains, 1960, ch. 3): its own share plus y K,
    y the `occupation` of the transient states from uniform.
    """
    n = K.n_states
    src, dst, _ = K.entries()
    cls, pins = _closed_classes(n, _adjacency(n, src, dst))
    steps = _levels(n, pins, _adjacency(n, dst, src))  # from each state to its pin
    order = np.lexsort((-np.arange(n), -steps, cls))
    solved = order[(cls[order] >= 0) & (steps[order] > 0)]
    pi = np.zeros(n)
    pi[pins] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        pi[solved] = occupation(K, solved, K.push(pi)[solved])
    if not np.isfinite(pi.sum()):
        raise ValueError("stationary solve missed its tolerance: pi overflows")
    if pins.size > 1:
        transient, closed = order[cls[order] < 0], cls >= 0
        y = np.zeros(n)
        y[transient] = occupation(K, transient, np.ones(transient.size))
        # n times the mass that uniform sends into each class, over its law's sum
        weight = (np.bincount(cls[closed], weights=1.0 + K.push(y)[closed])
                  / np.bincount(cls[closed], weights=pi[closed]))
        pi[closed] *= weight[cls[closed]]
    pi /= pi.sum()
    residual = np.abs(K.push(pi) - pi).max()
    if not residual <= STATIONARY_TOL:
        raise ValueError(f"stationary solve missed its tolerance: residual {residual:.3e}")
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
