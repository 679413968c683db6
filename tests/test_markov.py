import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weighted_ensemble import (
    Distribution,
    Observable,
    RngStream,
    TransitionMatrix,
    build_coarse_mc,
    build_three_well_chain,
    power,
    second_eigenvalue_modulus,
    stationary,
)
from weighted_ensemble import markov
from weighted_ensemble.hill import SourceSinkSpec, direct_mfpt, source_sink_kernel


def random_chain(draw_floats, n):
    m = np.array(draw_floats).reshape(n, n) + 1e-3
    return TransitionMatrix.from_dense(m / m.sum(axis=1, keepdims=True))


chain_strategy = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n * n, max_size=n * n
    ).map(lambda vals: random_chain(vals, n))
)


def dense_stationary(m: np.ndarray) -> tuple[np.ndarray, float]:
    """pi of an irreducible dense kernel by np.linalg.solve of pi (m - I) = 0
    with the balance equation of its heaviest state (found by a first solve)
    replaced by sum(pi) = 1, and the condition number of that system. The
    equation of a state of tiny mass would fix its pi only to about
    cond * eps / pi."""
    n = m.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(2):
        k = int(np.argmax(pi))
        a = m.T - np.eye(n)
        a[k] = 1.0
        rhs = np.zeros(n)
        rhs[k] = 1.0
        pi = np.linalg.solve(a, rhs)
    return pi, float(np.linalg.cond(a))


def dense_gth_mfpt(m: np.ndarray, F, source: int) -> float:
    """E_source[tau_F] on the dense kernel m by state reduction (Grassmann,
    Taksar & Heyman, Oper. Res. 1985): the states outside F other than the
    source are censored one by one. Censoring k adds to each state left its
    excursions through k (onward probabilities, flows into F and expected
    durations), each over k's exit rate. That rate is k's flow into F plus
    its flow to the states left, so no step subtracts. The source, left
    alone, makes 1 / (its flow into F) visits of its expected duration."""
    outside = np.setdiff1d(np.arange(m.shape[0]), sorted(F))
    a = m[np.ix_(outside, outside)]
    to_f = m[np.ix_(outside, sorted(F))].sum(axis=1)
    time = np.ones(outside.size)
    left = np.ones(outside.size, dtype=bool)
    for k in np.flatnonzero(outside != source):
        left[k] = False
        share = a[left, k] / (to_f[k] + a[k, left].sum())
        a[np.ix_(left, left)] += np.outer(share, a[k, left])
        to_f[left] += share * to_f[k]
        time[left] += share * time[k]
    return float(time[left][0] / to_f[left][0])


# both sides of a solver check err by up to about cond * eps, normwise, so
# the oracle tests allow this multiple of it
COND_EPS = 50 * np.finfo(float).eps


def reachable_from(m: np.ndarray, state: int) -> np.ndarray:
    reached = np.zeros(m.shape[0], dtype=bool)
    reached[state] = True
    for _ in range(m.shape[0]):
        reached |= (reached @ (m > 0)) > 0
    return reached


def fraction_solve(a, b):
    """x with a x = b by Gauss-Jordan elimination on Fractions: exact."""
    rows = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(a, b)]
    for c in range(len(rows)):
        pivot = next(r for r in range(c, len(rows)) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [r[-1] for r in rows]


@st.composite
def banded_chains(draw, transient=True):
    """(K, t, cuts): a random chain of bandwidth 1..S whose states t..S-1
    form one to three closed classes, the runs of states between
    consecutive ``cuts`` (t first, S last), each a birth-death backbone plus
    random entries in the band, and whose states 0..t-1 are transient: they
    move up to t and nothing enters them from a closed class. Without
    ``transient``, t = 0 and the chain is one class."""
    n = draw(st.integers(1, 150))
    band = draw(st.integers(1, max(n - 1, 1)))
    t = draw(st.integers(0, n - 1)) if transient else 0
    inner = draw(st.lists(st.integers(t + 1, n), max_size=2)) if transient else []
    cuts = sorted({t, *inner, n})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.indices((n, n))
    m = np.where((np.abs(i - j) <= band) & (rng.random((n, n)) < 0.5),
                 rng.uniform(0.5, 1.0, (n, n)), 0.0)
    m[(np.abs(i - j) == 1) | (i == j)] += 0.1
    cls = np.searchsorted(cuts, np.arange(n), side="right")
    m[(i >= t) & (cls[i] != cls[j])] = 0.0
    return TransitionMatrix.from_dense(m / m.sum(axis=1, keepdims=True)), t, cuts


class TestTransitionMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TransitionMatrix.from_dense(np.ones((2, 3)) / 3)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            TransitionMatrix.from_dense(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            TransitionMatrix.from_dense(np.array([[0.9, 0.2], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="row 2 sums to"):
            TransitionMatrix.from_dense(np.array([[0.9, 0.1], [0.2, bad]]))

    def test_row_sum_tolerance_is_tight(self):
        ok = np.array([[0.5 + 5e-13, 0.5], [0.5, 0.5]])  # inside 1e-12
        TransitionMatrix.from_dense(ok)
        bad = np.array([[0.5 + 1e-11, 0.5], [0.5, 0.5]])  # outside
        with pytest.raises(ValueError):
            TransitionMatrix.from_dense(bad)

    def test_ell_rows_list_positive_entries_first_in_column_order(self):
        K = TransitionMatrix.from_entries(3, [2, 0, 0, 1], [1, 2, 0, 1],
                                          [1.0, 0.5, 0.5, 1.0])
        assert K.columns.tolist() == [[0, 2], [1, 0], [1, 0]]
        assert K.probs.tolist() == [[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match="ascending column order"):
            TransitionMatrix([[2, 0], [1, 0], [1, 0]], K.probs)
        with pytest.raises(ValueError, match="ascending column order"):
            TransitionMatrix.from_entries(2, [0, 0, 1], [1, 1, 0], [0.5, 0.5, 1.0])
        with pytest.raises(ValueError, match="column index outside"):
            TransitionMatrix([[3, 0], [1, 0], [1, 0]], K.probs)

    def test_row_cumsums_end_at_one(self, two_state):
        cum = two_state.cdf_tables().cumsums
        assert np.all(cum[:, -1] == 1.0)
        assert np.allclose(cum[:, 0], [0.9, 0.2])

    def test_never_steps_to_a_zero_probability_state(self):
        # row 6 of the three-well K sums to 0.9999999999999999 at its last
        # positive entry, state 10; the CDF is pinned to 1 there
        _, K = build_three_well_chain()
        assert np.cumsum(K.to_dense()[5])[9] == 0.9999999999999999
        assert K.step([5], [0.9999999999999999]).tolist() == [9]
        t = K.cdf_tables()
        last = (K.to_dense() > 0).sum(axis=1) - 1
        assert np.all(t.cumsums[np.arange(90), last] == 1.0)
        assert np.array_equal(K.columns[np.arange(90), last],
                              89 - np.argmax(K.to_dense()[:, ::-1] > 0, axis=1))

    def test_guide_brackets_hold_at_most_two_slots(self):
        # the smallest guide that leaves one halving step: 128 buckets on the
        # three-well K, whose rows have at most 9 positive entries; each
        # row's slots count from its first flat slot, i * W
        _, K = build_three_well_chain()
        t = K.cdf_tables()
        assert t.cumsums.shape == (90, 9) and t.slots.shape == (90, 129)
        assert t.slots.dtype == np.uint16  # the narrowest type that holds S W = 810
        guide = t.slots - 9 * np.arange(90)[:, None]
        assert guide.min() == 0 and guide.max() < 9
        assert t.rounds == 1 and np.diff(guide, axis=1).max() == 1
        # cumsums 1/3 and 2/3 below 1: two buckets separate them
        uniform = TransitionMatrix.from_dense(np.full((3, 3), 1 / 3)).cdf_tables()
        assert uniform.slots.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    @pytest.mark.parametrize("n_states", [1, 2, 3, 8, 9, 90, 300])
    def test_step_matches_the_count_rule(self, n_states, dense_cdf):
        # the sampler returns the count of cumsums <= u, zero rows and
        # uniforms that equal a cumsum exactly included
        rng = np.random.default_rng(n_states)
        m = rng.random((n_states, n_states)) ** 4
        m[m < 0.3] = 0.0
        m[:, -1] += 1e-9
        K = TransitionMatrix.from_dense(m / m.sum(axis=1, keepdims=True))
        cum = dense_cdf(K.to_dense())
        states = rng.integers(0, n_states, 4000)
        u = rng.random(4000)
        u[:1000] = cum[states[:1000], rng.integers(0, n_states, 1000)]
        u[u >= 1.0] = 0.0
        ends = K.step(states, u)
        assert np.array_equal(ends, (u[:, None] >= cum[states]).sum(axis=1))
        assert np.all(K.to_dense()[states, ends] > 0)

    @pytest.mark.parametrize("n_states", [1, 2, 3, 9, 90, 300])
    def test_step_matches_the_count_rule_at_every_breakpoint(self, n_states,
                                                             dense_cdf):
        # rows with leading and trailing zeros, a fully dense row and a row
        # whose tiny entries share one guide bucket even at its largest size;
        # u at every guide boundary k/G, every cumsum and the float below each
        rng = np.random.default_rng(n_states)
        m = rng.random((n_states, n_states)) ** 4
        m[m < 0.3] = 0.0
        for i in range(n_states):
            lo, hi = np.sort(rng.integers(0, n_states, 2))
            m[i, :lo] = m[i, hi + 1:] = 0.0
            m[i, rng.integers(lo, hi + 1)] += 0.1
        m[0] = rng.random(n_states) + 0.1
        m[-1, : n_states // 2] = 1e-9
        K = TransitionMatrix.from_dense(m / m.sum(axis=1, keepdims=True))
        if n_states == 300:
            assert K.cdf_tables().rounds > 1  # the halving steps are exercised
        cum = dense_cdf(K.to_dense())
        buckets = K.cdf_tables().slots.shape[1] - 1
        for s, row in enumerate(cum):
            u = np.concatenate([np.arange(buckets) / buckets, row,
                                np.nextafter(row, 0.0)])
            u = u[u < 1.0]
            ends = K.step(np.full(u.size, s), u)
            # a row's cumsums never decrease: the count of those <= u
            assert np.array_equal(ends, np.searchsorted(row, u, side="right"))
            assert np.all(K.to_dense()[s, ends] > 0)


class TestDistributionObservable:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="not 1"):
            Distribution(np.array([0.5, bad]))

    def test_point_mass(self):
        d = Distribution.point_mass(2, 4)
        assert d.weights[2] == 1.0 and d.weights.sum() == 1.0

    def test_observable_rejects_nan(self):
        with pytest.raises(ValueError):
            Observable(np.array([1.0, np.nan]))

    def test_indicator(self):
        f = Observable.indicator([1, 3], 5)
        assert list(f.values) == [0.0, 1.0, 0.0, 1.0, 0.0]


class TestKernelAlgebra:
    def test_apply_right_identity(self):
        K = TransitionMatrix.from_dense(np.eye(3))
        f = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(K.apply(f), f)

    def test_apply_right_uniform_rows_average(self):
        K = TransitionMatrix.from_dense(np.full((3, 3), 1 / 3))
        assert np.allclose(K.apply(np.array([0.0, 3.0, 6.0])), 3.0)

    def test_apply_right_two_state(self, two_state):
        assert np.allclose(two_state.apply(np.array([0.0, 1.0])), [0.1, 0.8])

    def test_apply_left_identity(self):
        K = TransitionMatrix.from_dense(np.eye(3))
        z = np.array([0.2, 0.3, 0.5])
        assert np.allclose(K.push(z), z)

    def test_apply_left_fixed_point(self, two_state):
        z = np.array([2 / 3, 1 / 3])
        assert np.allclose(two_state.push(z), z)

    def test_dimension_mismatch_errors(self, two_state):
        with pytest.raises(ValueError):
            two_state.apply(np.zeros(3))
        with pytest.raises(ValueError):
            two_state.push(np.full(3, 1 / 3))

    @settings(max_examples=50, deadline=None)
    @given(chain_strategy, st.data())
    def test_left_right_adjoint(self, K, data):
        n = K.n_states
        zw = np.array(
            data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        )
        z = zw / zw.sum()
        f = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
        lhs = float(K.push(z) @ f)
        rhs = float(z @ K.apply(f))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=50, deadline=None)
    @given(chain_strategy, st.data())
    def test_products_match_the_dense_matrix(self, K, data):
        m = K.to_dense()
        n = K.n_states
        x = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
        assert np.allclose(K.apply(x), m @ x, rtol=1e-14, atol=1e-14)
        assert np.allclose(K.push(x), x @ m, rtol=1e-14, atol=1e-14)
        assert np.array_equal(TransitionMatrix.from_dense(m).probs, K.probs)


class TestPower:
    def test_power_zero_is_identity(self, two_state):
        assert np.allclose(power(two_state, 0).to_dense(), np.eye(2))

    def test_power_one_is_k(self, two_state):
        assert np.allclose(power(two_state, 1).to_dense(), two_state.to_dense())

    def test_power_two_hand_value(self, two_state):
        assert np.allclose(
            power(two_state, 2).to_dense(), [[0.83, 0.17], [0.34, 0.66]]
        )

    def test_power_additivity_on_large_chain(self):
        Q = build_three_well_chain()[0]
        lhs = power(Q, 7).to_dense()
        rhs = power(Q, 3).to_dense() @ power(Q, 4).to_dense()
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestStationary:
    def test_single_state(self):
        pi = stationary(TransitionMatrix.from_dense(np.array([[1.0]])))
        assert pi.weights[0] == 1.0

    def test_two_state_exact(self, two_state):
        assert np.allclose(stationary(two_state).weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_three_well_residual(self, setup):
        pi = stationary(setup.K)
        assert np.abs(pi.weights @ setup.K.to_dense() - pi.weights).max() <= 1e-12

    def test_source_sink_chain_gives_unreached_states_exactly_zero(self, setup):
        # the 6 sink states no state reaches are transient and get exactly 0,
        # where a dense solve leaves them +-1e-16; the rest match a dense solve
        # to within its conditioning, where power iteration from uniform would
        # only approach to 2.9e-6 relative
        rho = Distribution.point_mass(0, 90)
        K = source_sink_kernel(SourceSinkSpec(setup.K, frozenset(range(80, 90)), rho))
        m = K.to_dense()
        reached = reachable_from(m, 0)
        pi = stationary(K).weights
        assert np.count_nonzero(~reached) == 6 and np.all(pi[~reached] == 0.0)
        ref, _ = dense_stationary(m[np.ix_(reached, reached)])
        assert np.all(np.abs(pi[reached] - ref) <= 1e-10 * ref)

    def test_same_for_lag_and_base_chain(self, setup):
        Q = build_three_well_chain()[0]
        assert np.allclose(stationary(Q).weights, stationary(setup.K).weights,
                           atol=1e-10)

    @staticmethod
    def sampled_coarse_matrix(setup):
        """The three-well chain's coarse P from 300 one-step samples of seed
        0, as `coarse_samples = 300` builds it. No bin is reached from every
        bin: it has three closed classes, so its pi is not unique."""
        P, _ = build_coarse_mc(setup.K, setup.bins, setup.f, 300,
                               RngStream(0).at(0, "coarse"))
        assert not any(markov.reaches(P, [k]).all() for k in range(P.n_states))
        return P

    def test_sampled_coarse_model_meets_the_residual(self, setup):
        P = self.sampled_coarse_matrix(setup)
        pi = stationary(P).weights
        assert np.abs(P.push(pi) - pi).max() <= 1e-12

    def test_sampled_coarse_model_matches_a_long_power_iteration(self, setup):
        # the classes are aperiodic, so power iteration from uniform tends to
        # the Cesaro limit; 2000 steps take it to roundoff, and its transient
        # bins below 1e-80
        P = self.sampled_coarse_matrix(setup)
        pi = stationary(P).weights
        x = np.full(P.n_states, 1.0 / P.n_states)
        for _ in range(2000):
            x = P.push(x)
            x /= x.sum()
        live = pi > 0
        assert np.count_nonzero(~live) == 16 and np.all(x[~live] < 1e-80)
        assert np.all(np.abs(x - pi)[live] <= 1e-14 * pi[live])

    def test_a_residual_miss_raises_value_error(self):
        # up 0.4 and down 0.1 on 600 states: pi spans 4^599, about 1e361,
        # past the double range, so the solve pinned at its lightest state
        # overflows
        n = 600
        m = np.diag(np.full(n - 1, 0.4), 1) + np.diag(np.full(n - 1, 0.1), -1)
        K = TransitionMatrix.from_dense(m + np.diag(1.0 - m.sum(axis=1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="missed its tolerance"):
                stationary(K)

    def test_two_periodic_classes_and_a_transient_state_are_exact(self):
        # 0 <-> 1, 2 <-> 3 and 4 -> 0: uniform sends 3/5 of its mass into
        # {0, 1} and 2/5 into {2, 3}, each split evenly: the Cesaro limit,
        # where power iteration from uniform oscillates
        m = np.zeros((5, 5))
        m[[0, 1, 2, 3, 4], [1, 0, 3, 2, 0]] = 1.0
        pi = stationary(TransitionMatrix.from_dense(m)).weights
        assert pi.tolist() == [0.3, 0.3, 0.2, 0.2, 0.0]

    def test_two_aperiodic_classes_match_exact_absorption(self):
        # classes {1, 4} and {3, 5, 6}; transient 0 feeds the first and 2,
        # and 2 feeds the second and 0. Each class's mass is its uniform
        # share plus what the transient states send into it, from the
        # fundamental matrix (I - Q_T)^-1, all in exact fractions
        entries = {(0, 0): 0.25, (0, 1): 0.5, (0, 2): 0.25,
                   (1, 1): 0.5, (1, 4): 0.5,
                   (2, 0): 0.125, (2, 3): 0.625, (2, 5): 0.25,
                   (3, 3): 0.25, (3, 5): 0.75,
                   (4, 1): 0.75, (4, 4): 0.25,
                   (5, 3): 0.5, (5, 6): 0.5,
                   (6, 3): 0.75, (6, 6): 0.25}
        n = 7
        k = [[Fraction(entries.get((a, b), 0.0)) for b in range(n)] for a in range(n)]
        transient = [0, 2]
        visits = fraction_solve(
            [[(a == b) - k[b][a] for b in transient] for a in transient], [1, 1])
        want = [Fraction(0)] * n
        for cls in ([1, 4], [3, 5, 6]):
            # the class's law: its balance equations with the first replaced
            # by the sum being 1
            law = fraction_solve(
                [[1] * len(cls)] + [[(a == b) - k[b][a] for b in cls] for a in cls[1:]],
                [1] + [0] * (len(cls) - 1))
            into = len(cls) + sum(y * k[i][j] for y, i in zip(visits, transient)
                                  for j in cls)
            for j, share in zip(cls, law):
                want[j] = into / n * share
        rows, cols = zip(*entries)
        pi = stationary(TransitionMatrix.from_entries(n, rows, cols,
                                                      list(entries.values()))).weights
        assert pi[transient].tolist() == [0.0, 0.0]
        assert np.allclose(pi, [float(w) for w in want], rtol=4e-16, atol=0.0)

    def test_hundred_thousand_closed_classes_in_a_second(self):
        # the identity: every state is its own class. A class search that
        # costs a pass over the chain per class would take minutes
        n = 10**5
        K = TransitionMatrix.from_entries(n, np.arange(n), np.arange(n), np.ones(n))
        start = time.perf_counter()
        pi = stationary(K).weights
        assert time.perf_counter() - start <= 1.0
        assert np.allclose(pi, 1.0 / n, rtol=1e-12, atol=0.0)


class TestSolves:
    """`stationary` and `direct_mfpt` against dense oracles (np.linalg.solve
    and state reduction), at bandwidths from 1 to S, so that systems of one
    block and of many, of either parity, all run."""

    def test_coupling_past_max_block_is_refused(self):
        # one entry joins the first and the last state: a block would hold
        # all of them, and it is refused before it is allocated
        n = markov.MAX_BLOCK + 2
        with pytest.raises(ValueError, match=f"couples states {n - 1} apart"):
            markov.solve_identity_minus(n, [n - 1], [0], [0.5], np.ones(n), np.ones(n))

    @settings(max_examples=60, deadline=None)
    @given(banded_chains())
    def test_stationary_matches_a_dense_solve(self, chain):
        # each closed class's dense pi, weighted by the mass that uniform
        # sends into the class: its share plus y K, y (I - Q_T) = 1 on the
        # transient states
        K, t, cuts = chain
        pi = stationary(K).weights
        assert np.all(pi[:t] == 0.0)
        m = K.to_dense()
        a = np.eye(t) - m[:t, :t]
        visits = np.linalg.solve(a.T, np.ones(t))
        cond = np.linalg.cond(a) if t else 1.0
        ref = np.zeros(m.shape[0])
        for lo, hi in zip(cuts, cuts[1:]):
            law, class_cond = dense_stationary(m[lo:hi, lo:hi])
            ref[lo:hi] = (hi - lo + visits @ m[:t, lo:hi].sum(axis=1)) / m.shape[0] * law
            cond = max(cond, class_cond)
        assert np.abs(pi[t:] - ref[t:]).max() <= COND_EPS * cond * ref.max()

    @settings(max_examples=60, deadline=None)
    @given(banded_chains(transient=False), st.data())
    def test_direct_mfpt_matches_a_dense_solve(self, chain, data):
        K, _, _ = chain
        n = K.n_states
        if n < 2:
            return
        F = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        outside = np.setdiff1d(np.arange(n), sorted(F))
        source = data.draw(st.sampled_from(outside.tolist()))
        got = direct_mfpt(K, Distribution.point_mass(source, n), F)
        m = K.to_dense()
        a = np.eye(outside.size) - m[np.ix_(outside, outside)]
        want = dense_gth_mfpt(m, F, source)
        assert abs(got - want) <= COND_EPS * np.linalg.cond(a) * want

    @pytest.mark.parametrize("n", [90, 120])
    def test_steep_birth_death_mfpt_is_exact(self, n):
        # up 0.3, down 0.2 and reflecting ends: pi_k is proportional to
        # (up / down)^k, so E_1[tau_0] = sum_{k >= 1} pi_k / (pi_1 down),
        # about 4.7e16 on 90 states and 9.0e21 on 120, here summed exactly.
        # The flows into F are the leaks; a solve whose pivots subtract reads
        # these far off
        up, down = 0.3, 0.2
        m = np.diag(np.full(n - 1, up), 1) + np.diag(np.full(n - 1, down), -1)
        K = TransitionMatrix.from_dense(m + np.diag(1.0 - m.sum(axis=1)))
        ratio = Fraction(up) / Fraction(down)
        want = float(sum(ratio**k for k in range(n - 1)) / Fraction(down))
        got = direct_mfpt(K, Distribution.point_mass(1, n), [0])
        assert abs(got - want) <= 1e-12 * want

    def test_gth_elimination_matches_a_dense_solve(self):
        # a batch of three systems of 70 states, over three panels, with two
        # right-hand sides; each system's leak row holds the column sums of
        # its I - E
        n = 70
        rng = np.random.default_rng(5)
        e = rng.uniform(0.0, 1.0, (3, n, n)) * (rng.random((3, n, n)) < 0.6)
        e *= rng.uniform(0.5, 1.0, (3, 1, n)) / np.maximum(e.sum(axis=1, keepdims=True),
                                                           1e-300)
        a = np.eye(n) - e
        b = rng.uniform(0.0, 1.0, (3, n, 2))
        t = np.zeros((3, n + 1, n + 2))
        t[:, :n, :n], t[:, :n, n:], t[:, n, :n] = e, b, a.sum(axis=1)
        pivot = markov._gth_eliminate(t, n)
        got = t[:, :n, n:] / pivot[:, :, None]
        assert np.allclose(got, np.linalg.solve(a, b), rtol=1e-12, atol=0.0)

    def test_random_steep_birth_death_chains_are_exact(self):
        # up and down rates U(0.01, 0.5), scaled by exp(g) and exp(-g) with
        # g ~ N(0, 1.2) per state, rows scaled to sum to at most 0.999: pi
        # spans up to about 4e43. Each pi is checked state by state against
        # detailed balance pi[i + 1] / pi[i] = up[i] / down[i + 1]
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(80, 151))
            g = np.exp(rng.normal(0.0, 1.2, n))
            up, down = rng.uniform(0.01, 0.5, n) * g, rng.uniform(0.01, 0.5, n) / g
            up[-1] = down[0] = 0.0
            scale = np.maximum((up + down) / 0.999, 1.0)
            up, down = up / scale, down / scale
            i = np.arange(n)
            K = TransitionMatrix.from_entries(
                n, np.concatenate((i, i[:-1], i[1:])), np.concatenate((i, i[1:], i[:-1])),
                np.concatenate((1.0 - up - down, up[:-1], down[1:])))
            ref = np.concatenate(([1.0], np.cumprod(up[:-1] / down[1:])))
            ref /= ref.sum()
            pi = stationary(K).weights
            assert np.all(np.abs(pi - ref) <= 1e-12 * ref)

    def test_hundred_thousand_state_birth_death_chain(self):
        # detailed balance pi[i + 1] / pi[i] = up[i] / down[i + 1] on a
        # three-well landscape with per-state rates: a metastable chain whose
        # wells hold pi from 3e-9 to 6e-5; the leak-carrying elimination keeps
        # every state's relative error near 1e-11
        n = 10**5
        x = np.arange(1, n + 1)
        drift = np.sin(6.0 * np.pi * x / n) * 90 / n
        rate = np.random.default_rng(0).uniform(0.9, 1.1, n)
        up, down = (0.4 + drift / 5) * rate, (0.4 - drift / 5) * rate
        up[-1] = down[0] = 0.0
        i = np.arange(n)
        K = TransitionMatrix.from_entries(
            n, np.concatenate((i, i[:-1], i[1:])), np.concatenate((i, i[1:], i[:-1])),
            np.concatenate((1.0 - up - down, up[:-1], down[1:])))
        log_pi = np.concatenate(([0.0], np.cumsum(np.log(up[:-1] / down[1:]))))
        ref = np.exp(log_pi - log_pi.max())
        pi = stationary(K).weights
        assert np.allclose(pi, ref / ref.sum(), rtol=1e-9, atol=0.0)

    def test_two_closed_classes_get_their_uniform_shares(self):
        # no state is reached by every state, so pi is not unique; each
        # class keeps the share that uniform gives it
        pi = stationary(TransitionMatrix.from_dense(np.eye(2))).weights
        assert pi.tolist() == [0.5, 0.5]


class TestSecondEigenvalue:
    def test_identity(self):
        assert second_eigenvalue_modulus(TransitionMatrix.from_dense(np.eye(2))) == 1.0

    def test_rank_one(self):
        P = TransitionMatrix.from_dense(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert second_eigenvalue_modulus(P) <= 1e-12

    def test_two_state(self, two_state):
        assert abs(second_eigenvalue_modulus(two_state) - 0.7) <= 1e-12


class TestThreeWellChain:
    def test_shape_and_stochastic(self):
        Q = build_three_well_chain()[0].to_dense()
        assert Q.shape == (90, 90)
        assert np.allclose(Q.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(Q >= 0) and np.all(Q <= 1)

    def test_tridiagonal(self):
        Q = build_three_well_chain()[0].to_dense()
        for k in range(2, 90):
            assert np.all(np.diagonal(Q, k) == 0)
            assert np.all(np.diagonal(Q, -k) == 0)

    def test_drift_values(self):
        Q = build_three_well_chain()[0].to_dense()
        # states 45 and 90 sit where the drift sin(6 pi i / 90) vanishes
        assert abs(Q[44, 45] - 0.4) <= 1e-12
        assert abs(Q[89, 88] - 0.4) <= 1e-12

    def test_boundary_rows_absorb_into_diagonal(self):
        Q = build_three_well_chain()[0].to_dense()
        assert abs(Q[0, 0] - (1.0 - Q[0, 1])) <= 1e-12
        assert abs(Q[89, 89] - (1.0 - Q[89, 88])) <= 1e-12

    def test_k_is_fourth_power(self, setup):
        Q = build_three_well_chain()[0]
        assert np.allclose(setup.K.to_dense(), power(Q, 4).to_dense(), atol=1e-12)
