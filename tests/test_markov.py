import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weighted_ensemble import (
    Distribution,
    Observable,
    TransitionMatrix,
    apply_left,
    apply_right,
    build_three_well_chain,
    power,
    second_eigenvalue_modulus,
    stationary,
)
from weighted_ensemble import markov
from weighted_ensemble.markov import CdfTables


def random_chain(draw_floats, n):
    m = np.array(draw_floats).reshape(n, n) + 1e-3
    return TransitionMatrix(m / m.sum(axis=1, keepdims=True))


chain_strategy = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n * n, max_size=n * n
    ).map(lambda vals: random_chain(vals, n))
)


class TestTransitionMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.ones((2, 3)) / 3)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.9, 0.2], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="row 2 sums to"):
            TransitionMatrix(np.array([[0.9, 0.1], [0.2, bad]]))

    def test_row_sum_tolerance_is_tight(self):
        ok = np.array([[0.5 + 5e-13, 0.5], [0.5, 0.5]])  # inside 1e-12
        TransitionMatrix(ok)
        bad = np.array([[0.5 + 1e-11, 0.5], [0.5, 0.5]])  # outside
        with pytest.raises(ValueError):
            TransitionMatrix(bad)

    def test_row_cumsums_end_at_one(self, two_state):
        cum = two_state.cdf_tables().cumsums
        assert np.all(cum[:, -1] == 1.0)
        assert np.allclose(cum[:, 0], [0.9, 0.2])

    def test_never_steps_to_a_zero_probability_state(self):
        # row 6 of the three-well K sums to 0.9999999999999999 at its last
        # positive entry, state 10; the CDF is pinned to 1 there
        _, K = build_three_well_chain()
        assert np.cumsum(K.matrix[5])[9] == 0.9999999999999999
        assert K.step([5], [0.9999999999999999]).tolist() == [9]
        t = K.cdf_tables()
        last = (K.matrix > 0).sum(axis=1) - 1
        assert np.all(t.cumsums[np.arange(90), last] == 1.0)
        assert np.array_equal(t.columns[np.arange(90), last],
                              89 - np.argmax(K.matrix[:, ::-1] > 0, axis=1))

    def test_guide_brackets_hold_at_most_two_slots(self):
        # the smallest guide that leaves one halving step: 128 buckets on the
        # three-well K, whose rows have at most 9 positive entries
        _, K = build_three_well_chain()
        t = K.cdf_tables()
        assert t.cumsums.shape == (90, 9) and t.guide.shape == (90, 129)
        assert t.rounds == 1 and np.diff(t.guide, axis=1).max() == 1
        # cumsums 1/3 and 2/3 below 1: two buckets separate them
        uniform = TransitionMatrix(np.full((3, 3), 1 / 3)).cdf_tables()
        assert uniform.guide.tolist() == [[0, 1, 2]] * 3

    def test_tables_do_not_depend_on_the_build_block(self, monkeypatch):
        # the build reads the matrix a block of rows at a time
        _, K = build_three_well_chain()
        whole = CdfTables.of(K.matrix)
        monkeypatch.setattr(markov, "_BUILD_ENTRIES", 200)  # 2 rows a block
        blocked = CdfTables.of(K.matrix)
        for name in ("columns", "cumsums", "guide", "rounds"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))

    @pytest.mark.parametrize("n_states", [1, 2, 3, 8, 9, 90, 300])
    def test_step_matches_the_count_rule(self, n_states, dense_cdf):
        # the sampler returns the count of cumsums <= u, zero rows and
        # uniforms that equal a cumsum exactly included
        rng = np.random.default_rng(n_states)
        m = rng.random((n_states, n_states)) ** 4
        m[m < 0.3] = 0.0
        m[:, -1] += 1e-9
        K = TransitionMatrix(m / m.sum(axis=1, keepdims=True))
        cum = dense_cdf(K.matrix)
        states = rng.integers(0, n_states, 4000)
        u = rng.random(4000)
        u[:1000] = cum[states[:1000], rng.integers(0, n_states, 1000)]
        u[u >= 1.0] = 0.0
        ends = K.step(states, u)
        assert np.array_equal(ends, (u[:, None] >= cum[states]).sum(axis=1))
        assert np.all(K.matrix[states, ends] > 0)

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
        K = TransitionMatrix(m / m.sum(axis=1, keepdims=True))
        if n_states == 300:
            assert K.cdf_tables().rounds > 1  # the halving steps are exercised
        cum = dense_cdf(K.matrix)
        buckets = K.cdf_tables().guide.shape[1] - 1
        for s, row in enumerate(cum):
            u = np.concatenate([np.arange(buckets) / buckets, row,
                                np.nextafter(row, 0.0)])
            u = u[u < 1.0]
            ends = K.step(np.full(u.size, s), u)
            # a row's cumsums never decrease: the count of those <= u
            assert np.array_equal(ends, np.searchsorted(row, u, side="right"))
            assert np.all(K.matrix[s, ends] > 0)


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
        K = TransitionMatrix(np.eye(3))
        f = Observable(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(apply_right(K, f).values, f.values)

    def test_apply_right_uniform_rows_average(self):
        K = TransitionMatrix(np.full((3, 3), 1 / 3))
        f = Observable(np.array([0.0, 3.0, 6.0]))
        assert np.allclose(apply_right(K, f).values, 3.0)

    def test_apply_right_two_state(self, two_state):
        f = Observable(np.array([0.0, 1.0]))
        assert np.allclose(apply_right(two_state, f).values, [0.1, 0.8])

    def test_apply_left_identity(self):
        K = TransitionMatrix(np.eye(3))
        z = Distribution(np.array([0.2, 0.3, 0.5]))
        assert np.allclose(apply_left(z, K).weights, z.weights)

    def test_apply_left_fixed_point(self, two_state):
        z = Distribution(np.array([2 / 3, 1 / 3]))
        assert np.allclose(apply_left(z, two_state).weights, z.weights)

    def test_dimension_mismatch_errors(self, two_state):
        with pytest.raises(ValueError):
            apply_right(two_state, Observable(np.zeros(3)))
        with pytest.raises(ValueError):
            apply_left(Distribution(np.full(3, 1 / 3)), two_state)

    @settings(max_examples=50, deadline=None)
    @given(chain_strategy, st.data())
    def test_left_right_adjoint(self, K, data):
        n = K.n_states
        zw = np.array(
            data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        )
        z = Distribution(zw / zw.sum())
        f = Observable(
            np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
        )
        lhs = float(apply_left(z, K).weights @ f.values)
        rhs = float(z.weights @ apply_right(K, f).values)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestPower:
    def test_power_zero_is_identity(self, two_state):
        assert np.allclose(power(two_state, 0).matrix, np.eye(2))

    def test_power_one_is_k(self, two_state):
        assert np.allclose(power(two_state, 1).matrix, two_state.matrix)

    def test_power_two_hand_value(self, two_state):
        assert np.allclose(
            power(two_state, 2).matrix, [[0.83, 0.17], [0.34, 0.66]]
        )

    def test_power_additivity_on_large_chain(self, setup):
        Q = setup.Q
        lhs = power(Q, 7).matrix
        rhs = power(Q, 3).matrix @ power(Q, 4).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestStationary:
    def test_single_state(self):
        pi = stationary(TransitionMatrix(np.array([[1.0]])))
        assert pi.weights[0] == 1.0

    def test_two_state_exact(self, two_state):
        assert np.allclose(stationary(two_state).weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_three_well_residual(self, setup):
        pi = stationary(setup.K)
        assert np.abs(pi.weights @ setup.K.matrix - pi.weights).max() <= 1e-12

    def test_source_sink_chain_keeps_the_clipped_direct_solve(self, setup):
        # the sink states no other state reaches solve to +-1e-16; clipping
        # them keeps the direct solve, which power iteration from uniform
        # would only approach to 2.9e-6 relative
        from weighted_ensemble.hill import SourceSinkSpec, source_sink_kernel

        rho = Distribution.point_mass(0, 90)
        K = source_sink_kernel(SourceSinkSpec(setup.K, frozenset(range(80, 90)), rho))
        a = K.matrix.T - np.eye(90)
        a[-1] = 1.0
        rhs = np.zeros(90)
        rhs[-1] = 1.0
        ref = np.maximum(np.linalg.solve(a, rhs), 0.0)
        ref /= ref.sum()
        pi = stationary(K).weights
        big = ref > 1e-10
        assert np.all(np.abs(pi[big] - ref[big]) <= 1e-12 * ref[big])

    def test_same_for_lag_and_base_chain(self, setup):
        assert np.allclose(
            stationary(setup.Q).weights, stationary(setup.K).weights, atol=1e-10
        )


class TestSecondEigenvalue:
    def test_identity(self):
        assert second_eigenvalue_modulus(TransitionMatrix(np.eye(2))) == 1.0

    def test_rank_one(self):
        P = TransitionMatrix(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert second_eigenvalue_modulus(P) <= 1e-12

    def test_two_state(self, two_state):
        assert abs(second_eigenvalue_modulus(two_state) - 0.7) <= 1e-12


class TestThreeWellChain:
    def test_shape_and_stochastic(self, setup):
        Q = setup.Q.matrix
        assert Q.shape == (90, 90)
        assert np.allclose(Q.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(Q >= 0) and np.all(Q <= 1)

    def test_tridiagonal(self, setup):
        Q = setup.Q.matrix
        for k in range(2, 90):
            assert np.all(np.diagonal(Q, k) == 0)
            assert np.all(np.diagonal(Q, -k) == 0)

    def test_drift_values(self, setup):
        Q = setup.Q.matrix
        # states 45 and 90 sit where the drift sin(6 pi i / 90) vanishes
        assert abs(Q[44, 45] - 0.4) <= 1e-12
        assert abs(Q[89, 88] - 0.4) <= 1e-12

    def test_boundary_rows_absorb_into_diagonal(self, setup):
        Q = setup.Q.matrix
        assert abs(Q[0, 0] - (1.0 - Q[0, 1])) <= 1e-12
        assert abs(Q[89, 89] - (1.0 - Q[89, 88])) <= 1e-12

    def test_k_is_fourth_power(self, setup):
        assert np.allclose(setup.K.matrix, power(setup.Q, 4).matrix, atol=1e-12)
