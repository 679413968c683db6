import numpy as np
import pytest

from weighted_ensemble import (
    BinPartition,
    Distribution,
    Observable,
    SourceSinkSpec,
    TransitionMatrix,
    direct_mfpt,
    hitting_probability,
    source_sink_kernel,
    stationary,
)


@pytest.fixture
def two_state_spec(two_state):
    return SourceSinkSpec(two_state, frozenset({1}), Distribution.point_mass(0, 2))


@pytest.fixture
def three_state_symmetric():
    K0 = TransitionMatrix.from_dense(
        np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    )
    return K0, Distribution.point_mass(1, 3)


class TestSourceSinkSpec:
    def test_rejects_empty_sink(self, two_state):
        with pytest.raises(ValueError):
            SourceSinkSpec(two_state, frozenset(), Distribution.point_mass(0, 2))

    def test_rejects_source_mass_on_sink(self, two_state):
        with pytest.raises(ValueError):
            SourceSinkSpec(two_state, frozenset({1}), Distribution.point_mass(1, 2))

    def test_rejects_out_of_range_sink(self, two_state):
        with pytest.raises(ValueError):
            SourceSinkSpec(two_state, frozenset({5}), Distribution.point_mass(0, 2))


class TestSourceSinkKernel:
    def test_two_state_rows(self, two_state_spec):
        K = source_sink_kernel(two_state_spec)
        assert np.allclose(K.to_dense(), [[0.9, 0.1], [0.9, 0.1]])

    def test_sink_rows_equal_restart_distribution(self, two_state_spec):
        # inside F the next-step law is rho K0
        K = source_sink_kernel(two_state_spec)
        restart = two_state_spec.source.weights @ two_state_spec.base_kernel.to_dense()
        assert np.allclose(K.to_dense()[1], restart)

    def test_point_source_copies_source_row(self, setup):
        rho = Distribution.point_mass(0, 90)
        spec = SourceSinkSpec(setup.K, frozenset(range(80, 90)), rho)
        K = source_sink_kernel(spec)
        assert np.allclose(K.to_dense()[85], setup.K.to_dense()[0])
        assert np.allclose(K.to_dense()[:80], setup.K.to_dense()[:80])


class TestExactIdentities:
    def test_general_average_of_sink_indicator_is_one(self, two_state_spec,
                                                     general_hill_average):
        pi = stationary(source_sink_kernel(two_state_spec))
        g = Observable.indicator([1], 2)
        assert general_hill_average(pi, g, {1}) == pytest.approx(1.0)

    def test_two_state_mfpt_is_ten(self, two_state, two_state_spec,
                                   general_hill_average):
        pi = stationary(source_sink_kernel(two_state_spec))
        hill = general_hill_average(pi, Observable(np.ones(2)), {1})
        direct = direct_mfpt(two_state, Distribution.point_mass(0, 2), [1])
        assert abs(hill - 10.0) <= 1e-10
        assert abs(direct - 10.0) <= 1e-10

    def test_hill_consistency_on_random_chain(self, general_hill_average):
        rng = np.random.default_rng(12)
        m = rng.random((4, 4)) + 0.05
        K0 = TransitionMatrix.from_dense(m / m.sum(axis=1, keepdims=True))
        rho = Distribution.point_mass(0, 4)
        spec = SourceSinkSpec(K0, frozenset({3}), rho)
        pi = stationary(source_sink_kernel(spec))
        hill = general_hill_average(pi, Observable(np.ones(4)), {3})
        assert abs(hill - direct_mfpt(K0, rho, [3])) <= 1e-10

    def test_renewal_identity_for_general_observable(self, general_hill_average):
        # E^rho[sum_{p<=tau_F} 1_A(X_p)] = pi(A)/pi(F), right side from the
        # stationary solve, left side from an absorbing-chain linear solve
        rng = np.random.default_rng(5)
        m = rng.random((4, 4)) + 0.05
        K0m = m / m.sum(axis=1, keepdims=True)
        K0 = TransitionMatrix.from_dense(K0m)
        rho = Distribution.point_mass(1, 4)
        F, A = [3], [0]
        pi = stationary(source_sink_kernel(SourceSinkSpec(K0, frozenset(F), rho)))
        right = general_hill_average(pi, Observable.indicator(A, 4), F)
        outside = np.array([True, True, True, False])
        ind_a = np.zeros(4)
        ind_a[A] = 1.0
        rhs = (K0m @ ind_a)[outside]
        s = np.linalg.solve(np.eye(3) - K0m[np.ix_(outside, outside)], rhs)
        left = float(s[1])  # rho = point mass at state 1
        assert abs(left - right) <= 1e-10

    def test_hitting_probability_symmetric_chain(self, three_state_symmetric):
        K0, rho = three_state_symmetric
        spec = SourceSinkSpec(K0, frozenset({0, 2}), rho)
        pi = stationary(source_sink_kernel(spec))
        assert abs(hitting_probability(pi, [0], [2]) - 0.5) <= 1e-10

    def test_hitting_probability_bounds_and_degenerate_sets(self):
        pi = Distribution(np.array([0.2, 0.3, 0.5]))
        assert hitting_probability(pi, [0, 1], []) == 0.0
        assert hitting_probability(pi, [], [2]) == 1.0
        assert 0.0 <= hitting_probability(pi, [0], [2]) <= 1.0

    def test_hitting_probability_rejects_overlap(self):
        pi = Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            hitting_probability(pi, [0], [0, 1])

    def test_direct_mfpt_one_step_case(self):
        K0 = TransitionMatrix.from_dense(np.array([[0.0, 1.0], [0.5, 0.5]]))
        assert direct_mfpt(K0, Distribution.point_mass(0, 2), [1]) == pytest.approx(1.0)

    def test_direct_mfpt_unreachable_sink_errors(self):
        K0 = TransitionMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            direct_mfpt(K0, Distribution.point_mass(0, 2), [1])


class TestWeEstimators:
    def test_two_state_mfpt_estimate(self, two_state_spec, source_sink_cell):
        # the source-sink kernel is rank one, so eta relaxes in a single step
        bins = BinPartition(np.arange(2))
        res = source_sink_cell(two_state_spec, bins, "traditional", 10, 300, 0, 20,
                               per_bin_target=10.0)
        assert abs(res.mean - 0.1) <= 5 * res.std_err
        assert res.extinct_count == 0

    def test_degenerate_one_step_sink(self, source_sink_cell):
        # from the source every step lands in F, so tau_F = 1 and pi(F) = 1
        K0 = TransitionMatrix.from_dense(
            np.array([[0.0, 0.5, 0.5], [1, 1, 1], [1, 1, 1]], dtype=float) /
            np.array([[1.0], [3.0], [3.0]])
        )
        rho = Distribution.point_mass(0, 3)
        spec = SourceSinkSpec(K0, frozenset({1, 2}), rho)
        assert direct_mfpt(K0, rho, [1, 2]) == pytest.approx(1.0)
        bins = BinPartition(np.arange(3))
        res = source_sink_cell(spec, bins, "traditional", 5, 50, 1, 12)
        # every particle sits inside F, so eta_n(1_F) is the total weight:
        # random under stochastic rounding but unbiased around 1
        assert abs(res.mean - 1.0) <= 5 * res.std_err

    def test_hitting_estimate_symmetric(self, three_state_symmetric, source_sink_cell):
        # P[tau_B < tau_A] = eta_n(1_B) / eta_n(1_{A u B}) on the chain that
        # restarts on entering A u B, as `hill` estimates it
        K0, rho = three_state_symmetric
        bins = BinPartition(np.arange(3))
        spec = SourceSinkSpec(K0, frozenset({0, 2}), rho)
        res = source_sink_cell(spec, bins, "traditional", 8, 200, 2, 24,
                               per_bin_target=10.0)
        eta_b = res.final_eta(Observable.indicator([2], 3))
        se = eta_b.std(ddof=1) / np.sqrt(200)
        assert abs(eta_b.mean() / res.mean - 0.5) <= 5 * se / res.mean
