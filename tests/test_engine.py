import math
import pickle
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weighted_ensemble import (
    AdaptivePolicy,
    BinPartition,
    Distribution,
    Ensemble,
    NaivePolicy,
    Observable,
    RngStream,
    SourceSinkSpec,
    TraditionalPolicy,
    TransitionMatrix,
    allocate_targets,
    bin_totals,
    build_coarse_model,
    empirical_estimate,
    mutate,
    run_we,
    select,
    source_sink_kernel,
    stationary_init_ensemble,
    stochastic_round,
)
from weighted_ensemble.diagnostics import (
    doob_terms,
    g_sequence,
    mutation_variance_term,
    selection_variance_term,
)
from weighted_ensemble.engine import CHUNK, PASS_CHUNKS, replicates
from weighted_ensemble.experiment import make_policy, run_sweep_cell


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).at(2, "mutate").random(5)
        b = RngStream(7, 3).at(2, "mutate").random(5)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        s = RngStream(7, 3)
        a = s.at(2, "mutate").random(5)
        b = s.at(2, "select").random(5)
        c = s.at(3, "mutate").random(5)
        d = RngStream(7, 4).at(2, "mutate").random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    @pytest.mark.parametrize("purpose,purpose_id",
                             [("select", 1), ("mutate", 2), ("coarse", 3)])
    def test_known_answer(self, purpose, purpose_id):
        # the stream definition: a Philox key from the seed and the counter
        # [draw index, replicate, generation, purpose id]
        key = np.random.SeedSequence(11).generate_state(2, np.uint64)
        philox = np.random.Philox(key=key, counter=[0, 32, 7, purpose_id])
        expected = np.random.Generator(philox).random(10)
        g = RngStream(11, 32).at(7, purpose)
        assert np.array_equal(g.random(10), expected)
        # Philox advanced word 0 only: 10 draws take 3 blocks of 4 words
        counter = g.bit_generator.state["state"]["counter"]
        assert counter.tolist() == [3, 32, 7, purpose_id]

    def test_at_reads_no_entropy_and_returns_independent_generators(
            self, monkeypatch):
        # each call seeds Philox from the stream's cached key, never from a
        # fresh OS-entropy SeedSequence, and starts a new generator
        s = RngStream(3, 64)
        expected = np.random.Generator(
            np.random.Philox(key=s.key, counter=[0, 64, 2, 2])).random(5)

        def no_entropy(*args):
            raise AssertionError("OS entropy read")

        monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
        a, b = s.at(2, "mutate"), s.at(2, "mutate")
        assert np.array_equal(a.random(5), expected)
        assert np.array_equal(b.random(5), expected)
        assert not np.array_equal(a.random(5), expected)
        # and a generator still pickles, seed sequence included (numpy's
        # unpickling builds a SeedSequence first)
        monkeypatch.undo()
        assert np.array_equal(pickle.loads(pickle.dumps(b)).random(5), b.random(5))

    def test_order_independent(self):
        s = RngStream(1)
        late_then_early = (s.at(5, "select").random(3), s.at(0, "select").random(3))
        s2 = RngStream(1)
        early_then_late = (s2.at(0, "select").random(3), s2.at(5, "select").random(3))
        assert np.array_equal(late_then_early[0], early_then_late[1])
        assert np.array_equal(late_then_early[1], early_then_late[0])


_unpickled = 0  # per process: how often a _Payload was unpickled in it


def _revive() -> "_Payload":
    global _unpickled
    _unpickled += 1
    return _Payload()


class _Payload:
    def __reduce__(self):
        return _revive, ()


def _times_unpickled(payload: _Payload, chunk: range) -> int:
    return _unpickled


class TestReplicates:
    def test_yields_in_replicate_order(self):
        # three chunks, run in passes of whole chunks: PASS_CHUNKS at most,
        # and with t workers at most ceil(3 / t), so that each gets work
        reps = 2 * CHUNK + 6
        chunks = [list(range(lo, min(lo + CHUNK, reps))) for lo in range(0, reps, CHUNK)]
        for threads, per_pass in ((1, PASS_CHUNKS), (2, min(PASS_CHUNKS, 2)), (3, 1)):
            expected = [sum(chunks[i:i + per_pass], []) for i in range(0, 3, per_pass)]
            assert list(replicates(list, reps, threads)) == expected

    @pytest.mark.parametrize("other_thread", [False, True],
                             ids=["fork", "forkserver"])
    def test_a_worker_receives_the_batch_function_once(self, other_thread):
        # six passes on two workers: a worker that received the function with
        # every pass would unpickle it up to six times
        one = partial(_times_unpickled, _Payload())
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if other_thread:
            thread.start()
        try:
            counts = list(replicates(one, 6 * PASS_CHUNKS * CHUNK, threads=2))
        finally:
            stop.set()
            if other_thread:
                thread.join()
        assert len(counts) == 6 and max(counts) <= 1


class TestEnsemble:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            Ensemble(0, np.array([0, 1]), np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            Ensemble(0, np.array([0]), np.array([np.inf]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Ensemble(0, np.array([0, 1]), np.array([0.5]))

    def test_empty_is_allowed(self):
        e = Ensemble(3, np.empty(0, np.int64), np.empty(0))
        assert e.n_particles == 0 and e.total_weight == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_each_bad_weight(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            Ensemble(0, np.array([0, 1, 2]), np.array([0.5, bad, 0.25]))

    @pytest.mark.parametrize("offsets", [[0, 3, 2, 4], [1, 2, 4], [0, 2, 3]],
                             ids=["falls", "not_from_0", "not_to_count"])
    def test_rejects_bad_offsets(self, offsets):
        with pytest.raises(ValueError, match="offsets"):
            Ensemble(0, np.arange(4), np.full(4, 0.25), np.array(offsets))


class TestReplicateSums:
    """Every per-replicate sum against math.fsum over that replicate's slice,
    on a batch whose middle replicate is extinct."""

    OFFSETS = np.array([0, 7, 7, 19, 30])

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(12)
        n = int(self.OFFSETS[-1])
        return Ensemble(2, rng.integers(0, 6, n), rng.uniform(0.01, 1.0, n),
                        self.OFFSETS)

    @pytest.fixture
    def chain(self):
        rng = np.random.default_rng(13)
        m = rng.uniform(size=(6, 6))
        return (TransitionMatrix.from_dense(m / m.sum(axis=1, keepdims=True)),
                Observable(rng.uniform(size=6)))

    def check(self, got, per_particle, offsets=OFFSETS):
        bounds = offsets.tolist()
        want = [math.fsum(per_particle[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        assert got.shape == (4,)
        assert got[1] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_empirical_estimate_and_total_weight(self, batch, chain):
        _, f = chain
        self.check(empirical_estimate(batch, f), batch.weights * f.values[batch.states])
        self.check(batch.total_weight, batch.weights)

    def test_doob_terms(self, batch, chain):
        K, f = chain
        g = g_sequence(K, f, 3)
        bins = BinPartition(np.array([0, 0, 1, 1, 2, 2]))
        u = np.random.default_rng(14).random(batch.n_particles)
        out = select(batch, TraditionalPolicy(bins, 2.5), u=u)
        assert out.offsets[2] == out.offsets[1]  # still extinct
        self.check(mutation_variance_term(out, g, 1),
                   out.weights**2 * g.local_var[1][out.states], out.offsets)
        beta = out.mean_children
        low = np.floor(beta)
        ratio = low**2 + (2 * low + 1) * (beta - low)  # E[C^2]
        self.check(selection_variance_term(batch, beta, g, 1),
                   batch.weights**2 * (ratio / beta**2 - 1.0) * g.g[1][batch.states] ** 2)

    # n eps sum|x| bounds the error of any order of adding n values
    @pytest.mark.parametrize("offsets", [
        [0, 0, 5, 5, 12],  # a leading and a middle extinct replicate
        [0, 4, 9, 9, 9],  # consecutive trailing extinct replicates
        [0, 0, 0, 0],  # all extinct
        [0, 0, 0, 7],  # a single occupied replicate, last
        [0, 1000, 1000, 1130, 2131],  # long enough for blocked pairwise sums
    ])
    def test_replicate_sums_against_fsum(self, offsets):
        offsets = np.array(offsets)
        n = int(offsets[-1])
        rng = np.random.default_rng(n)
        e = Ensemble(0, np.zeros(n, np.int64), np.ones(n), offsets)
        values = rng.normal(size=n) * np.exp(rng.normal(scale=3.0, size=n))
        got = e.replicate_sums(values)
        assert got.shape == (offsets.size - 1,)
        eps = np.finfo(float).eps
        for b, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            part = values[lo:hi]
            if hi == lo:
                assert got[b] == 0.0
            assert abs(got[b] - math.fsum(part)) <= part.size * eps * math.fsum(abs(part))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.lists(st.integers(0, 150), max_size=5),
           st.integers(0, 2**32 - 1))
    def test_a_replicates_sums_do_not_depend_on_its_place(self, size, before, seed):
        """eta, total weight and both Doob terms of one replicate, alone and
        behind replicates of other sizes, bit for bit."""
        rng = np.random.default_rng(seed)
        m = rng.uniform(size=(6, 6))
        K = TransitionMatrix.from_dense(m / m.sum(axis=1, keepdims=True))
        f = Observable(rng.uniform(size=6))
        g = g_sequence(K, f, 2)
        policy = TraditionalPolicy(BinPartition(np.array([0, 0, 1, 1, 2, 2])), 2.5)
        states, weights = rng.integers(0, 6, size), rng.uniform(0.01, 1.0, size)
        u = rng.random(size)

        def last_replicate(sizes):
            n = sum(sizes)
            e = Ensemble(1, np.append(rng.integers(0, 6, n), states),
                         np.append(rng.uniform(0.01, 1.0, n), weights),
                         np.cumsum([0, *sizes, size]))
            out = select(e, policy, np.append(rng.random(n), u))
            sums = (empirical_estimate(e, f), e.total_weight,
                    mutation_variance_term(out, g, 1),
                    selection_variance_term(e, out.mean_children, g, 1))
            return [float(s[-1]) for s in sums]

        assert last_replicate(before) == last_replicate([])


class TestLargestRemainder:
    """The reference apportionment in conftest.py, which the init_ensemble
    fixture spreads particles by."""

    def test_hand_example(self, largest_remainder):
        # floors (1,0,0); two leftover seats go to the larger remainders 0.75
        assert list(largest_remainder(np.array([1.5, 0.75, 0.75]), 3)) == [1, 1, 1]
        assert list(largest_remainder(np.array([2.6, 0.2, 0.2]), 3)) == [3, 0, 0]

    def test_ties_break_by_lower_index(self, largest_remainder):
        assert list(largest_remainder(np.array([0.5, 0.5, 1.0]), 2)) == [1, 0, 1]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20).filter(
            lambda q: sum(q) > 0
        )
    )
    def test_sums_and_bounds(self, largest_remainder, quotas):
        quotas = np.array(quotas)
        total = int(np.ceil(quotas.sum()))
        out = largest_remainder(quotas, total)
        assert out.sum() == total
        assert np.all(out >= np.floor(quotas))


class TestInitEnsemble:
    def test_point_mass(self, init_ensemble):
        e = init_ensemble(Distribution.point_mass(1, 3), 4)
        assert np.all(e.states == 1) and np.all(e.weights == 0.25)

    def test_single_particle(self, init_ensemble):
        e = init_ensemble(Distribution.point_mass(0, 2), 1)
        assert e.n_particles == 1 and e.weights[0] == 1.0

    def test_stratified_counts_match_largest_remainder(self, init_ensemble):
        d = Distribution(np.array([0.5, 0.3, 0.2]))
        e = init_ensemble(d, 7)
        counts = np.bincount(e.states, minlength=3)
        assert list(counts) == [4, 2, 1]
        assert np.all(e.weights == 1 / 7)


class TestStationaryInitEnsemble:
    def test_even_spread_150_over_30(self, setup, model30, init150):
        counts = np.bincount(setup.bins.bin_of[init150.states], minlength=30)
        assert np.all(counts == 5)
        assert np.allclose(bin_totals(init150, setup.bins), model30.mu.weights)
        # every particle in bin r carries mu_r / 5
        assert np.allclose(
            init150.weights, model30.mu.weights[setup.bins.bin_of[init150.states]] / 5
        )

    def test_hand_apportionment(self):
        bins = BinPartition(np.array([0, 1, 2]))
        mu = Distribution(np.array([0.5, 0.3, 0.2]))
        e = stationary_init_ensemble(mu, bins, 7)
        assert list(np.bincount(e.states, minlength=3)) == [3, 2, 2]
        assert np.allclose(bin_totals(e, bins), [[0.5, 0.3, 0.2]])
        assert np.allclose(np.unique(e.weights), sorted({0.5 / 3, 0.15, 0.1}))

    def test_requires_at_least_one_particle_per_bin(self):
        bins = BinPartition(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            stationary_init_ensemble(Distribution(np.full(3, 1 / 3)), bins, 2)

    def test_zero_mass_bins_get_no_particles(self):
        bins = BinPartition(np.array([0, 1, 2]))
        mu = Distribution(np.array([0.75, 0.0, 0.25]))
        e = stationary_init_ensemble(mu, bins, 6)
        counts = np.bincount(e.states, minlength=3)
        assert counts[1] == 0 and counts.sum() == 6
        assert np.all(e.weights > 0)

    def test_a_bin_whose_share_underflows_gets_no_particles(self):
        # 5e-324 / k is 0 for every k >= 2, so its particles would weigh 0
        bins = BinPartition(np.array([0, 1, 2]))
        mu = Distribution(np.array([0.6, 5e-324, 0.4]))
        e = stationary_init_ensemble(mu, bins, 7)
        counts = np.bincount(e.states, minlength=3)
        assert counts[1] == 0 and counts.sum() == 7
        assert np.all(e.weights > 0)

    def test_unreached_bins_of_a_source_sink_chain_get_no_particles(self, setup):
        # the hitting chain with F = A u B, A = 11..30, B = 61..75, source 1:
        # its stationary solve gives the bins nothing reaches exactly 0
        F = [*range(10, 30), *range(60, 75)]
        spec = SourceSinkSpec(setup.K, frozenset(F), Distribution.point_mass(0, 90))
        model = build_coarse_model(source_sink_kernel(spec), setup.bins,
                                   Observable.indicator(F, 90), horizon=1)
        mu = model.mu.weights
        assert np.any(mu == 0.0)
        e = stationary_init_ensemble(model.mu, setup.bins, 60)
        assert e.n_particles == 60
        assert np.all(mu[setup.bins.bin_of[e.states]] > 0.0)


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_per_bin_loop_bit_for_bit(self, per_bin_init_ensemble, data):
        # bins in any order over the states, some of zero or subnormal mass,
        # and more particles than a bin has states, so the round-robin wraps
        R = data.draw(st.integers(1, 8), label="R")
        extra = data.draw(st.lists(st.integers(0, R - 1), max_size=24), label="extra")
        bin_of = data.draw(st.permutations([*range(R), *extra]), label="bin_of")
        kind = data.draw(st.lists(st.sampled_from(["positive", "zero", "subnormal"]),
                                  min_size=R, max_size=R), label="kind")
        kind[data.draw(st.integers(0, R - 1), label="positive bin")] = "positive"
        mass = np.array(data.draw(st.lists(st.floats(0.01, 10.0), min_size=R,
                                           max_size=R), label="mass"))
        tiny = np.array(data.draw(st.lists(st.sampled_from([5e-324, 1e-310, 2.2e-308]),
                                           min_size=R, max_size=R), label="tiny"))
        positive = np.array(kind) == "positive"
        w = np.where(np.array(kind) == "subnormal", tiny, 0.0)
        w[positive] = mass[positive] / mass[positive].sum()
        mu = Distribution(w)
        bins = BinPartition(np.array(bin_of), R)
        n = data.draw(st.integers(R, 4 * len(bin_of) + R), label="n_particles")
        got = stationary_init_ensemble(mu, bins, n)
        want = per_bin_init_ensemble(mu, bins, n)
        assert got.states.dtype == want.states.dtype
        assert got.weights.dtype == want.weights.dtype
        assert got.states.tobytes() == want.states.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()

class TestStochasticRound:
    def test_integer_is_deterministic(self):
        rng = np.random.default_rng(0)
        assert np.all(stochastic_round(np.full(100, 3.0), rng.random(100)) == 3)
        assert np.all(stochastic_round(np.zeros(100), rng.random(100)) == 0)

    def test_counts_are_floor_plus_bernoulli_of_frac(self):
        """The integer-cast floor gives floor(beta) + [u < frac] exactly, on
        integers, values just off them and uniforms equal to frac."""
        rng = np.random.default_rng(3)
        beta = np.concatenate([rng.uniform(0, 50, 500), rng.integers(0, 50, 100),
                               np.nextafter(np.arange(1.0, 51.0), [[0.0], [99.0]]).ravel()])
        u = rng.random(beta.size)
        u[:50] = beta[:50] - np.floor(beta[:50])
        low = np.floor(beta)
        want = (low + (u < beta - low)).astype(np.int64)
        np.testing.assert_array_equal(stochastic_round(beta, u), want)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stochastic_round(np.array([1.5, -0.1]), np.full(2, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e19, 2.0**63])
    def test_rejects_nan_and_infinite_beta(self, bad):
        # a NaN beta fails no comparison with 0, and an infinite one or a
        # finite one of 2^63 or more casts to a negative int64; all would
        # pass as counts
        with pytest.raises(ValueError, match="finite and >= 0"):
            stochastic_round(np.array([bad, 1.5]), np.full(2, 0.3))
        with pytest.raises(ValueError, match="finite and >= 0"):
            stochastic_round(np.array([0.5, bad]), np.full(2, 0.3))

    def test_rejects_one_uniform_short(self):
        with pytest.raises(ValueError):
            stochastic_round(np.array([1.5, 0.5]), np.full(1, 0.5))

    def test_support_mean_and_second_moment(self):
        rng = np.random.default_rng(42)
        beta = 2.3
        draws = stochastic_round(np.full(200_000, beta), rng.random(200_000))
        assert set(np.unique(draws)) <= {2, 3}
        # binomial CI: sd of the indicator is sqrt(0.3*0.7)
        se = np.sqrt(0.3 * 0.7 / draws.size)
        assert abs(draws.mean() - beta) <= 4 * se
        ec2 = 4 + 5 * 0.3  # floor^2 + (2 floor + 1) frac
        assert abs((draws.astype(float) ** 2).mean() - ec2) <= 5 * 4 * se

    def test_sub_one_beta(self):
        rng = np.random.default_rng(7)
        draws = stochastic_round(np.full(100_000, 0.4), rng.random(100_000))
        assert set(np.unique(draws)) <= {0, 1}
        assert abs(draws.mean() - 0.4) <= 4 * np.sqrt(0.4 * 0.6 / draws.size)


class TestBinTotals:
    def test_hand_example(self):
        bins = BinPartition(np.array([0, 0, 1]))
        e = Ensemble(0, np.array([0, 1, 2]), np.array([0.2, 0.3, 0.5]))
        assert np.allclose(bin_totals(e, bins), [[0.5, 0.5]])

    def test_empty(self):
        bins = BinPartition(np.array([0, 1]))
        e = Ensemble(0, np.empty(0, np.int64), np.empty(0))
        assert np.array_equal(bin_totals(e, bins), np.zeros((1, 2)))

    def test_one_row_per_replicate(self):
        # replicate 1 is extinct; bins are summed within each replicate only
        bins = BinPartition(np.array([0, 0, 1]))
        e = Ensemble(0, np.array([0, 2, 1, 1]), np.array([0.2, 0.8, 0.4, 0.6]),
                     np.array([0, 2, 2, 4]))
        assert np.allclose(bin_totals(e, bins), [[0.2, 0.8], [0.0, 0.0], [1.0, 0.0]])


class TestAllocateTargets:
    def test_single_bin_gets_everything(self):
        bins = BinPartition(np.array([0, 0]))
        e = Ensemble(0, np.array([0, 1]), np.array([0.5, 0.5]))
        t = allocate_targets(bin_totals(e, bins), AdaptivePolicy(bins, 10.0, 1.0, [[1.0]]), 0)
        assert np.allclose(t, [10.0])

    def test_symmetric_case(self):
        bins = BinPartition(np.array([0, 1]))
        e = Ensemble(0, np.array([0, 1]), np.array([0.5, 0.5]))
        policy = AdaptivePolicy(bins, 10.0, 1.0, [[2.0, 2.0]])
        t = allocate_targets(bin_totals(e, bins), policy, 0)
        assert np.allclose(t, [5.0, 5.0])

    def test_hand_example(self):
        bins = BinPartition(np.array([0, 1, 2]))
        e = Ensemble(0, np.array([0, 1, 2]), np.array([0.5, 0.25, 0.25]))
        policy = AdaptivePolicy(bins, 10.0, 1.0, [[1.0, 4.0, 0.0]])
        t = allocate_targets(bin_totals(e, bins), policy, 0)
        assert np.allclose(t, [4.5, 4.5, 1.0])

    def test_all_zero_variance_gives_floor(self):
        bins = BinPartition(np.array([0, 1]))
        e = Ensemble(0, np.array([0, 1]), np.array([0.5, 0.5]))
        with np.errstate(all="raise"):
            t = allocate_targets(bin_totals(e, bins),
                                 AdaptivePolicy(bins, 10.0, 1.5, np.zeros((1, 2))), 0)
        assert np.array_equal(t, [[1.5, 1.5]])

    def test_floor_bounds_enforced(self):
        # checked once, when the policy is built
        bins = BinPartition(np.array([0, 1]))
        for floor in (0.0, 5.0):
            with pytest.raises(ValueError, match="floor"):
                AdaptivePolicy(bins, 10.0, floor, np.ones((1, 2)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sum_is_total_and_floor_respected(self, data):
        R = data.draw(st.integers(2, 6))
        bins = BinPartition(np.arange(R))
        w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=R, max_size=R)))
        e = Ensemble(0, np.arange(R), w / w.sum())
        v = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=R, max_size=R)))
        total = float(data.draw(st.floats(2.0 * R, 20.0 * R)))
        floor = float(data.draw(st.floats(0.1, 0.9)))
        t = allocate_targets(bin_totals(e, bins), AdaptivePolicy(bins, total, floor, [v]), 0)
        assert np.all(t >= floor - 1e-12)
        if (np.sqrt(v) * e.weights).sum() > 0:
            assert abs(t.sum() - total) <= 1e-9

    def test_rows_are_independent_replicates(self):
        # the second replicate has v = 0 on its only occupied bin: floor only
        w = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        policy = AdaptivePolicy(BinPartition(np.arange(3)), 10.0, 1.0, [[1.0, 1.0, 0.0]])
        with np.errstate(all="raise"):
            t = allocate_targets(w, policy, 0)
        assert np.allclose(t[0], [4.5, 4.5, 1.0])
        assert np.array_equal(t[1], [1.0, 1.0, 1.0])
        assert np.array_equal(t[0], allocate_targets(w[0], policy, 0))


class TestSelect:
    def test_naive_copies_everything(self):
        e = Ensemble(0, np.array([0, 2, 1]), np.array([0.1, 0.5, 0.4]))
        out = select(e, NaivePolicy())
        assert np.array_equal(out.states, e.states)
        assert np.array_equal(out.weights, e.weights)
        assert np.all(out.mean_children == 1.0)
        assert np.array_equal(out.parent_of, np.arange(3))

    def test_one_bin_reweighting(self):
        # two particles (0.75, 0.25) with target 2 -> shared child weight 0.5
        bins = BinPartition(np.array([0, 0]))
        e = Ensemble(0, np.array([0, 1]), np.array([0.75, 0.25]))
        policy = TraditionalPolicy(bins, 2.0)
        out = select(e, policy, u=np.random.default_rng(0).random(2))
        assert np.allclose(out.mean_children, [1.5, 0.5])
        assert np.all(out.weights == 0.5)

    def test_traditional_beta_sums_to_target_per_bin(self, setup, init150):
        policy = TraditionalPolicy(setup.bins, 5.0)
        beta = select(init150, policy, u=np.random.default_rng(0).random(150)).mean_children
        b = setup.bins.bin_of[init150.states]
        sums = np.bincount(b, weights=beta, minlength=setup.bins.n_bins)
        assert np.allclose(sums, 5.0)

    def test_adaptive_needs_v(self, setup):
        # the policy refuses to be built without its table, so no selection runs
        with pytest.raises(ValueError, match="v table"):
            AdaptivePolicy(setup.bins, 150.0, 1.0, None)

    def test_selection_unbiased_for_weighted_sums(self):
        # E[sum_i w_hat_i g(xi_hat_i)] = sum_j w_j g(xi_j) for any g
        bins = BinPartition(np.array([0, 0, 1]))
        e = Ensemble(0, np.array([0, 1, 2]), np.array([0.2, 0.3, 0.5]))
        policy = TraditionalPolicy(bins, 3.0)
        g = np.array([1.0, -2.0, 0.7])
        exact = float(e.weights @ g[e.states])
        rng = np.random.default_rng(5)
        vals = np.array(
            [
                float(out.weights @ g[out.states])
                for out in (select(e, policy, u=rng.random(3)) for _ in range(20_000))
            ]
        )
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 4 * se

    def test_extinction_is_legal(self):
        bins = BinPartition(np.array([0, 0]))
        e = Ensemble(0, np.array([0]), np.array([1.0]))
        policy = TraditionalPolicy(bins, 0.25)  # beta = 0.25, usually killed
        rng = np.random.default_rng(3)
        outcomes = [select(e, policy, u=rng.random(1)).n_selected for _ in range(200)]
        assert 0 in outcomes

    def test_children_stay_with_their_replicate(self):
        # two replicates of one bin each: 0.75 + 0.25 and 1.0, target 2;
        # uniforms 0 take every larger count
        bins = BinPartition(np.array([0, 0]))
        e = Ensemble(0, np.array([0, 1, 1]), np.array([0.75, 0.25, 1.0]),
                     np.array([0, 2, 3]))
        out = select(e, TraditionalPolicy(bins, 2.0), u=np.zeros(3))
        assert np.allclose(out.mean_children, [1.5, 0.5, 2.0])
        assert list(np.bincount(out.parent_of, minlength=3)) == [2, 1, 2]
        assert list(out.offsets) == [0, 3, 5]
        assert np.allclose(out.weights, [0.5, 0.5, 0.5, 0.5, 0.5])


class TestMutate:
    def test_identity_kernel_keeps_states(self):
        K = TransitionMatrix.from_dense(np.eye(3))
        e = Ensemble(0, np.array([0, 2]), np.array([0.5, 0.5]))
        out = select(e, NaivePolicy())
        e2 = mutate(out, K, np.random.default_rng(0).random(2))
        assert np.array_equal(e2.states, e.states)
        assert np.array_equal(e2.weights, e.weights)
        assert e2.generation == 1

    def test_empty_selection_advances_generation(self, two_state):
        from weighted_ensemble import SelectionOutcome

        out = SelectionOutcome(
            states=np.empty(0, np.int64),
            weights=np.empty(0),
            parent_of=np.empty(0, np.int64),
            mean_children=np.empty(0),
            generation=4,
        )
        e = mutate(out, two_state, np.empty(0))
        assert e.n_particles == 0 and e.generation == 5

    def test_transition_frequencies(self, two_state):
        e = Ensemble(0, np.zeros(100_000, np.int64), np.full(100_000, 1e-5))
        out = select(e, NaivePolicy())
        e2 = mutate(out, two_state, np.random.default_rng(11).random(100_000))
        frac = (e2.states == 1).mean()
        assert abs(frac - 0.1) <= 4 * np.sqrt(0.1 * 0.9 / e.n_particles)


class TestEmpiricalEstimate:
    def test_total_weight_for_constant_one(self):
        e = Ensemble(0, np.array([0, 1]), np.array([0.4, 0.35]))
        assert empirical_estimate(e, Observable(np.ones(2))) == pytest.approx(0.75)

    def test_empty_is_zero(self):
        e = Ensemble(0, np.empty(0, np.int64), np.empty(0))
        assert empirical_estimate(e, Observable(np.ones(2))) == 0.0

    def test_hand_example(self):
        e = Ensemble(0, np.array([2, 4]), np.array([0.25, 0.75]))
        assert empirical_estimate(e, Observable.indicator([4], 5)) == 0.75


class TestRunWe:
    def test_horizon_zero_reads_initial_ensemble(self, setup, init150):
        rec = run_we(setup.K, setup.f, NaivePolicy(), init150, 0, 0, [0])
        assert rec.eta_f[0, 0] == pytest.approx(
            float(init150.weights @ setup.f.values[init150.states])
        )
        assert rec.num_particles[0, -1] == 150

    def test_naive_preserves_population_and_weights(self, setup, init150):
        rec = run_we(setup.K, setup.f, NaivePolicy(), init150, 10, 2, range(3))
        assert np.all(rec.num_particles == 150)
        assert np.allclose(rec.total_weight, init150.total_weight)

    def test_bit_identical_reruns(self, setup, model30, init150):
        policy = AdaptivePolicy(setup.bins, 150.0, 1.0, model30.v)
        a = run_we(setup.K, setup.f, policy, init150, 8, 9, [0])
        b = run_we(setup.K, setup.f, policy, init150, 8, 9, [0])
        assert np.array_equal(a.eta_f, b.eta_f)
        assert np.array_equal(a.final.states, b.final.states)
        assert np.array_equal(a.final.weights, b.final.weights)

    def test_naive_matches_plain_independent_chains(self, setup, init150,
                                                    dense_cdf):
        n = 12
        stream = RngStream(123, replicate=5)
        rec = run_we(setup.K, setup.f, NaivePolicy(), init150, n, 123, [5])
        # plain simulation of 150 independent walkers from the same stream
        cum = dense_cdf(setup.K.to_dense())
        states = init150.states.copy()
        for p in range(n):
            u = stream.at(p, "mutate").random(states.size)
            states = (u[:, None] >= cum[states]).sum(axis=1)
        assert np.array_equal(rec.final.states, states)
        assert rec.eta_f[0, n] == float(init150.weights @ setup.f.values[states])

    def test_adaptive_requires_v_table(self, setup, model30):
        # a missing table, or one without a column per bin, fails to build
        # the policy, before any run can start
        R = setup.bins.n_bins
        for v in (None, np.ones(R), np.ones((5, R - 1)), np.ones((5, R + 1))):
            with pytest.raises(ValueError, match="v table"):
                make_policy("adaptive", setup.bins, 150, v=v)
        assert make_policy("adaptive", setup.bins, 150, v=model30.v).v.shape == (30, R)

    def test_negative_v_raises_before_sampling(self, setup, model30):
        # every entry is checked once, when the policy is built; the bad
        # entry sits in the last row, which every run reads
        for bad in (-1e-3, np.nan, np.inf):
            v = model30.v.copy()
            v[-1, 3] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                AdaptivePolicy(setup.bins, 150.0, 1.0, v)

    def test_policy_keeps_its_own_read_only_table(self, setup, model30):
        v = model30.v.copy()
        policy = AdaptivePolicy(setup.bins, 150.0, 1.0, v)
        v[0, 0] = -1.0  # the caller's array is not the policy's
        assert policy.v[0, 0] == model30.v[0, 0]
        assert np.array_equal(policy.root_v, np.sqrt(model30.v))
        for table in (policy.v, policy.root_v):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_extinction_stops_run_and_zeroes_eta(self, two_state):
        bins = BinPartition(np.array([0, 0]))
        e = Ensemble(0, np.array([0]), np.array([1.0]))
        policy = TraditionalPolicy(bins, 0.1)
        rec = run_we(two_state, Observable(np.ones(2)), policy, e, 5, 0, range(50))
        extinct = rec.num_particles[:, -1] == 0
        assert extinct.any(), "no extinction observed with kill-heavy policy"
        for eta, num in zip(rec.eta_f[extinct], rec.num_particles[extinct]):
            tau = int(np.argmin(num))
            assert num[tau] == 0 and np.all(num[tau:] == 0)
            assert np.all(eta[tau:] == 0.0)
        # a batch that dies out entirely stops at the generation it did
        dead = run_we(two_state, Observable(np.ones(2)), policy, e, 5, 0,
                      np.flatnonzero(rec.num_particles[:, 1] == 0)[:3])
        assert dead.tau_kill == 1 and not dead.num_particles[:, -1].any()

    @pytest.mark.parametrize("mode", ["traditional", "naive"])
    def test_batch_draws_its_first_replicates_stream(self, setup, init150, mode):
        # each (generation, purpose) draws the first M uniforms of the stream
        # of replicate 32, the batch's first, for its M particles
        policy = make_policy(mode, setup.bins, 150)
        rec = run_we(setup.K, setup.f, policy, init150, 3, 6, range(32, 40))
        stream = RngStream(6, 32)
        e = Ensemble(0, np.tile(init150.states, 8), np.tile(init150.weights, 8),
                     np.arange(9) * 150)
        for p in range(3):
            u = None if mode == "naive" else stream.at(p, "select").random(e.n_particles)
            outcome = select(e, policy, u)
            e = mutate(outcome, setup.K, stream.at(p, "mutate").random(outcome.n_selected))
        assert np.array_equal(rec.final.offsets, e.offsets)
        assert np.array_equal(rec.final.states, e.states)
        assert np.array_equal(rec.final.weights, e.weights)

    @pytest.mark.parametrize("mode", ["adaptive", "traditional", "naive"])
    def test_sweep_rows_are_run_we_on_their_chunk(self, setup, model30, init150, mode):
        # 70 replicates run as the driver's chunks 0..31, 32..63 and 64..69
        policy = make_policy(mode, setup.bins, 150, v=model30.v)
        [cell] = run_sweep_cell(setup, init150, policy, (6,), 70, 4)
        chunk = run_we(setup.K, setup.f, policy, init150, 6, 4, range(32, 64))
        for field, rows in (("eta_f", cell.traces), ("num_particles", cell.count_traces),
                            ("total_weight", cell.weight_traces)):
            assert np.array_equal(rows[32:64], getattr(chunk, field))
        assert np.array_equal(cell.extinct_flags[32:64], chunk.num_particles[:, -1] == 0)
        first = cell.final[0]  # the pass of replicates 0..63
        lo, hi = first.offsets[32], first.offsets[64]
        assert np.array_equal(first.states[lo:hi], chunk.final.states)
        assert np.array_equal(first.weights[lo:hi], chunk.final.weights)

    @staticmethod
    def run_pass_and_its_chunks(K, f, policy, init, n, seed):
        """run_we with the Doob observer over 2 * CHUNK + 6 replicates and over
        each of its three chunks alone; every row, final ensemble and Doob
        term of the pass equals its chunk's, bit for bit."""
        gseq = g_sequence(K, f, n)

        def run(reps):
            observe, mut, sel = doob_terms(gseq, len(reps))
            rec = run_we(K, f, policy, init, n, seed, reps, observe=observe)
            return rec, mut, sel

        reps = range(2 * CHUNK + 6)
        whole, *whole_terms = run(reps)
        chunks = []
        for lo in range(0, len(reps), CHUNK):
            rows = slice(lo, min(lo + CHUNK, len(reps)))
            chunk, *terms = run(reps[rows])
            for field in ("eta_f", "num_particles", "total_weight"):
                assert np.array_equal(getattr(whole, field)[rows], getattr(chunk, field))
            for pass_term, chunk_term in zip(whole_terms, terms):
                assert np.array_equal(pass_term[rows], chunk_term)
            first, last = whole.final.offsets[[rows.start, rows.stop]]
            assert np.array_equal(whole.final.states[first:last], chunk.final.states)
            assert np.array_equal(whole.final.weights[first:last], chunk.final.weights)
            chunks.append(chunk)
        return whole, chunks

    @pytest.mark.parametrize("mode", ["adaptive", "traditional", "naive"])
    def test_a_pass_is_its_chunks_run_alone(self, setup, model30, init150, mode):
        self.run_pass_and_its_chunks(setup.K, setup.f,
                                     make_policy(mode, setup.bins, 150, v=model30.v),
                                     init150, 6, 4)

    def test_a_pass_runs_on_after_one_chunk_dies_out(self, two_state):
        # the kill-heavy policy of test_extinction_stops_run_and_zeroes_eta; at
        # seed 4 the chunks die out at generations 3, 2 and 1 and the pass at 3
        policy = TraditionalPolicy(BinPartition(np.array([0, 0])), 0.1)
        e = Ensemble(0, np.array([0]), np.array([1.0]))
        whole, chunks = self.run_pass_and_its_chunks(
            two_state, Observable(np.ones(2)), policy, e, 5, 4)
        assert [c.tau_kill for c in chunks] == [3, 2, 1] and whole.tau_kill == 3

    @staticmethod
    def check_generation_n_alone(K, f, policy, init, n, seed, reps):
        """run_we without traces against run_we with them, both observed by
        the Doob terms: generation n's eta, total weight, count and extinct
        flags, tau_kill, the final ensemble and every Doob term agree bit for
        bit, so recording one generation moves no draw."""
        gseq = g_sequence(K, f, n)
        runs = []
        for traces in (True, False):
            observe, mut, sel = doob_terms(gseq, len(reps))
            runs.append((run_we(K, f, policy, init, n, seed, reps, observe=observe,
                                traces=traces), mut, sel))
        (every, *every_terms), (last, *last_terms) = runs
        assert every.eta_f.shape == (len(reps), n + 1)
        assert last.eta_f.shape == last.num_particles.shape == (len(reps), 1)
        for field in ("eta_f", "num_particles", "total_weight"):
            assert np.array_equal(getattr(last, field)[:, 0], getattr(every, field)[:, n])
        assert last.tau_kill == every.tau_kill
        for name in ("states", "weights", "offsets"):
            assert np.array_equal(getattr(last.final, name), getattr(every.final, name))
        for a, b in zip(every_terms, last_terms):
            assert np.array_equal(a, b)
        # and without an observer
        plain = run_we(K, f, policy, init, n, seed, reps, traces=False)
        assert np.array_equal(plain.eta_f, last.eta_f)
        assert np.array_equal(plain.final.states, last.final.states)
        return every, last

    @pytest.mark.parametrize("mode", ["adaptive", "traditional", "naive"])
    def test_generation_n_alone_reads_as_every_generation(self, setup, model30,
                                                          init150, mode):
        policy = make_policy(mode, setup.bins, 150, v=model30.v)
        self.check_generation_n_alone(setup.K, setup.f, policy, init150, 6, 4,
                                      range(2 * CHUNK + 6))

    def test_generation_n_alone_after_chunks_die_out(self, two_state):
        # the kill-heavy pass of test_a_pass_runs_on_after_one_chunk_dies_out,
        # whose chunks die out at generations 3, 2 and 1, before n = 5; then
        # a milder target, under which 31 of the 70 replicates die out and
        # the rest reach n
        bins, e = BinPartition(np.array([0, 0])), Ensemble(0, np.array([0]), np.array([1.0]))
        for target, tau_kill, extinct in ((0.1, 3, 70), (0.9, None, 31)):
            every, _ = self.check_generation_n_alone(
                two_state, Observable(np.ones(2)), TraditionalPolicy(bins, target),
                e, 5, 4 if tau_kill else 0, range(2 * CHUNK + 6))
            assert every.tau_kill == tau_kill
            assert np.count_nonzero(every.num_particles[:, -1] == 0) == extinct

    def test_a_child_weight_that_underflows_is_refused(self, two_state):
        # 5e-324 / 5 rounds to 0, so the particle's children would weigh nothing
        policy = TraditionalPolicy(BinPartition(np.array([0, 0])), 5)
        e = Ensemble(0, np.array([0]), np.array([5e-324]))
        with pytest.raises(ValueError):
            run_we(two_state, Observable(np.ones(2)), policy, e, 1, 0, [0])
