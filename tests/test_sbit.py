import numpy as np
import pytest

from thermosim import (ContractViolationError, RateSchedule, SBitSystem,
                       dense_generator, sample_coupled_trajectory,
                       sample_sbit_trajectory, transient_distribution)
from thermosim.sbit import Transition, index_state, state_index


class TestRateSchedule:
    def test_constant_value(self):
        s = RateSchedule.constant(2.5)
        assert s.value(0.0) == 2.5
        assert s.value(100.0) == 2.5

    def test_piecewise_linear_interpolation(self):
        s = RateSchedule.piecewise_linear([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert s.value(0.5) == pytest.approx(1.0)
        assert s.value(1.5) == pytest.approx(1.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ContractViolationError):
            RateSchedule.piecewise_constant([0.0, 1.0], [-1.0])

    def test_horizon_beyond_domain_rejected(self):
        s = RateSchedule.piecewise_constant([0.0, 1.0], [1.0])
        rng = np.random.default_rng(0)
        with pytest.raises(ContractViolationError):
            s.first_event(0.0, 2.0, rng)

    def test_refinement_invariance(self):
        """Splitting a constant segment without changing values leaves the
        sampled trajectory bitwise unchanged (same proposals accepted)."""
        coarse = RateSchedule.piecewise_constant([0.0, 4.0], [1.5])
        fine = RateSchedule.piecewise_constant([0.0, 2.0, 4.0], [1.5, 1.5])
        a = sample_sbit_trajectory(coarse, coarse, 0, 4.0, seed=13)
        b = sample_sbit_trajectory(fine, fine, 0, 4.0, seed=13)
        assert a.jumps == b.jumps


class TestSingleSBit:
    def test_zero_rates_no_flips(self):
        z = RateSchedule.constant(0.0)
        traj = sample_sbit_trajectory(z, z, 1, 10.0, seed=0)
        assert traj.jumps == []
        assert traj.state_at(5.0) == (1,)

    def test_exponential_gap_statistics(self):
        lam = 2.0
        s = RateSchedule.constant(lam)
        gaps = []
        for seed in range(40):
            traj = sample_sbit_trajectory(s, s, 0, 200.0, seed=seed)
            ts = np.concatenate([[0.0], traj.flip_times()])
            gaps.extend(np.diff(ts))
        gaps = np.asarray(gaps)
        assert len(gaps) > 10 ** 4
        assert abs(gaps.mean() - 1 / lam) / (1 / lam) < 0.03
        assert abs(gaps.var() - 1 / lam ** 2) / (1 / lam ** 2) < 0.05

    def test_asymmetric_occupancy(self):
        # lambda0=1, lambda1=3 -> pi = (0.75, 0.25)
        l0, l1 = RateSchedule.constant(1.0), RateSchedule.constant(3.0)
        time_in_1 = total = 0.0
        for seed in range(20):
            traj = sample_sbit_trajectory(l0, l1, 0, 500.0, seed=seed)
            ts = np.concatenate([[0.0], traj.flip_times(), [500.0]])
            states = [traj.state_at((a + b) / 2)[0] for a, b in zip(ts, ts[1:])]
            time_in_1 += sum((b - a) for (a, b), x in
                             zip(zip(ts, ts[1:]), states) if x == 1)
            total += 500.0
        assert abs(time_in_1 / total - 0.25) < 0.02

    def test_determinism(self):
        s = RateSchedule.constant(1.0)
        a = sample_sbit_trajectory(s, s, 0, 10.0, seed=5)
        b = sample_sbit_trajectory(s, s, 0, 10.0, seed=5)
        assert a.jumps == b.jumps

    def test_time_dependent_rate_thinning(self):
        """Ramp rate 0->2 over [0,1]: expected flip count out of state 0
        follows the integrated rate; check a Poisson-mean estimate for the
        first-passage distribution P(no flip by 1) = exp(-1)."""
        ramp = RateSchedule.piecewise_linear([0.0, 1.0], [0.0, 2.0])
        frozen = RateSchedule.constant(0.0)
        survived = 0
        n = 4000
        for seed in range(n):
            traj = sample_sbit_trajectory(ramp, frozen, 0, 1.0, seed=seed)
            survived += not traj.jumps
        p = survived / n
        assert abs(p - np.exp(-1.0)) < 0.03


class TestCoupledSystem:
    def test_untouched_bit_never_changes(self):
        up = [RateSchedule.constant(2.0), RateSchedule.constant(0.0)]
        down = [RateSchedule.constant(2.0), RateSchedule.constant(0.0)]
        system = SBitSystem.single_flip(up, down)
        traj = sample_coupled_trajectory(system, (0, 1), 20.0, seed=3)
        assert all(x[1] == 1 for _, x in traj.jumps)
        assert len(traj.jumps) > 0

    def test_one_bit_reduces_to_single_sampler(self):
        l0, l1 = RateSchedule.constant(1.0), RateSchedule.constant(2.5)
        system = SBitSystem.single_flip([l0], [l1])
        a = sample_coupled_trajectory(system, (0,), 15.0, seed=21)
        b = sample_sbit_trajectory(l0, l1, 0, 15.0, seed=21)
        assert a.jumps == b.jumps

    def test_infinite_horizon_rejected(self):
        system = SBitSystem.single_flip([RateSchedule.constant(0.0)],
                                        [RateSchedule.constant(0.0)])
        with pytest.raises(ContractViolationError):
            sample_coupled_trajectory(system, (0,), np.inf, seed=0)

    def test_marginal_matches_oracle_n3(self):
        lam = 1.0
        scheds = [RateSchedule.constant(lam) for _ in range(3)]
        system = SBitSystem.single_flip(scheds, list(scheds))
        n = 3000
        counts = np.zeros(8)
        for seed in range(n):
            traj = sample_coupled_trajectory(system, (0, 0, 0), 1.0, seed=seed)
            counts[state_index(traj.state_at(1.0))] += 1
        p0 = np.zeros(8)
        p0[0] = 1.0
        oracle = transient_distribution(system, p0, 1.0)
        tv = 0.5 * np.abs(counts / n - oracle).sum()
        assert tv < 0.05


class TestDenseGenerator:
    def test_zero_rates_zero_matrix(self):
        z = RateSchedule.constant(0.0)
        system = SBitSystem.single_flip([z, z], [z, z])
        np.testing.assert_array_equal(dense_generator(system, 0.0), np.zeros((4, 4)))

    def test_symmetric_single_bit(self):
        lam = 1.7
        s = RateSchedule.constant(lam)
        system = SBitSystem.single_flip([s], [s])
        G = dense_generator(system, 0.0)
        np.testing.assert_allclose(G, [[-lam, lam], [lam, -lam]])

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        scheds = [RateSchedule.constant(r) for r in rng.uniform(0.1, 3.0, 3)]
        scheds2 = [RateSchedule.constant(r) for r in rng.uniform(0.1, 3.0, 3)]
        system = SBitSystem.single_flip(scheds, scheds2)
        G = dense_generator(system, 0.0)
        np.testing.assert_allclose(G.sum(axis=1), 0.0, atol=1e-12)

    def test_large_n_refused(self):
        s = RateSchedule.constant(1.0)
        system = SBitSystem.single_flip([s] * 13, [s] * 13)
        with pytest.raises(ContractViolationError, match="2\\^13"):
            dense_generator(system, 0.0)


class TestTransientDistribution:
    def setup_method(self):
        self.l0 = RateSchedule.constant(1.0)
        self.l1 = RateSchedule.constant(3.0)
        self.system = SBitSystem.single_flip([self.l0], [self.l1])

    def test_t_zero_returns_p0(self):
        p = transient_distribution(self.system, [1.0, 0.0], 0.0)
        np.testing.assert_allclose(p, [1.0, 0.0])

    def test_symmetric_long_time_half_half(self):
        s = RateSchedule.constant(1.0)
        system = SBitSystem.single_flip([s], [s])
        p = transient_distribution(system, [1.0, 0.0], 50.0)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9)

    def test_asymmetric_stationary(self):
        p = transient_distribution(self.system, [0.0, 1.0], 50.0)
        np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-9)

    def test_non_distribution_rejected(self):
        with pytest.raises(ContractViolationError):
            transient_distribution(self.system, [0.5, 0.2], 1.0)

    def test_piecewise_constant_rates(self):
        """Rate switch at t=0.5: exact product of two exponentials."""
        from scipy.linalg import expm
        l0 = RateSchedule.piecewise_constant([0.0, 0.5, 2.0], [1.0, 4.0])
        l1 = RateSchedule.constant(2.0)
        system = SBitSystem.single_flip([l0], [l1])
        p = transient_distribution(system, [1.0, 0.0], 1.0)
        G1 = np.array([[-1.0, 1.0], [2.0, -2.0]])
        G2 = np.array([[-4.0, 4.0], [2.0, -2.0]])
        expected = np.array([1.0, 0.0]) @ expm(0.5 * G1) @ expm(0.5 * G2)
        np.testing.assert_allclose(p, expected, atol=1e-10)


def test_state_index_round_trip():
    for idx in range(16):
        assert state_index(index_state(idx, 4)) == idx
    assert state_index((1, 0, 0)) == 1  # bit 0 least significant


def _scan_state_at(traj, t):
    """The linear scan `state_at` replaced: last jump at or before t."""
    x = traj.x0
    for tj, xj in traj.jumps:
        if tj > t:
            break
        x = xj
    return x


def test_state_at_matches_linear_scan():
    s = RateSchedule.constant(2.0)
    traj = sample_coupled_trajectory(SBitSystem.single_flip([s, s], [s, s]), (0, 1), 10.0,
                                     seed=4)
    ts = list(traj.flip_times())
    assert len(ts) > 10
    probes = [0.0, ts[0] / 2, 10.0] + ts + [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    for t in probes:
        assert traj.state_at(t) == _scan_state_at(traj, t)
    assert traj.state_at(ts[0]) == traj.jumps[0][1]


def _dense_reference(system, t):
    """Independent loop-built dense generator."""
    size = 1 << system.n_bits
    G = np.zeros((size, size))
    for i in range(size):
        x = index_state(i, system.n_bits)
        for trans in system.transitions:
            if trans.enabled(x):
                G[i, state_index(trans.successor(x))] += trans.schedule.value(t)
    return G - np.diag(G.sum(axis=1))


def test_krylov_transient_matches_dense_expm():
    """Four bits, single flips plus a swap of bits 0 and 3, three segments."""
    from scipy.linalg import expm

    rng = np.random.default_rng(5)
    times = [0.0, 0.3, 0.7, 1.0]

    def sched():
        return RateSchedule.piecewise_constant(times, rng.uniform(0.2, 3.0, 3))

    system = SBitSystem.single_flip([sched() for _ in range(4)], [sched() for _ in range(4)])

    def swap(x):
        return (x[3],) + tuple(x[1:3]) + (x[0],)

    system.transitions.append(Transition(lambda x: x[0] != x[3], swap, sched(), "swap03"))
    p0 = rng.dirichlet(np.ones(16))
    expected = p0.copy()
    for a, b in zip(times, times[1:]):
        expected = expected @ expm(_dense_reference(system, (a + b) / 2) * (b - a))
        np.testing.assert_allclose(dense_generator(system, (a + b) / 2),
                                   _dense_reference(system, (a + b) / 2), rtol=0, atol=1e-13)
    np.testing.assert_allclose(transient_distribution(system, p0, 1.0), expected,
                               rtol=0, atol=1e-12)
