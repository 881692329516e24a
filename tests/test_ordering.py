from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetsgd.ordering import (compare_orders, expected_deviation, noise_weights,
                             two_level_schedule)


class TestNoiseWeights:
    def test_flat_at_critical_rate(self):
        np.testing.assert_allclose(noise_weights(1.0, 1.0, 3).deltas, [1 / 3] * 3, rtol=1e-12)

    def test_decreasing_below_critical_rate(self):
        deltas = noise_weights(0.5, 1.0, 10).deltas
        assert np.all(np.diff(deltas) < 0)

    def test_increasing_above_critical_rate_with_zero_factor(self):
        deltas = noise_weights(2.0, 1.0, 3).deltas
        np.testing.assert_allclose(deltas, [0.0, 1 / 3, 2 / 3], atol=1e-15)
        assert np.all(np.diff(deltas) > 0)

    @pytest.mark.parametrize("c,lam", [(np.nan, 1e-3), (500.0, np.nan)])
    def test_nan_rate_or_lam_rejected(self, c, lam):
        with pytest.raises(ValueError, match="c > 0, lam > 0"):
            noise_weights(c, lam, 5)

    @pytest.mark.parametrize("c,lam,T,named", [
        (np.inf, 1e-3, 5, "c=inf"), (0.0, 1e-3, 5, "c=0.0"), (1.0, np.inf, 5, "lam=inf"),
        (1.0, 1e-3, True, "T must be an integer >= 1, got True"),
        (1.0, 1e-3, 5.0, "T must be an integer >= 1, got 5.0"),
        (1.0, 1e-3, 0, "T must be an integer >= 1, got 0")])
    def test_infinite_rate_or_lam_and_non_integer_horizon_rejected(self, c, lam, T, named):
        with pytest.raises(ValueError, match=named):
            noise_weights(c, lam, T)

    def test_single_step(self):
        np.testing.assert_array_equal(noise_weights(0.7, 2.0, 1).deltas, [0.7])

    def test_sign_tracking_with_negative_factors(self):
        # c*lam = 2.5 makes the s=2 factor negative; magnitudes still obey the ratio law.
        deltas = noise_weights(2.5, 1.0, 6).deltas
        assert deltas[0] < 0  # one negative factor in the suffix product
        t = np.arange(1, 6)
        lhs = (deltas[1:] / deltas[:-1]) ** 2
        rhs = 1.0 / (1.0 + (1.0 - 2.5) / t) ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    @given(st.floats(0.05, 5.0), st.floats(0.05, 3.0), st.integers(2, 60))
    @settings(max_examples=150)
    def test_ratio_law(self, c, lam, T):
        # Factors 1 - c*lam/s within float noise of zero make both sides of
        # the identity round incomparably; keep to generic parameters.
        s = np.arange(2, T + 1, dtype=float)
        assume(np.min(np.abs(1.0 - c * lam / s)) > 1e-6)
        deltas = noise_weights(c, lam, T).deltas
        t = np.arange(1, T, dtype=float)
        nonzero = (deltas[1:] != 0) & (deltas[:-1] != 0)
        if not nonzero.any():
            return
        lhs = (deltas[1:][nonzero] / deltas[:-1][nonzero]) ** 2
        rhs = 1.0 / (1.0 + (1.0 - c * lam) / t[nonzero]) ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestExpectedDeviation:
    def test_zero_variances(self):
        assert expected_deviation(noise_weights(1.0, 1.0, 5), np.zeros(5)) == 0.0

    def test_two_step_hand_case(self):
        # lam=1, c=2, T=2: deltas (0, 1); the order decides which variance survives.
        w = noise_weights(2.0, 1.0, 2)
        np.testing.assert_allclose(w.deltas, [0.0, 1.0], atol=1e-15)
        v_c, v_n = 1.0, 9.0
        assert expected_deviation(w, np.array([v_c, v_n])) == pytest.approx(v_n)
        assert expected_deviation(w, np.array([v_n, v_c])) == pytest.approx(v_c)

    def test_constant_schedule_is_order_free(self):
        w = noise_weights(0.7, 1.3, 12)
        base = np.full(12, 5.0)
        rng = np.random.default_rng(0)
        vals = {expected_deviation(w, rng.permutation(base)) for _ in range(10)}
        ref = expected_deviation(w, base)
        assert all(v == pytest.approx(ref, rel=1e-12) for v in vals)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            expected_deviation(noise_weights(1.0, 1.0, 4), np.zeros(5))

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_negative_or_nan_variance_rejected(self, bad):
        with pytest.raises(ValueError, match="step_noise_sq must be >= 0"):
            expected_deviation(noise_weights(1.0, 1.0, 2), [1.0, bad])


def seeded_pattern(T_clean, T_noisy, seed=0):
    """An interleaving with T_noisy noisy steps among T_clean + T_noisy, drawn from ``seed``."""
    pattern = np.zeros(T_clean + T_noisy, dtype=bool)
    pattern[np.random.default_rng(seed).choice(T_clean + T_noisy, size=T_noisy,
                                               replace=False)] = True
    return pattern


class TestCompareOrders:
    def test_clean_first_wins_below_critical_rate(self):
        rng = np.random.default_rng(42)
        T_c, T_n = 8, 12
        weights = noise_weights(0.5, 1.0, T_c + T_n)
        verdict = compare_orders(0.5, 1.0, T_c, T_n, 1.0, 25.0, seeded_pattern(T_c, T_n, 1))
        assert verdict.best == "clean_first"
        for _ in range(100):
            pattern = np.zeros(T_c + T_n, dtype=bool)
            pattern[rng.choice(T_c + T_n, size=T_n, replace=False)] = True
            dev_ao = expected_deviation(weights, two_level_schedule(pattern, 1.0, 25.0))
            assert verdict.deviation_clean_first <= dev_ao + 1e-12
            assert dev_ao <= verdict.deviation_noisy_first + 1e-12

    def test_noisy_first_wins_above_critical_rate(self):
        rng = np.random.default_rng(43)
        T_c, T_n = 8, 12
        weights = noise_weights(2.0, 1.0, T_c + T_n)
        verdict = compare_orders(2.0, 1.0, T_c, T_n, 1.0, 25.0, seeded_pattern(T_c, T_n, 2))
        assert verdict.best == "noisy_first"
        for _ in range(100):
            pattern = np.zeros(T_c + T_n, dtype=bool)
            pattern[rng.choice(T_c + T_n, size=T_n, replace=False)] = True
            dev_ao = expected_deviation(weights, two_level_schedule(pattern, 1.0, 25.0))
            assert verdict.deviation_noisy_first <= dev_ao + 1e-12
            assert dev_ao <= verdict.deviation_clean_first + 1e-12

    def test_tie_at_critical_rate(self):
        verdict = compare_orders(1.0, 1.0, 10, 10, 1.0, 25.0, seeded_pattern(10, 10, 3))
        assert verdict.best == "tie"
        rel = abs(verdict.deviation_clean_first - verdict.deviation_noisy_first)
        assert rel <= 1e-12 * verdict.deviation_clean_first
        rel_ao = abs(verdict.deviation_arbitrary - verdict.deviation_clean_first)
        assert rel_ao <= 1e-12 * verdict.deviation_clean_first

    @pytest.mark.parametrize("c,v_clean_sq,v_noisy_sq", [
        (np.nan, 1.0, 5.0), (500.0, np.nan, 5.0), (500.0, 1.0, np.nan), (500.0, -1.0, 5.0)])
    def test_nan_or_negative_input_gives_no_verdict(self, c, v_clean_sq, v_noisy_sq):
        with pytest.raises(ValueError):
            compare_orders(c, 1e-3, 10, 90, v_clean_sq, v_noisy_sq, seeded_pattern(10, 90))

    @pytest.mark.parametrize("v_clean_sq,v_noisy_sq", [(1.0, np.inf), (np.inf, np.inf)])
    def test_infinite_variance_gives_no_verdict(self, v_clean_sq, v_noisy_sq):
        with pytest.raises(ValueError, match="v_noisy_sq=inf"):
            compare_orders(500.0, 1e-3, 10, 90, v_clean_sq, v_noisy_sq, seeded_pattern(10, 90))

    def test_supplied_pattern_and_validation(self):
        pattern = np.array([True, False, True, False])
        v = compare_orders(0.5, 1.0, 2, 2, 1.0, 4.0, arbitrary_pattern=pattern)
        w = noise_weights(0.5, 1.0, 4)
        assert v.deviation_arbitrary == pytest.approx(
            expected_deviation(w, two_level_schedule(pattern, 1.0, 4.0)))
        with pytest.raises(ValueError):
            compare_orders(0.5, 1.0, 2, 2, 1.0, 4.0, arbitrary_pattern=np.array([True] * 4))
        with pytest.raises(ValueError):
            compare_orders(0.5, 1.0, 2, 2, 9.0, 4.0, pattern)


class TestRearrangement:
    @pytest.mark.parametrize("c,best_is_clean_first", [(0.5, True), (2.0, False)])
    def test_brute_force_over_all_interleavings(self, c, best_is_clean_first):
        # All C(6,3) = 20 placements of 3 noisy steps among 6.
        lam, v_c, v_n = 1.0, 1.0, 16.0
        weights = noise_weights(c, lam, 6)
        devs = {}
        for noisy_slots in combinations(range(6), 3):
            pattern = np.zeros(6, dtype=bool)
            pattern[list(noisy_slots)] = True
            devs[noisy_slots] = expected_deviation(weights, two_level_schedule(pattern, v_c, v_n))
        assert len(devs) == 20
        best = min(devs, key=devs.get)
        assert best == ((3, 4, 5) if best_is_clean_first else (0, 1, 2))


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("order", ["cf", "nf", "ao"])
    def test_simulated_gaps_match_closed_form(self, c, order, paired_gaps):
        lam, T_c, T_n, d = 1.0, 20, 20, 4
        T = T_c + T_n
        v_c, v_n = 1.0, 25.0
        if order == "cf":
            mask = np.array([False] * T_c + [True] * T_n)
        elif order == "nf":
            mask = np.array([True] * T_n + [False] * T_c)
        else:
            rng = np.random.default_rng(7)
            mask = np.zeros(T, dtype=bool)
            mask[rng.choice(T, size=T_n, replace=False)] = True
        target = expected_deviation(noise_weights(c, lam, T), two_level_schedule(mask, v_c, v_n))
        seed = 9100 + 10 * ["cf", "nf", "ao"].index(order) + [0.5, 1.0, 2.0].index(c)
        gaps = paired_gaps(mask, v_c, v_n, c, lam, d=d, n_trials=4000, seed=seed)
        se = gaps.std(ddof=1) / np.sqrt(len(gaps))
        assert abs(gaps.mean() - target) <= 3 * se
