import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hetsgd.core import Dataset, ObjectiveSpec, loss_gradient, mean_loss_gradient
from hetsgd.oracles import (NOISE_BLOCK_BYTES, BudgetExhausted, GradientOracle, NoiseLevel,
                            OracleSpec, dp_noise_level, rcn_noise_level,
                            draw_tables, rcn_surrogate_gradient, sample_privacy_noise)


MECHANISMS = [("clean", {}), ("local_dp", {"epsilon": 1.5}), ("rcn", {"sigma": 0.25}),
              ("gaussian", {"noise_sq": 3.0})]


def make_dataset(n=64, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1).max()
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return Dataset(X, y)


class TestDpNoiseSample:
    def test_second_moment_d1(self):
        rng = np.random.default_rng(11)
        z = sample_privacy_noise(2.0, 1, rng, size=100_000)
        # Gamma radius with shape 1, scale 1: E||Z||^2 = 1*2*1 = 2
        assert np.mean(z ** 2) == pytest.approx(2.0, rel=0.03)

    def test_second_moment_d5(self):
        rng = np.random.default_rng(12)
        z = sample_privacy_noise(2.0, 5, rng, size=100_000)
        assert np.mean(np.sum(z ** 2, axis=1)) == pytest.approx(30.0, rel=0.03)

    def test_zero_mean(self):
        rng = np.random.default_rng(13)
        n = 100_000
        z = sample_privacy_noise(2.0, 5, rng, size=n)
        assert np.linalg.norm(z.mean(axis=0)) < 3 * np.sqrt(30.0 / n)

    def test_radius_distribution_ks(self):
        rng = np.random.default_rng(14)
        d, eps, n = 3, 1.5, 100_000
        radii = np.linalg.norm(sample_privacy_noise(eps, d, rng, size=n), axis=1)
        stat = stats.kstest(radii, "gamma", args=(d, 0, 2.0 / eps)).statistic
        assert stat < 1.6276 / np.sqrt(n)  # 1% critical value

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            sample_privacy_noise(np.nan, 3, np.random.default_rng(0), size=1)

    @pytest.mark.parametrize("name, value", [
        ("epsilon", True), pytest.param("epsilon", np.True_, id="epsilon-np.True_"),
        ("d", True), ("d", 2.0), ("d", 0), ("size", True), ("size", 1.0), ("size", -1)])
    def test_bad_inputs_rejected_by_name(self, name, value):
        args = {"epsilon": 2.0, "d": 3, "rng": np.random.default_rng(0), "size": 2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            sample_privacy_noise(**args)

    def test_zero_rows_for_a_zero_step_oracle(self):
        assert sample_privacy_noise(2.0, 3, np.random.default_rng(0), size=0).shape == (0, 3)

    @pytest.mark.parametrize("d", [1, 10, 54])
    def test_rows_scaled_in_blocks_have_the_bytes_of_the_whole_array_formula(self, d):
        # The formula as first written: every row's norm from one np.linalg.norm call.
        block = NOISE_BLOCK_BYTES // (8 * d)
        for size in (0, 1, block - 1, block, block + 1, 4500):
            rng = np.random.default_rng(size)
            radii = rng.standard_gamma(d, size=size) * (2.0 / 1.3)
            z = rng.standard_normal((size, d))
            expected = z * (radii / np.linalg.norm(z, axis=1))[:, None]
            got = sample_privacy_noise(1.3, d, np.random.default_rng(size), size=size)
            assert got.shape == (size, d) and got.tobytes() == expected.tobytes()

    def test_a_draw_holds_one_array_of_its_rows(self):
        # 4500 x 54 rows, c2-sweep's draw: the call holds the rows, the radii and one block
        # of squares, about 1.1 times the rows; the squares of every row at once beside
        # them would make it about 2.
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            z = sample_privacy_noise(1.0, 54, rng, size=4500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * z.nbytes


class TestNoiseLevels:
    def test_dp_level_values(self):
        assert dp_noise_level(1.0, 25, 1).gamma_sq == pytest.approx(2604.0)
        assert dp_noise_level(2.0, 25, 50).gamma_sq == pytest.approx(17.0)

    @given(st.floats(0.1, 50), st.integers(1, 200), st.integers(1, 500))
    def test_dp_upper_lower_gap_is_constant(self, eps, d, b):
        level = dp_noise_level(eps, d, b)
        assert level.gamma_sq - level.gamma_sq_lower == pytest.approx(4.0)

    def test_dp_level_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            dp_noise_level(np.nan, 3, 1)

    @pytest.mark.parametrize("d,b,name", [(2.5, 1, "d"), (True, 1, "d"), (0, 1, "d"),
                                          (3, 0.5, "batch_size"), (3, True, "batch_size")])
    def test_dp_level_non_integer_counts_rejected(self, d, b, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            dp_noise_level(1.0, d, b)

    def test_rcn_level_values(self):
        assert rcn_noise_level(0.0).gamma_sq == pytest.approx(4.0)
        assert rcn_noise_level(0.25).gamma_sq == pytest.approx(7.0)
        level = rcn_noise_level(0.3)
        assert level.gamma_sq_lower == level.gamma_sq

    def test_rcn_level_monotone_and_domain(self):
        sigmas = np.linspace(0.0, 0.49, 30)
        vals = [rcn_noise_level(s).gamma_sq for s in sigmas]
        assert np.all(np.diff(vals) > 0)
        with pytest.raises(ValueError):
            rcn_noise_level(0.5)

    def test_noise_level_ordering_invariant(self):
        with pytest.raises(ValueError):
            NoiseLevel(1.0, 2.0)

    @pytest.mark.parametrize("name, gamma_sq, gamma_sq_lower", [
        ("gamma_sq", True, False), pytest.param("gamma_sq", np.True_, 0.0, id="gamma_sq-np.True_"),
        ("gamma_sq_lower", 2.0, True)])
    def test_bool_noise_level_rejected_by_name(self, name, gamma_sq, gamma_sq_lower):
        with pytest.raises(ValueError, match=f"^{name} must be a number, not a bool"):
            NoiseLevel(gamma_sq, gamma_sq_lower)


def rcn_flips(n, sigma, seed, batch_size=1):
    """The label-flip table of an rcn oracle over n examples."""
    spec = OracleSpec("rcn", budget=n, batch_size=batch_size, rng_seed=seed, sigma=sigma)
    return GradientOracle(spec, ObjectiveSpec(lam=1.0), make_dataset(n=n, d=1, seed=seed)).flips


class TestRcn:
    def test_flip_never_at_zero_sigma(self):
        assert not rcn_flips(200, 0.0, 0).any()

    def test_flip_frequency(self):
        n = 100_000
        flips = rcn_flips(n, 0.3, 5)
        assert flips.shape == (n, 1)
        assert flips.sum() / n == pytest.approx(0.3, abs=0.005)

    def test_flips_independent_across_examples(self):
        # The two examples of each batch of 2.
        n = 20_000
        a, b = rcn_flips(2 * n, 0.3, 6, batch_size=2).T
        table = np.array([[np.sum((a == i) & (b == j)) for j in (True, False)]
                          for i in (True, False)])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01

    def test_surrogate_reduces_to_plain_at_zero_sigma(self):
        obj = ObjectiveSpec(lam=1.0, loss="logistic")
        w = np.array([0.3, -0.1])
        x = np.array([0.5, 0.2])
        np.testing.assert_allclose(rcn_surrogate_gradient(obj, w, x, 1.0, 0.0),
                                   loss_gradient(obj, w, x, 1.0))

    def test_surrogate_hand_value(self):
        obj = ObjectiveSpec(lam=1.0, loss="logistic")
        g = rcn_surrogate_gradient(obj, np.zeros(2), np.array([1.0, 0.0]), 1.0, 0.25)
        np.testing.assert_allclose(g, [-1.0, 0.0])

    @pytest.mark.parametrize("sigma", [float("nan"), -0.1, 0.5])
    def test_surrogate_bad_sigma_rejected(self, sigma):
        obj = ObjectiveSpec(lam=1.0, loss="logistic")
        with pytest.raises(ValueError, match="sigma"):
            rcn_surrogate_gradient(obj, np.zeros(2), np.array([0.6, 0.8]), 1.0, sigma)

    @pytest.mark.parametrize("label", [0.5, 0.0, 3.0, True, pytest.param(np.True_, id="np.True_")])
    def test_surrogate_observed_label_not_plus_or_minus_one_rejected(self, label):
        # 0.5 and True used to run, True as the label +1.
        obj = ObjectiveSpec(lam=1.0, loss="logistic")
        with pytest.raises(ValueError, match=r"labels must be -1 or \+1, got .* in y_observed$"):
            rcn_surrogate_gradient(obj, np.zeros(2), np.array([0.6, 0.8]), label, 0.25)

    @pytest.mark.parametrize("loss", ["logistic", "hinge", "linear"])
    def test_flip_expectation_equals_plain_gradient(self, loss):
        # Enumerate both flip outcomes exactly: (1-s) grad~(y) + s grad~(-y) = grad(y).
        obj = ObjectiveSpec(lam=1.0, loss=loss)
        rng = np.random.default_rng(21)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            w = rng.standard_normal(d)
            x = rng.standard_normal(d)
            x /= max(1.0, np.linalg.norm(x))
            y = 1.0 if rng.random() < 0.5 else -1.0
            s = float(rng.uniform(0.0, 0.45))
            expect = (1 - s) * rcn_surrogate_gradient(obj, w, x, y, s) \
                + s * rcn_surrogate_gradient(obj, w, x, -y, s)
            np.testing.assert_allclose(expect, loss_gradient(obj, w, x, y), atol=1e-12)


class TestOracleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleSpec("local_dp", budget=10)
        with pytest.raises(ValueError):
            OracleSpec("rcn", budget=10, sigma=0.6)
        with pytest.raises(ValueError):
            OracleSpec("banana", budget=10)
        with pytest.raises(ValueError):
            OracleSpec("clean", budget=0)

    @pytest.mark.parametrize("kw,field", [({"budget": 3.5}, "budget"),
                                          ({"budget": np.float64(4)}, "budget"),
                                          ({"budget": 4, "batch_size": 1.5}, "batch_size"),
                                          ({"budget": True}, "budget"),
                                          ({"budget": 4, "batch_size": True}, "batch_size")])
    def test_non_integer_budget_or_batch_size_rejected(self, kw, field):
        with pytest.raises(ValueError, match=field):
            OracleSpec("clean", **kw)

    def test_numpy_integer_budget_and_batch_size_accepted(self):
        spec = OracleSpec("clean", budget=np.int64(6), batch_size=np.int32(2))
        oracle = GradientOracle(spec, ObjectiveSpec(lam=1.0), make_dataset(n=8))
        assert oracle.steps_total == 3

    def test_nan_noise_parameters_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            OracleSpec("local_dp", budget=10, epsilon=float("nan"))
        with pytest.raises(ValueError, match="noise_sq"):
            OracleSpec("gaussian", budget=10, noise_sq=float("nan"))

    @pytest.mark.parametrize("kind, kw, field", [("clean", {"epsilon": -3.0}, "epsilon"),
                                                 ("local_dp", {"epsilon": 2.0, "sigma": 0.9}, "sigma"),
                                                 ("rcn", {"sigma": 0.1, "noise_sq": 1.0}, "noise_sq")])
    def test_a_level_field_the_kind_does_not_read_is_rejected(self, kind, kw, field):
        # Each used to construct and ignore the extra field.
        with pytest.raises(ValueError, match=f"^a {kind} oracle reads no {field}, got {field}="):
            OracleSpec(kind, budget=10, **kw)

    def test_budget_cannot_exceed_dataset(self):
        ds = make_dataset(n=8)
        with pytest.raises(ValueError, match="budget"):
            GradientOracle(OracleSpec("clean", budget=9), ObjectiveSpec(lam=1.0), ds)

    def test_noise_level_dispatch(self):
        assert OracleSpec("local_dp", budget=5, batch_size=1, epsilon=1.0).noise_level(25).gamma_sq \
            == pytest.approx(2604.0)
        assert OracleSpec("rcn", budget=5, sigma=0.25).noise_level(3).gamma_sq == pytest.approx(7.0)
        assert OracleSpec("clean", budget=5).noise_level(3).gamma_sq == pytest.approx(4.0)


class TestRows:
    @pytest.mark.parametrize("rows,message", [
        (np.zeros((2, 3), dtype=np.intp),
         r"rows must be a 1-d array of row indices, got shape \(2, 3\)"),
        (3, r"rows must be a 1-d array of row indices, got shape \(\)"),
        ([0.0, 1.0], "rows must be integers, got dtype float64"),
        (np.array([True, False]), "rows must be integers, got dtype bool"),
        ([0, 8], r"rows must lie in \[0, 8\), got 0\.\.8"),
        ([-1, 2], r"rows must lie in \[0, 8\), got -1\.\.2"),
        ([1, 2, 1], "rows must be distinct, got row 1 2 times"),
        ([4, 5, 6], "budget 4 exceeds the 3 rows the oracle serves")])
    def test_bad_rows_fail_in_one_line_naming_them(self, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GradientOracle(OracleSpec("clean", budget=4), ObjectiveSpec(lam=1.0),
                           make_dataset(n=8), rows)

    def test_a_row_set_is_checked_once_for_all_its_oracles(self, monkeypatch):
        ds = make_dataset(n=40)
        rows = ds.checked_rows(np.arange(10, 40)[::-1])
        assert ds.checked_rows(rows) is rows and not rows.flags.writeable
        assert ds.checked_rows() is ds.checked_rows()
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
        for seed in range(72):          # the oracles of one strategy-cmp engine call
            GradientOracle(OracleSpec("local_dp", budget=30, rng_seed=seed, epsilon=1.0),
                           ObjectiveSpec(lam=1.0), ds, rows)
        assert calls == []
        # An array the dataset has not returned is checked, and a repeat found, each time.
        with pytest.raises(ValueError, match="distinct"):
            GradientOracle(OracleSpec("clean", budget=2), ObjectiveSpec(lam=1.0), ds, [3, 3])
        assert calls == [1]

    @pytest.mark.parametrize("kind,kw", MECHANISMS)
    def test_an_oracle_over_rows_serves_what_one_over_their_copy_does(self, kind, kw):
        # The permutation is the rows shuffled as the seed shuffles their positions, so the
        # oracle reads the examples, in the order, of an oracle over a copy of those rows.
        ds, obj = make_dataset(n=50), ObjectiveSpec(lam=0.5)
        rows = np.random.default_rng(3).permutation(50)[:30]
        spec = OracleSpec(kind, budget=28, batch_size=4, rng_seed=11, **kw)
        over_rows, over_copy = GradientOracle(spec, obj, ds, rows), \
            GradientOracle(spec, obj, ds.subset(rows))
        assert over_rows.order.tobytes() == rows[over_copy.order].tobytes()
        for name in ("noise_means", "flips"):
            a, b = getattr(over_rows, name), getattr(over_copy, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        w = np.random.default_rng(4).standard_normal(4)
        k = np.arange(over_rows.steps_total)
        assert over_rows.call(w, k).tobytes() == over_copy.call(w, k).tobytes()
        assert over_rows.twin().call(w, k).tobytes() == over_copy.twin().call(w, k).tobytes()


class TestGradientOracle:
    def test_clean_linear_exact(self):
        ds = make_dataset(n=20, d=3, seed=2)
        obj = ObjectiveSpec(lam=0.4, loss="linear")
        oracle = GradientOracle(OracleSpec("clean", budget=20, batch_size=4, rng_seed=9), obj, ds)
        w = np.array([0.1, -0.2, 0.3])
        for k in range(5):
            idx = oracle.order[4 * k:4 * k + 4]
            expected = 0.4 * w - (ds.y[idx, None] * ds.X[idx]).mean(axis=0)
            np.testing.assert_allclose(oracle.call(w, k), expected, atol=1e-15)

    def test_budget_accounting_and_partial_batch(self):
        ds = make_dataset(n=7)
        obj = ObjectiveSpec(lam=1.0)
        oracle = GradientOracle(OracleSpec("clean", budget=7, batch_size=2, rng_seed=0), obj, ds)
        assert oracle.steps_total == 3
        w = np.zeros(4)
        assert oracle.call(w, np.arange(3)).shape == (3, 4)
        for k in (3, -1, np.array([0, 3])):
            with pytest.raises(BudgetExhausted):
                oracle.call(w, k)

    def test_same_seed_same_order_and_noise(self):
        ds = make_dataset(n=30, seed=4)
        obj = ObjectiveSpec(lam=1.0)
        spec = OracleSpec("local_dp", budget=30, batch_size=3, rng_seed=77, epsilon=1.0)
        a = GradientOracle(spec, obj, ds)
        b = GradientOracle(spec, obj, ds)
        w = np.full(4, 0.1)
        for k in range(10):
            np.testing.assert_array_equal(a.call(w, k), b.call(w, k))

    def test_twin_traverses_same_data_without_noise(self):
        ds = make_dataset(n=24, seed=5)
        obj = ObjectiveSpec(lam=0.5, loss="linear")
        spec = OracleSpec("local_dp", budget=24, batch_size=2, rng_seed=3, epsilon=0.5)
        noisy = GradientOracle(spec, obj, ds)
        twin = noisy.twin()
        w = np.full(4, 0.05)
        for k, z_bar in enumerate(noisy.noise_means):
            np.testing.assert_allclose(noisy.call(w, k) - z_bar, twin.call(w, k), atol=1e-12)

    def test_rcn_suppressed_twin_uses_true_labels(self):
        ds = make_dataset(n=16, seed=6)
        obj = ObjectiveSpec(lam=0.5, loss="logistic")
        spec = OracleSpec("rcn", budget=16, batch_size=16, rng_seed=1, sigma=0.4)
        twin = GradientOracle(spec, obj, ds).twin()
        w = np.full(4, 0.2)
        idx = twin.order[:16]
        expected = 0.5 * w + mean_loss_gradient(obj, w, ds.X[idx], ds.y[idx])
        np.testing.assert_allclose(twin.call(w, 0), expected, atol=1e-12)

    def test_same_batch_twice_gives_equal_bytes(self):
        ds = make_dataset(n=12, seed=8)
        obj = ObjectiveSpec(lam=1.0)
        oracle = GradientOracle(OracleSpec("gaussian", budget=12, rng_seed=5, noise_sq=2.0), obj, ds)
        w = np.zeros(4)
        for k in (3, np.arange(4)):
            assert oracle.call(w, k).tobytes() == oracle.call(w, k).tobytes()

    @pytest.mark.parametrize("kind,kw", MECHANISMS)
    @pytest.mark.parametrize("b", [1, 3])
    def test_array_of_batches_matches_one_call_per_batch(self, kind, kw, b):
        ds = make_dataset(n=30, seed=9)
        obj = ObjectiveSpec(lam=0.3, loss="logistic")
        oracle = GradientOracle(OracleSpec(kind, budget=30, batch_size=b, rng_seed=4, **kw),
                                obj, ds)
        w = np.array([0.2, -0.4, 0.1, 0.3])
        k = np.array([4, 0, 4, oracle.steps_total - 1])
        np.testing.assert_allclose(oracle.call(w, k), [oracle.call(w, int(i)) for i in k],
                                   rtol=1e-14, atol=1e-15)
        assert oracle.call(w, k[:0]).shape == (0, 4)

    @pytest.mark.parametrize("k", [1.0, np.array([0.0, 1.0]), True, "0"])
    def test_non_integer_batch_index_rejected(self, k):
        oracle = GradientOracle(OracleSpec("clean", budget=8), ObjectiveSpec(lam=1.0),
                                make_dataset(n=8))
        with pytest.raises(ValueError, match="integer"):
            oracle.call(np.zeros(4), k)

    @pytest.mark.parametrize("kind,kw", MECHANISMS)
    def test_oracle_tables_are_read_only(self, kind, kw):
        oracle = GradientOracle(OracleSpec(kind, budget=8, batch_size=2, rng_seed=3, **kw),
                                ObjectiveSpec(lam=1.0), make_dataset(n=8))
        tables = [t for t in (oracle.order, oracle.noise_means, oracle.flips) if t is not None]
        assert len(tables) == (1 if kind == "clean" else 2)
        assert oracle.twin().order is oracle.order
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[1]

    @pytest.mark.parametrize("b", [1, 3])
    def test_tables_drawn_together_equal_tables_drawn_alone(self, b):
        def build():
            return [GradientOracle(OracleSpec(kind, budget=60 - 6 * m, batch_size=b,
                                              rng_seed=m, **kw), ObjectiveSpec(lam=1.0),
                                   make_dataset())
                    for m, (kind, kw) in enumerate(MECHANISMS * 2)]
        alone, together = build(), build()
        draw_tables(together)
        for a, t in zip(alone, together):
            for name in ("order", "noise_means", "flips"):
                x, y = getattr(a, name), getattr(t, name)
                assert (x is None) == (y is None)
                if y is not None:
                    assert x.tobytes() == y.tobytes() and not y.flags.writeable
        for name, count in (("order", 8), ("noise_means", 4), ("flips", 2)):
            tables = [getattr(t, name) for t in together if getattr(t, name) is not None]
            assert len(tables) == count and len({id(t.base) for t in tables}) == 1
            # Row 0 of the noise and flip buffers, which twins read, holds zeros.
            assert name == "order" or not tables[0].base[0].any()

    @pytest.mark.parametrize("n", [1, 2, 500, 4500, 5000])
    @pytest.mark.parametrize("sizes", [(1, 1, 1), (3, 3, 3), (1, 3, 2)])
    def test_order_is_the_generator_permutation_of_its_seed(self, n, sizes):
        # Drawn alone or with others, behind any offset, in rows of one batch size or of
        # mixed ones: Generator.permutation's bytes.
        def build():
            return [GradientOracle(OracleSpec("clean", budget=m, batch_size=min(b, m),
                                              rng_seed=seed), ObjectiveSpec(lam=1.0),
                                   make_dataset(n=m))
                    for seed, m, b in zip((7, n, 8), (3, n, n), sizes)]
        alone, together = build(), build()
        draw_tables(together)
        for seed, a, t in zip((7, n, 8), alone, together):
            perm_seed, _ = np.random.SeedSequence(seed).spawn(2)
            want = np.random.default_rng(perm_seed).permutation(len(a.dataset)).tobytes()
            assert a.order.tobytes() == t.order.tobytes() == want
            assert a.order.dtype == np.intp

    def test_a_local_dp_oracle_rejects_examples_outside_the_unit_ball(self):
        # Its noise is calibrated for gradients of norm at most 1; here ||x|| = 5 * sqrt(3).
        ds, obj = Dataset(np.full((10, 3), 5.0), np.ones(10)), ObjectiveSpec(lam=1.0)
        with pytest.raises(ValueError, match=r"norm at most 1, got .* largest norm is 8\.66"):
            GradientOracle(OracleSpec("local_dp", budget=10, epsilon=1.0), obj, ds)
        for kind, kw in MECHANISMS:
            if kind != "local_dp":
                GradientOracle(OracleSpec(kind, budget=10, **kw), obj, ds)
        GradientOracle(OracleSpec("local_dp", budget=10, epsilon=1.0), obj, ds.normalized())

    def test_a_dataset_computes_its_largest_norm_once(self, monkeypatch):
        ds, calls = make_dataset(n=20), []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(1) or einsum(*a, **k))
        for seed in range(3):
            GradientOracle(OracleSpec("local_dp", budget=20, rng_seed=seed, epsilon=1.0),
                           ObjectiveSpec(lam=1.0), ds)
        assert len(calls) == 1
        assert ds.max_square_norm == pytest.approx(ds.max_feature_norm() ** 2, rel=1e-15)

    def test_examples_past_the_float_range_are_rejected(self):
        ds = Dataset(np.array([[1e200, 0.0], [0.0, 0.5]]), np.ones(2))
        assert ds.max_square_norm == np.inf
        with pytest.raises(ValueError, match="largest norm is 1e\\+200"):
            GradientOracle(OracleSpec("local_dp", budget=2, epsilon=1.0), ObjectiveSpec(lam=1.0),
                           ds)

    def test_oracles_of_different_batch_sizes_are_not_drawn_together(self):
        oracles = [GradientOracle(OracleSpec("local_dp", budget=8, batch_size=b, epsilon=1.0),
                                  ObjectiveSpec(lam=1.0), make_dataset(n=8)) for b in (1, 2)]
        with pytest.raises(ValueError, match=r"share d and batch size, got \(d, b\) in"):
            draw_tables(oracles)

    @pytest.mark.parametrize("kind,kw", MECHANISMS)
    def test_second_moment_bounded_by_noise_level(self, kind, kw):
        rng = np.random.default_rng(31)
        n, d = 20_000, 4
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1).max()
        ds = Dataset(X, np.where(rng.random(n) < 0.5, 1.0, -1.0))
        obj = ObjectiveSpec(lam=0.5, loss="logistic")
        spec = OracleSpec(kind, budget=n, batch_size=1, rng_seed=17, **kw)
        oracle = GradientOracle(spec, obj, ds)
        gamma_sq = spec.noise_level(d).gamma_sq
        for w_seed in range(2):
            w_rng = np.random.default_rng(w_seed)
            w = w_rng.standard_normal(d)
            w *= w_rng.uniform(0, 1) * obj.radius / np.linalg.norm(w)
            sq = np.sum(oracle.call(w, np.arange(n)) ** 2, axis=1)
            se = sq.std(ddof=1) / np.sqrt(n)
            assert sq.mean() <= gamma_sq + 3 * se
