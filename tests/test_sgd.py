import numpy as np
import pytest

from hetsgd.core import Dataset, ObjectiveSpec, project
from hetsgd.oracles import GradientOracle, OracleSpec
from hetsgd.ordering import expected_deviation, noise_weights, two_level_schedule
from hetsgd.sgd import NonpositiveRate, Schedule


def linear_dataset(n, d=3, seed=0, all_positive=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) / np.sqrt(d)
    y = np.ones(n) if all_positive else np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return Dataset(X, y)


def clean_oracle(ds, obj, seed=0, batch_size=1, budget=None):
    spec = OracleSpec("clean", budget=budget or len(ds), batch_size=batch_size, rng_seed=seed)
    return GradientOracle(spec, obj, ds)


class TestRunSgd:
    def test_single_step_unrolls_exactly(self, run_whole):
        obj = ObjectiveSpec(lam=2.0, loss="linear")  # radius 0.5
        ds = Dataset(np.array([[0.6, 0.8]]), np.array([1.0]))
        oracle = clean_oracle(ds, obj)
        traj = run_whole((("a", 0.5),), {"a": oracle})[0]
        # w2 = project(eta1 * y1 x1) with eta1 = c = 1/lam and lam*w0 = 0
        np.testing.assert_allclose(traj.final_w, project(0.5 * np.array([0.6, 0.8]), 0.5))
        assert traj.steps == 1

    def test_a_huge_rate_projects_onto_the_sphere_not_to_zero(self, run_whole):
        # Each step lands near 1e300 in norm, whose square overflows; the projection
        # must still put the iterate on the sphere rather than scale it to 0.
        obj = ObjectiveSpec(lam=0.1, loss="logistic")        # radius 10
        oracle = clean_oracle(linear_dataset(20, seed=3), obj)
        traj = run_whole((("a", 1e300),), {"a": oracle})[0]
        assert np.linalg.norm(traj.final_w) == pytest.approx(obj.radius, rel=1e-12)

    def test_matches_closed_form_recursion_without_projection(self, run_whole):
        # Deterministic linear problem: unrolled product/sum form of the iterate.
        lam, c, T = 0.8, 0.9, 25
        obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
        ds = linear_dataset(T, d=3, seed=10)
        oracle = clean_oracle(ds, obj, seed=4)
        traj = run_whole((("a", c),), {"a": oracle}, snapshot_stride=1)[0]
        order = GradientOracle(OracleSpec("clean", budget=T, rng_seed=4), obj, ds).order
        yx = ds.y[order, None] * ds.X[order]
        w = np.zeros(3)
        manual = []
        for t in range(1, T + 1):
            eta = c / t
            w = (1 - eta * lam) * w + eta * yx[t - 1]
            manual.append(w.copy())
        for (t, snap), ref in zip(traj.iterates, manual):
            np.testing.assert_allclose(snap, ref, atol=1e-12)

    def test_global_step_index_never_resets(self, run_whole):
        # Two phases, distinct rates: phase 2's first step must use c2/(T1+1).
        lam = 1.0
        obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
        ds1 = linear_dataset(3, seed=1, all_positive=True)
        ds2 = linear_dataset(2, seed=2, all_positive=True)
        o1, o2 = clean_oracle(ds1, obj, seed=5), clean_oracle(ds2, obj, seed=6)
        traj = run_whole((("a", 0.5), ("b", 2.0)), {"a": o1, "b": o2})[0]
        yx1 = ds1.y[o1.order, None] * ds1.X[o1.order]
        yx2 = ds2.y[o2.order, None] * ds2.X[o2.order]
        w = np.zeros(3)
        for t, yx in zip((1, 2, 3), yx1):
            eta = 0.5 / t
            w = (1 - eta * lam) * w + eta * yx
        for t, yx in zip((4, 5), yx2):  # t keeps counting
            eta = 2.0 / t
            w = (1 - eta * lam) * w + eta * yx
        np.testing.assert_allclose(traj.final_w, w, atol=1e-12)

    def test_every_iterate_feasible(self, run_whole):
        obj = ObjectiveSpec(lam=0.05, loss="logistic", radius=2.0)
        ds = linear_dataset(50, seed=3)
        oracle = GradientOracle(OracleSpec("gaussian", budget=50, rng_seed=2, noise_sq=25.0),
                                obj, ds)
        traj = run_whole((("a", 40.0),), {"a": oracle}, snapshot_stride=1)[0]
        for _, w in traj.iterates:
            assert np.linalg.norm(w) <= 2.0 * (1 + 1e-9)

    def test_nonpositive_rate_rejected(self, run_whole):
        obj = ObjectiveSpec(lam=1.0)
        ds = linear_dataset(4)
        with pytest.raises(NonpositiveRate):
            run_whole((("a", -0.1),), {"a": clean_oracle(ds, obj)})

    def test_deterministic_given_seeds(self, run_whole):
        obj = ObjectiveSpec(lam=0.2, loss="logistic")
        ds = linear_dataset(40, seed=7)
        plan = (("a", 5.0),)
        spec = OracleSpec("local_dp", budget=40, batch_size=2, rng_seed=123, epsilon=1.0)
        t1 = run_whole(plan, {"a": GradientOracle(spec, obj, ds)})[0]
        t2 = run_whole(plan, {"a": GradientOracle(spec, obj, ds)})[0]
        np.testing.assert_array_equal(t1.final_w, t2.final_w)

    def test_a_feasible_run_on_a_huge_ball_passes_the_final_check(self, run_whole):
        # Squared norms near 1e600 overflow; the final feasibility check must not.
        obj = ObjectiveSpec(lam=1e-300, loss="logistic")      # radius 1e300
        oracle = clean_oracle(linear_dataset(20, seed=3), obj)
        traj = run_whole((("a", 1e300),), {"a": oracle})[0]
        assert np.linalg.norm(traj.final_w / 1e300) == pytest.approx(1.0, rel=1e-12)

    def test_w0_whose_square_overflows_accepted(self, run_whole):
        obj = ObjectiveSpec(lam=1e-300, loss="linear")        # radius 1e300
        oracle = clean_oracle(linear_dataset(4), obj)
        w0 = np.array([1e200, 0.0, 0.0])
        traj = run_whole((("a", 1.0),), {"a": oracle}, w0=w0)[0]
        assert traj.steps == 4 and np.all(np.isfinite(traj.final_w))
        small = clean_oracle(linear_dataset(4), ObjectiveSpec(lam=1e-300, loss="linear",
                                                              radius=1e199))
        with pytest.raises(ValueError, match="feasible"):
            run_whole((("a", 1.0),), {"a": small}, w0=w0)

    def test_w0_outside_ball_rejected(self, run_whole):
        obj = ObjectiveSpec(lam=1.0)
        ds = linear_dataset(4)
        with pytest.raises(ValueError, match="feasible"):
            run_whole((("a", 1.0),), {"a": clean_oracle(ds, obj)},
                      w0=np.array([2.0, 0.0, 0.0]))

    @pytest.mark.parametrize("w0", [[np.nan, 0.0, 0.0], [2.0, 0.0, 0.0]])
    @pytest.mark.parametrize("paired", [False, True])
    def test_bad_start_rejected_before_the_budget_is_used(self, w0, paired, run_whole):
        oracle = clean_oracle(linear_dataset(3), ObjectiveSpec(lam=1.0))
        with pytest.raises(ValueError, match="feasible"):
            run_whole((("a", 1.0),), {"a": oracle}, w0=np.array(w0),
                      paired=paired)

    @pytest.mark.parametrize("c", [np.inf, np.nan])
    def test_non_finite_rate_rejected_before_any_step(self, c, run_whole):
        oracle = clean_oracle(linear_dataset(3), ObjectiveSpec(lam=1e-3))
        with pytest.raises(NonpositiveRate):
            run_whole((("a", c),), {"a": oracle})


class TestInterleaved:
    def test_block_pattern_reproduces_phase_plan(self, run_whole):
        lam, c = 0.5, 1.2
        obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
        ds1, ds2 = linear_dataset(6, seed=11), linear_dataset(4, seed=12)

        def oracles():
            return {"a": clean_oracle(ds1, obj, seed=21), "b": clean_oracle(ds2, obj, seed=22)}

        plan_traj = run_whole((("a", c), ("b", c)), oracles())[0]
        pattern = Schedule(("a", "b"), (c, c), [0] * 6 + [1] * 4)
        pat_traj = run_whole(pattern, oracles())[0]
        np.testing.assert_array_equal(plan_traj.final_w, pat_traj.final_w)

        rev_plan = run_whole((("b", c), ("a", c)), oracles())[0]
        rev_pat = run_whole(Schedule(("a", "b"), (c, c), [1] * 4 + [0] * 6), oracles())[0]
        np.testing.assert_array_equal(rev_plan.final_w, rev_pat.final_w)

    def test_random_pattern_consumes_all_budgets(self, run_whole):
        obj = ObjectiveSpec(lam=1.0, loss="linear", radius=np.inf)
        ds1, ds2 = linear_dataset(5, seed=13), linear_dataset(7, seed=14)
        oracles = {"a": clean_oracle(ds1, obj), "b": clean_oracle(ds2, obj)}
        slots = [0] * 5 + [1] * 7
        np.random.default_rng(0).shuffle(slots)
        pattern = Schedule(("a", "b"), (1.0, 1.0), slots)
        assert run_whole(pattern, oracles)[0].steps == 12
        assert pattern.counts().tolist() == [5, 7]

    def test_pattern_budget_mismatch_rejected(self, run_whole):
        obj = ObjectiveSpec(lam=1.0)
        ds = linear_dataset(4)
        oracles = {"a": clean_oracle(ds, obj)}
        with pytest.raises(RuntimeError, match="batches"):      # reads 3 of 4 batches
            run_whole(Schedule(("a",), (1.0,), [0] * 3), oracles)
        with pytest.raises(KeyError, match="z"):                # names an oracle not given
            run_whole(Schedule(("a", "z"), (1.0, 1.0), [0] * 4 + [1]),
                      {"a": clean_oracle(ds, obj)})


class TestPaired:
    def test_clean_oracles_give_identical_twins(self, run_whole):
        obj = ObjectiveSpec(lam=0.5, loss="logistic")
        ds = linear_dataset(20, seed=15)
        noisy, twin = run_whole((("a", 2.0),),
                                {"a": clean_oracle(ds, obj, seed=31)}, paired=True)
        np.testing.assert_array_equal(noisy.final_w, twin.final_w)

    @pytest.mark.parametrize("c", [0.4, 1.0, 1.7])
    def test_gap_identity_linear_loss(self, c, run_whole):
        # v - w = sum_t delta_t Z_t exactly when projection never fires.
        lam, T = 1.0, 40
        obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
        ds = linear_dataset(T, seed=16)
        oracle = GradientOracle(OracleSpec("gaussian", budget=T, rng_seed=8, noise_sq=4.0),
                                obj, ds)
        plan = (("g", c),)
        noisy, twin = run_whole(plan, {"g": oracle}, paired=True)
        rerun = run_whole(plan, {"g": oracle})[0]       # the oracle holds no state
        np.testing.assert_array_equal(rerun.final_w, noisy.final_w)
        Z = oracle.noise_means
        deltas = noise_weights(c, lam, T).deltas
        np.testing.assert_allclose(twin.final_w - noisy.final_w, deltas @ Z, atol=1e-10)

    def test_gap_identity_interleaved(self, run_whole):
        lam, c = 1.0, 0.8
        obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
        ds1, ds2 = linear_dataset(10, seed=17), linear_dataset(10, seed=18)
        o1 = GradientOracle(OracleSpec("gaussian", budget=10, rng_seed=1, noise_sq=1.0), obj, ds1)
        o2 = GradientOracle(OracleSpec("gaussian", budget=10, rng_seed=2, noise_sq=16.0), obj, ds2)
        slots = [0, 1] * 10
        np.random.default_rng(3).shuffle(slots)
        pattern = Schedule(("a", "b"), (c, c), slots)
        noisy, twin = run_whole(pattern, {"a": o1, "b": o2}, paired=True)
        rows = (iter(o1.noise_means), iter(o2.noise_means))
        Z = np.array([next(rows[s]) for s in slots])
        deltas = noise_weights(c, lam, 20).deltas
        np.testing.assert_allclose(twin.final_w - noisy.final_w, deltas @ Z, atol=1e-10)

    def test_mean_gap_matches_closed_form(self, run_whole):
        # 300 paired oracle runs against the delta-weighted variance sum.
        lam, c, T, d = 1.0, 0.6, 30, 3
        obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
        var_c, var_n = 1.0, 9.0
        schedule = two_level_schedule(np.array([False] * 15 + [True] * 15), var_c, var_n)
        target = expected_deviation(noise_weights(c, lam, T), schedule)
        gaps = []
        for trial in range(300):
            ds_c = linear_dataset(15, d=d, seed=1000 + trial)
            ds_n = linear_dataset(15, d=d, seed=5000 + trial)
            oc = GradientOracle(OracleSpec("gaussian", budget=15, rng_seed=2000 + trial,
                                           noise_sq=var_c), obj, ds_c)
            on = GradientOracle(OracleSpec("gaussian", budget=15, rng_seed=7000 + trial,
                                           noise_sq=var_n), obj, ds_n)
            noisy, twin = run_whole((("c", c), ("n", c)),
                                    {"c": oc, "n": on}, paired=True)
            gaps.append(np.sum((twin.final_w - noisy.final_w) ** 2))
        gaps = np.asarray(gaps)
        se = gaps.std(ddof=1) / np.sqrt(len(gaps))
        assert abs(gaps.mean() - target) <= 3 * se


class TestVectorizedGapSimulator:
    """Trial-batched paired runs on the engine (the paired_gaps fixture)."""

    def test_agrees_with_closed_form(self, paired_gaps):
        lam, c, T, d = 1.0, 0.5, 50, 4
        mask = np.array([False] * 25 + [True] * 25)
        target = expected_deviation(noise_weights(c, lam, T), two_level_schedule(mask, 1.0, 25.0))
        gaps = paired_gaps(mask, 1.0, 25.0, c, lam, d=d, n_trials=8000, seed=9)
        se = gaps.std(ddof=1) / np.sqrt(len(gaps))
        assert abs(gaps.mean() - target) <= 3 * se

    def test_zero_noise_gives_zero_gap(self, paired_gaps):
        mask = np.arange(20) % 2 == 1
        gaps = paired_gaps(mask, 0.0, 0.0, 1.0, 1.0, d=3, n_trials=50, seed=0)
        np.testing.assert_array_equal(gaps, np.zeros(50))

    def test_deterministic_given_seed(self, paired_gaps):
        mask = np.arange(15) % 2 == 0
        a = paired_gaps(mask, 4.0, 4.0, 0.7, 1.0, d=3, n_trials=100, seed=5)
        b = paired_gaps(mask, 4.0, 4.0, 0.7, 1.0, d=3, n_trials=100, seed=5)
        assert np.all(a > 0)
        np.testing.assert_array_equal(a, b)


def test_two_phase_error_within_leading_bound(run_whole):
    # Monte Carlo excess error of a heterogeneous two-phase run stays under
    # the leading bound constant plus the worst-case lower-order term.
    from hetsgd.rates import BoundInputs, two_phase_bound

    lam, T, d, trials = 1.0, 400, 4, 250
    beta1, c1, c2 = 0.5, 1.0, 1.5
    v1_sq, v2_sq = 25.0, 1.0  # noisy phase first
    radius = 1.0 / lam
    obj = ObjectiveSpec(lam=lam, loss="linear", radius=radius)
    mu = np.zeros(d)
    mu[0] = 0.25
    w_star = mu / lam
    T1 = int(beta1 * T)

    def ball_features(rng, n):
        # mu plus a uniform-ball perturbation of radius 0.5 keeps ||x|| <= 0.75.
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = 0.5 * rng.random(n) ** (1.0 / d)
        return mu + g * r[:, None]

    errs = []
    for trial in range(trials):
        rng = np.random.default_rng(90_000 + trial)
        ds1 = Dataset(ball_features(rng, T1), np.ones(T1))
        ds2 = Dataset(ball_features(rng, T - T1), np.ones(T - T1))
        o1 = GradientOracle(OracleSpec("gaussian", budget=T1, rng_seed=91_000 + trial,
                                       noise_sq=v1_sq), obj, ds1)
        o2 = GradientOracle(OracleSpec("gaussian", budget=T - T1, rng_seed=92_000 + trial,
                                       noise_sq=v2_sq), obj, ds2)
        traj = run_whole((("n", c1), ("c", c2)), {"n": o1, "c": o2})[0]
        errs.append(float(np.sum((traj.final_w - w_star) ** 2)))

    inputs = BoundInputs(4.0 + v1_sq, 4.0 + v2_sq, beta1, lam, T)
    bound = two_phase_bound(inputs, c1, c2)
    i0 = int(np.ceil(2 * lam * c1))
    lower_order = 4 * radius ** 2 * i0 ** (2 * lam * c1) \
        * beta1 ** (2 * lam * (c2 - c1)) / T ** min(2.0, 2 * lam * c1)
    assert np.mean(errs) <= bound + lower_order


def test_convergence_rate_on_noiseless_problem(run_whole):
    # Clean oracle, fresh data each trial, c = 1/lam: squared error decays like 1/t.
    lam, T, d, trials = 1.0, 1500, 5, 60
    obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
    mu = np.zeros(d)
    mu[0] = 0.3
    w_star = mu / lam
    errs = []
    for trial in range(trials):
        rng = np.random.default_rng(31_000 + trial)
        X = mu + rng.standard_normal((T, d)) / np.sqrt(d)
        ds = Dataset(X, np.ones(T))
        oracle = clean_oracle(ds, obj, seed=61_000 + trial)
        traj = run_whole((("a", 1.0 / lam),), {"a": oracle},
                         snapshot_stride=5)[0]
        errs.append([(t, float(np.sum((w - w_star) ** 2))) for t, w in traj.iterates])
    times = np.array([t for t, _ in errs[0]])
    mean_err = np.mean([[e for _, e in row] for row in errs], axis=0)
    keep = times >= T // 10
    slope = np.polyfit(np.log(times[keep]), np.log(mean_err[keep]), 1)[0]
    assert -1.3 <= slope <= -0.7
