"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Monte Carlo checks use fixed seeds throughout, so
every run is reproducible.
"""
import math
from itertools import combinations

import numpy as np
import pytest

from hetsgd.core import Dataset, ObjectiveSpec, mean_loss_gradient, loss_gradient
from hetsgd.experiments import (ExperimentConfig, c2_sweep_details, read_csv_rows,
                                run_strategy_comparison, strategy_comparison_details)
from hetsgd.oracles import (GradientOracle, OracleSpec, dp_noise_level, rcn_noise_level,
                            rcn_surrogate_gradient, sample_privacy_noise)
from hetsgd.ordering import expected_deviation, noise_weights, two_level_schedule
from hetsgd.rates import (BoundInputs, clean_first_constant, clean_first_rate_interval,
                          minimize_phase2_rate, minimize_single_rate,
                          noisy_first_rate_interval, select_rates, two_phase_bound)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def strategy_cmp_config(out_dir=None):
    d = {
        "problem": {"loss": "logistic", "lam": 1e-3},
        "data": {"kind": "synthetic", "d": 10, "n": 5000, "flip_rate": 0.05},
        "oracles": {"kind": "local_dp", "epsilon_clean": 10.0, "batch_size": 50},
        "beta_c": 0.1,
        "trials": 100,
        "master_seed": 20240501,
        "epsilon_noisy_sweep": [1.0, 2.0, 3.0, 5.0, 8.0, 10.0],
    }
    if out_dir is not None:
        d["out_dir"] = str(out_dir)
    return ExperimentConfig.from_dict(d)


def test_criterion_01_dp_noise_moments():
    worst = 0.0
    for seed, (d, eps) in ((101, (5, 2.0)), (102, (25, 1.0))):
        rng = np.random.default_rng(seed)
        z = sample_privacy_noise(eps, d, rng, size=100_000)
        target = 4.0 * (d * d + d) / (eps * eps)
        rel = abs(float(np.mean(np.sum(z * z, axis=1))) - target) / target
        worst = max(worst, rel)
    report(1, "dp-noise-moments", worst <= 0.03, f"worst relative error {worst:.4f}")


def test_criterion_02_oracle_unbiasedness():
    n, d, lam = 100_000, 5, 0.1
    rng = np.random.default_rng(210)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1).max()
    ds = Dataset(X, np.where(rng.random(n) < 0.5, 1.0, -1.0))
    obj = ObjectiveSpec(lam=lam, loss="logistic")
    worst_z = 0.0
    for kind, kw in (("clean", {}), ("local_dp", {"epsilon": 1.5}), ("rcn", {"sigma": 0.3})):
        for w_idx in range(3):
            w_rng = np.random.default_rng(220 + w_idx)
            w = w_rng.standard_normal(d)
            w *= w_rng.uniform(0.0, 1.0) * obj.radius / np.linalg.norm(w)
            target = lam * w + mean_loss_gradient(obj, w, ds.X, ds.y)
            spec = OracleSpec(kind, budget=n, batch_size=1, rng_seed=300 + w_idx, **kw)
            oracle = GradientOracle(spec, obj, ds)
            samples = oracle.call(w, np.arange(n))
            mean = samples.mean(axis=0)
            se = samples.std(axis=0, ddof=1) / math.sqrt(n)
            z = np.abs(mean - target) / np.maximum(3.0 * se, 1e-9)
            worst_z = max(worst_z, float(z.max()) * 3.0)
            assert np.all(z <= 1.0), f"{kind} w#{w_idx}: deviation beyond 3 se"

    # Exact enumeration of the label-flip expectation for the surrogate gradient.
    enum_rng = np.random.default_rng(230)
    for _ in range(50):
        w = enum_rng.standard_normal(d)
        x = enum_rng.standard_normal(d)
        x /= max(1.0, np.linalg.norm(x))
        y = 1.0 if enum_rng.random() < 0.5 else -1.0
        s = float(enum_rng.uniform(0.0, 0.45))
        expect = (1 - s) * rcn_surrogate_gradient(obj, w, x, y, s) \
            + s * rcn_surrogate_gradient(obj, w, x, -y, s)
        np.testing.assert_allclose(expect, loss_gradient(obj, w, x, y), atol=1e-12)
    report(2, "oracle-unbiasedness", True, f"worst |dev|/se {worst_z:.2f} of 3.0")


def test_criterion_03_data_ordering(paired_gaps):
    lam, T_c, T_n, d = 1.0, 100, 100, 5
    T = T_c + T_n
    v_c, v_n = 1.0, 25.0  # noise ratio 5
    cf_mask = np.array([False] * T_c + [True] * T_n)
    nf_mask = ~cf_mask
    pattern_rng = np.random.default_rng(5)
    ao_mask = np.zeros(T, dtype=bool)
    ao_mask[pattern_rng.choice(T, size=T_n, replace=False)] = True

    # Closed-form chains over 100 random interleavings.
    chain_rng = np.random.default_rng(2024)
    for c, low_first in ((0.5, "cf"), (2.0, "nf")):
        w = noise_weights(c, lam, T)
        dev_cf = expected_deviation(w, two_level_schedule(cf_mask, v_c, v_n))
        dev_nf = expected_deviation(w, two_level_schedule(nf_mask, v_c, v_n))
        for _ in range(100):
            pat = np.zeros(T, dtype=bool)
            pat[chain_rng.choice(T, size=T_n, replace=False)] = True
            dev_ao = expected_deviation(w, two_level_schedule(pat, v_c, v_n))
            if low_first == "cf":
                assert dev_cf <= dev_ao + 1e-12 <= dev_nf + 2e-12
            else:
                assert dev_nf <= dev_ao + 1e-12 <= dev_cf + 2e-12

    w1 = noise_weights(1.0, lam, T)
    d_cf = expected_deviation(w1, two_level_schedule(cf_mask, v_c, v_n))
    d_nf = expected_deviation(w1, two_level_schedule(nf_mask, v_c, v_n))
    d_ao = expected_deviation(w1, two_level_schedule(ao_mask, v_c, v_n))
    tie_rel = max(abs(d_cf - d_nf), abs(d_cf - d_ao)) / d_cf
    assert tie_rel <= 1e-12

    # Monte Carlo paired runs on the engine, 10^4 trials per order and rate.
    worst_z = 0.0
    for ci, c in enumerate((0.5, 1.0, 2.0)):
        w = noise_weights(c, lam, T)
        for oi, mask in enumerate((cf_mask, nf_mask, ao_mask)):
            target = expected_deviation(w, two_level_schedule(mask, v_c, v_n))
            gaps = paired_gaps(mask, v_c, v_n, c, lam, d=d, n_trials=10_000,
                               seed=20_000 + 10 * ci + oi)
            se = gaps.std(ddof=1) / math.sqrt(len(gaps))
            worst_z = max(worst_z, abs(float(gaps.mean()) - target) / se)
    report(3, "data-ordering", worst_z <= 3.0,
           f"tie rel {tie_rel:.1e}; worst MC z {worst_z:.2f}")


def test_criterion_04_delta_machinery():
    # Ratio law at relative 1e-10 over random generic parameters.
    rng = np.random.default_rng(40)
    worst = 0.0
    draws = 0
    while draws < 200:
        c = float(rng.uniform(0.05, 5.0))
        lam = float(rng.uniform(0.05, 3.0))
        T = int(rng.integers(2, 80))
        s = np.arange(2, T + 1, dtype=float)
        if s.size and np.min(np.abs(1.0 - c * lam / s)) < 1e-8:
            continue
        draws += 1
        deltas = noise_weights(c, lam, T).deltas
        t = np.arange(1, T, dtype=float)
        nonzero = (deltas[1:] != 0) & (deltas[:-1] != 0)
        if not nonzero.any():
            continue
        lhs = (deltas[1:][nonzero] / deltas[:-1][nonzero]) ** 2
        rhs = 1.0 / (1.0 + (1.0 - c * lam) / t[nonzero]) ** 2
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    assert worst <= 1e-10

    # Brute force over all 20 interleavings of 3 noisy among 6 steps.
    v_c, v_n = 1.0, 16.0
    for c, expect_best in ((0.5, (3, 4, 5)), (2.0, (0, 1, 2))):
        weights = noise_weights(c, 1.0, 6)
        devs = {}
        for slots in combinations(range(6), 3):
            mask = np.zeros(6, dtype=bool)
            mask[list(slots)] = True
            devs[slots] = expected_deviation(weights, two_level_schedule(mask, v_c, v_n))
        assert len(devs) == 20
        assert min(devs, key=devs.get) == expect_best
    report(4, "delta-machinery", True, f"worst ratio-law rel err {worst:.1e}")


def test_criterion_05_bound_identity_and_limit():
    rng = np.random.default_rng(55)
    worst_identity = 0.0
    for _ in range(50):
        lam = 10.0 ** rng.uniform(-3, 0)
        g1 = rng.uniform(1.0, 100.0)
        g2 = rng.uniform(1.0, 3000.0)
        beta1 = rng.uniform(0.05, 0.95)
        T = int(rng.integers(10, 100_000))
        c = 10.0 ** rng.uniform(-5, 2.5) / lam
        inputs = BoundInputs(g1, g2, beta1, lam, T)
        h = clean_first_constant(c, g1, g2, beta1, lam)
        rel = abs(T * two_phase_bound(inputs, 1.0 / lam, c) - h) / abs(h)
        worst_identity = max(worst_identity, rel)
    assert worst_identity <= 1e-12

    # Two-sided continuity at 2*lam*c2 = 1: the gap to the limit branch is
    # O(offset * log(1/beta)), so it shrinks linearly and is inside 1e-6 by
    # offset 1e-7.
    inputs = BoundInputs(17.0, 2604.0, 0.1, 0.001, 10_000)
    lam = inputs.lam

    def limit_form(c2):
        return 4 * inputs.gamma1_sq / (lam ** 2 * inputs.T) \
            + 4 * inputs.gamma2_sq * c2 * c2 * math.log(1 / inputs.beta1) / inputs.T

    gaps = []
    for offset in (1e-4, 1e-5, 1e-6, 1e-7):
        rel = []
        for sign in (+1, -1):
            c2 = (1.0 + sign * offset) / (2.0 * lam)
            ref = limit_form(c2)
            rel.append(abs(two_phase_bound(inputs, 1.0 / lam, c2) - ref) / ref)
        gaps.append(max(rel))
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = shrinking and gaps[-1] < 1e-6
    report(5, "bound-identity-and-limit", ok and worst_identity <= 1e-12,
           f"identity rel {worst_identity:.1e}; limit gaps {['%.1e' % g for g in gaps]}")


def test_criterion_06_minimizer_brackets():
    lam = 1.0
    for beta_n in (0.5, 0.9):
        iv = noisy_first_rate_interval(1.0, 1e4, beta_n, lam)  # ratio 100
        c2, _ = minimize_phase2_rate(BoundInputs(1e4, 1.0, beta_n, lam, 1))
        assert iv.lo <= 2 * lam * c2 <= iv.hi, f"noisy-first bracket, beta_n={beta_n}"
    for ratio_sq in (100.0, 10_000.0):
        for beta_c in (0.1, 0.5):
            iv = clean_first_rate_interval(1.0, ratio_sq, beta_c)
            c2, _ = minimize_phase2_rate(BoundInputs(1.0, ratio_sq, beta_c, lam, 1))
            assert iv.lo <= 2 * lam * c2 <= iv.hi, \
                f"clean-first bracket, ratio_sq={ratio_sq}, beta_c={beta_c}"
    worst = 0.0
    for lam in (1e-3, 0.05, 1.0):
        c2, _ = minimize_phase2_rate(BoundInputs(25.0, 25.0, 0.3, lam, 1))
        worst = max(worst, abs(c2 * lam - 1.0))
    report(6, "minimizer-brackets", worst <= 1e-6,
           f"equal-noise c2 deviation from 1/lam: {worst:.2e} relative")


def test_criterion_07_selection_dominates_single_rate():
    rng = np.random.default_rng(77)
    worst_margin = -np.inf
    for _ in range(50):
        lam = 10.0 ** rng.uniform(-3, 0)
        gc = rng.uniform(1.0, 50.0)
        gn = gc * 10.0 ** rng.uniform(0.0, 4.0)
        beta_c = rng.uniform(0.05, 0.95)
        sel = select_rates(gc, gn, beta_c, lam)
        c_cn, _ = minimize_single_rate(BoundInputs(gc, gn, beta_c, lam, 1))
        c_nc, _ = minimize_single_rate(BoundInputs(gn, gc, 1 - beta_c, lam, 1))
        single = min(two_phase_bound(BoundInputs(gc, gn, beta_c, lam, 1), c_cn, c_cn),
                     two_phase_bound(BoundInputs(gn, gc, 1 - beta_c, lam, 1), c_nc, c_nc))
        margin = (single - sel.bound_value) / single
        worst_margin = max(worst_margin, -margin)
        assert sel.bound_value <= single * (1 + 1e-9)
    report(7, "selection-dominance", True,
           f"selection never above single-rate minimum (worst slack {worst_margin:.1e})")


@pytest.fixture(scope="module")
def strategy_cmp_results():
    return strategy_comparison_details(strategy_cmp_config())


def test_criterion_08_strategy_comparison_shape(strategy_cmp_results):
    rows, tv = strategy_cmp_results
    sweep = [1.0, 2.0, 3.0, 5.0, 8.0, 10.0]
    means = {(r.strategy, r.sweep_param): r.mean for r in rows}
    stderrs = {(r.strategy, r.sweep_param): r.stderr for r in rows}

    def paired(other, eps):
        diff = tv[(other, eps)] - tv[("Algorithm2", eps)]
        se = diff.std(ddof=1) / math.sqrt(len(diff)) if diff.std() > 0 else 0.0
        return float(diff.mean()), se

    details = []
    for eps in sweep:
        # The gold standard with raw data dominates everything.
        for other in ("CleanOnly", "SameClean", "SameNoisy", "Algorithm2"):
            assert means[("Optimal", eps)] <= means[(other, eps)] \
                + stderrs[(other, eps)], f"Optimal not dominant at eps={eps}"
        # Algorithm2 never meaningfully above either single-rate strategy.
        for other in ("SameClean", "SameNoisy"):
            mean_diff, se = paired(other, eps)
            floor = max(2.0 * se, 1e-3 * abs(means[(other, eps)]))
            assert mean_diff >= -floor, \
                f"Algorithm2 above {other} at eps={eps}: {mean_diff:.4g} < -{floor:.4g}"

    for eps in (2.0, 3.0, 5.0):
        for other in ("SameClean", "SameNoisy"):
            mean_diff, se = paired(other, eps)
            assert mean_diff >= se, \
                f"no 1-se separation vs {other} at eps={eps}: {mean_diff:.4g} vs se {se:.4g}"
            details.append(f"{other}@{eps:g}:{mean_diff / se:.1f}se")
    # At eps 8 the selected plan nearly coincides with the better single-rate
    # plan; require separation from the single-rate family where a distinct
    # plan exists (the other comparison is covered by the no-worse floor).
    sep8 = max(ratio for ratio in
               ((lambda m, s: m / s if s > 0 else np.inf)(*paired(other, 8.0))
                for other in ("SameClean", "SameNoisy")))
    assert sep8 >= 1.0, f"no 1-se separation from single-rate strategies at eps=8: {sep8:.2f}"
    details.append(f"best@8:{sep8:.1f}se")

    # All two-dataset strategies converge at eps_N = eps_C.
    for a, b in combinations(("Algorithm2", "SameClean", "SameNoisy"), 2):
        gap = abs(means[(a, 10.0)] - means[(b, 10.0)])
        tol = 2.0 * math.hypot(stderrs[(a, 10.0)], stderrs[(b, 10.0)])
        assert gap <= tol, f"{a} vs {b} apart at eps=10: {gap:.4g} > {tol:.4g}"
    report(8, "strategy-comparison-shape", True, "; ".join(details))


def c2_sweep_config(eps_n):
    return ExperimentConfig.from_dict({
        "problem": {"loss": "logistic", "lam": 1e-3},
        "data": {"kind": "synthetic", "d": 54, "n": 5000, "flip_rate": 0.05},
        "oracles": {"kind": "local_dp", "epsilon_clean": 10.0, "epsilon_noisy": eps_n,
                     "batch_size": 50},
        "beta_c": 0.1,
        "trials": 100,
        "master_seed": 20240501,
        "c2_grid_points": 12,
    })


def test_criterion_09_c2_sweep_shape():
    details = []
    for eps_n in (1.0, 2.0):
        rows, tv, info = c2_sweep_details(c2_sweep_config(eps_n))
        lo, hi = sorted((info["c2_lower"], info["c2_upper"]))
        grid = info["grid"]
        best_c2 = min(grid, key=lambda c: tv[("TwoRate", c)].mean())
        best = tv[("TwoRate", best_c2)]

        gap = tv[("CleanOnly", 0.0)] - best
        gap_se = gap.std(ddof=1) / math.sqrt(len(gap))
        assert gap.mean() >= gap_se, \
            f"eps_n={eps_n}: sweep minimum not below CleanOnly ({gap.mean():.4g} vs {gap_se:.4g})"

        if lo <= best_c2 <= hi:
            where = "argmin inside"
        else:
            # The valley floor can straddle the bracket edge; accept when an
            # in-bracket grid point is statistically tied with the minimum.
            tied = []
            for c2 in grid:
                if not lo <= c2 <= hi:
                    continue
                diff = tv[("TwoRate", c2)] - best
                se = diff.std(ddof=1) / math.sqrt(len(diff)) if diff.std() > 0 else 0.0
                tied.append(diff.mean() <= 2.0 * se)
            assert any(tied), f"eps_n={eps_n}: no in-bracket rate ties the minimum"
            where = "bracket ties minimum"
        details.append(f"eps{eps_n:g}: gap {gap.mean() / gap_se:.1f}se, {where}")
    report(9, "c2-sweep-shape", True, "; ".join(details))


def test_criterion_10_convergence_rate(run_whole):
    lam, T, d, trials = 1.0, 2000, 5, 80
    obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
    mu = np.zeros(d)
    mu[0] = 0.3
    w_star = mu / lam
    errs = []
    times = None
    for trial in range(trials):
        rng = np.random.default_rng(10_500 + trial)
        X = mu + rng.standard_normal((T, d)) / math.sqrt(d)
        ds = Dataset(X, np.ones(T))
        oracle = GradientOracle(OracleSpec("clean", budget=T, rng_seed=20_500 + trial), obj, ds)
        traj = run_whole((("a", 1.0 / lam),), {"a": oracle},
                         snapshot_stride=5)[0]
        if times is None:
            times = np.array([t for t, _ in traj.iterates])
        errs.append([float(np.sum((w - w_star) ** 2)) for _, w in traj.iterates])
    mean_err = np.mean(errs, axis=0)
    keep = times >= T // 10
    slope = float(np.polyfit(np.log(times[keep]), np.log(mean_err[keep]), 1)[0])
    report(10, "convergence-rate", -1.3 <= slope <= -0.7, f"log-log slope {slope:.3f}")


def test_criterion_11_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_strategy_comparison(strategy_cmp_config(out_a))
    run_strategy_comparison(strategy_cmp_config(out_b))
    names = sorted(p.name for p in out_a.glob("*.csv"))
    assert "results.csv" in names and any(n.startswith("plot_") for n in names)
    assert names == sorted(p.name for p in out_b.glob("*.csv"))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
            f"{name} differs between identically-seeded executions"
    rows = read_csv_rows(out_a / "results.csv")
    assert len(rows) == 30  # 5 strategies x 6 sweep points
    report(11, "determinism", True, f"{len(names)} CSV files byte-identical")
