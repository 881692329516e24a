import dataclasses
import hashlib
import itertools
import logging
import math
import warnings

import numpy as np
import pytest

from hetsgd.oracles import NoiseLevel, dp_noise_level, rcn_noise_level
from hetsgd.ordering import noise_weights
from hetsgd.rates import (_INVPHI, BRANCH_TOL, C2_DOMAIN_HI, C2_DOMAIN_LO, GOLDEN_REL_TOL,
                          GRID_POINTS, BoundInputs, DomainError, PreconditionViolated,
                          RateSelection, _bound_evaluator, _search_grid, c2_bracket,
                          clean_first_constant, clean_first_rate_interval,
                          golden_section, minimize_phase2_rate, minimize_single_rate,
                          noisy_first_constant, noisy_first_rate_interval, select_rates,
                          two_phase_bound)


def random_inputs(rng):
    lam = 10.0 ** rng.uniform(-3, 0)
    g1 = rng.uniform(1.0, 100.0)
    g2 = rng.uniform(1.0, 3000.0)
    beta1 = rng.uniform(0.05, 0.95)
    T = int(rng.integers(10, 100_000))
    return BoundInputs(g1, g2, beta1, lam, T)


class TestTwoPhaseBound:
    def test_homogeneous_case_at_critical_rates(self):
        # Equal noise and c1 = c2 = 1/lam collapse to 4*Gamma^2/(lam^2 T).
        for lam, g, beta, T in ((0.5, 7.0, 0.3, 100), (0.01, 40.0, 0.8, 5000)):
            inputs = BoundInputs(g, g, beta, lam, T)
            val = two_phase_bound(inputs, 1.0 / lam, 1.0 / lam)
            assert val == pytest.approx(4.0 * g / (lam ** 2 * T), rel=1e-12)

    def test_matches_independent_evaluation(self):
        # Same formula written out term by term with plain floats.
        lam, T = 0.001, 10_000
        inputs = BoundInputs(17.0, 2604.0, 0.1, lam, T)
        c1 = c2 = 1000.0
        exponent = 2.0 * lam * c2 - 1.0
        term1 = 4.0 * 17.0 * math.pow(0.1, exponent) * c1 * c1 / (T * (2.0 * lam * c1 - 1.0))
        term2 = 4.0 * 2604.0 * (1.0 - math.pow(0.1, exponent)) * c2 * c2 / (T * exponent)
        independent = term1 + term2
        val = two_phase_bound(inputs, c1, c2)
        assert val == pytest.approx(independent, rel=1e-10)
        assert val == pytest.approx(938120.0, rel=1e-10)

    def test_precondition(self):
        inputs = BoundInputs(1.0, 1.0, 0.5, 1.0, 10)
        with pytest.raises(PreconditionViolated):
            two_phase_bound(inputs, 0.5, 1.0)
        with pytest.raises(ValueError):
            two_phase_bound(inputs, 1.0, -1.0)
        # The scalar and the array branch reject the same points.
        for wrap in (float, lambda c: np.array([c])):
            for c1 in (0.5, 0.5 - 1e-12, 0.0, -1.0):
                with pytest.raises(PreconditionViolated):
                    two_phase_bound(inputs, wrap(c1), wrap(1.0))
            for c2 in (0.0, -0.0, -1.0):
                with pytest.raises(ValueError, match="c2"):
                    two_phase_bound(inputs, wrap(1.0), wrap(c2))

    def test_nan_inputs_rejected(self):
        nan = float("nan")
        for args in ((nan, 1.0, 0.5, 1.0, 10), (1.0, nan, 0.5, 1.0, 10),
                     (1.0, 1.0, nan, 1.0, 10), (1.0, 1.0, 0.5, nan, 10)):
            with pytest.raises(ValueError):
                BoundInputs(*args)
        inputs = BoundInputs(1.0, 1.0, 0.5, 1.0, 10)
        with pytest.raises(ValueError, match="c2"):
            two_phase_bound(inputs, 1.0, nan)
        with pytest.raises(ValueError, match="c2"):
            two_phase_bound(inputs, 1.0, np.array([1.0, nan]))
        with pytest.raises(PreconditionViolated):
            two_phase_bound(inputs, nan, 1.0)
        with pytest.raises(PreconditionViolated):
            two_phase_bound(inputs, nan, nan)

    @pytest.mark.parametrize("args", [(math.inf, 1.0, 0.5, 1.0, 10), (1.0, math.inf, 0.5, 1.0, 10),
                                      (-math.inf, 1.0, 0.5, 1.0, 10), (1.0, 1.0, 0.5, math.inf, 10)])
    def test_infinite_inputs_rejected(self, args):
        with pytest.raises(ValueError, match=r"^(gamma1_sq|gamma2_sq|lam) must be a number in "
                                             r"\(0, inf\), got -?inf"):
            BoundInputs(*args)

    @pytest.mark.parametrize("T", [1.5, 10.0, 0, -3, True])
    def test_non_integer_or_nonpositive_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="^T must be an integer >= 1"):
            BoundInputs(1.0, 1.0, 0.5, 1.0, T)
        BoundInputs(1.0, 1.0, 0.5, 1.0, np.int64(10))

    def test_infinite_rates_rejected_by_both_branches(self):
        # An infinite rate, and a finite one whose product 2*lam*c overflows (1e308 at
        # lam=1), are rejected before any array product can overflow.
        for lam, big in ((0.01, math.inf), (1.0, 1e308)):
            inputs = BoundInputs(3.0, 50.0, 0.3, lam, 1)
            for wrap in (float, lambda c: np.array([100.0, c])):
                with np.errstate(all="raise"):
                    with pytest.raises(ValueError, match="c1 must be finite"):
                        two_phase_bound(inputs, wrap(big), wrap(100.0))
                    with pytest.raises(ValueError, match="c2 must be finite"):
                        two_phase_bound(inputs, wrap(100.0), wrap(big))

    def test_an_overflowing_bound_rejected_by_both_branches(self):
        # 2*lam*c1 is finite, but c1*c1 overflows in the first term.
        inputs = BoundInputs(3.0, 50.0, 0.3, 1.0, 1)
        for wrap in (float, lambda c: np.array([c])):
            with np.errstate(all="raise"):
                with pytest.raises(ValueError, match="overflows"):
                    two_phase_bound(inputs, wrap(1e160), wrap(0.6))

    def test_numpy_float_inputs_take_the_plain_float_branch(self):
        # A numpy-float field must not turn the scalar branch into numpy-scalar arithmetic,
        # which warns on overflow (an error here) before the ValueError can be raised.
        inputs = BoundInputs(np.float64(3.0), 50.0, 0.3, 1.0, 1)
        assert all(type(v) is float for v in (inputs.gamma1_sq, inputs.gamma2_sq,
                                              inputs.beta1, inputs.lam))
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="overflows"):
                two_phase_bound(inputs, 1e160, 0.6)
            with pytest.raises(ValueError, match="c1 must be finite"):
                two_phase_bound(BoundInputs(3.0, 50.0, 0.3, np.float64(1.0), 1), 1e308, 100.0)

    def test_array_rates_match_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(11)
        offsets = np.concatenate([[1e-11, 1e-10, 5e-10, 1e-9, 2e-9, 1e-6],
                                  np.geomspace(1e-3, 1e3, 60)])
        for _ in range(20):
            inputs = random_inputs(rng)
            # c1 = c2 = c, from inside the limit branch at 2*lam*c = 1 to far outside it.
            grid = (1.0 + offsets) / (2.0 * inputs.lam)
            at_limit = np.abs(2.0 * inputs.lam * grid - 1.0) <= BRANCH_TOL
            assert at_limit.any() and not at_limit.all()
            values = two_phase_bound(inputs, grid, grid)
            assert list(values) == [two_phase_bound(inputs, c, c) for c in grid]
            # c1 pinned at 1/lam, as in the phase-2 minimiser; plain-float rates.
            c1 = 1.0 / inputs.lam
            values = two_phase_bound(inputs, c1, grid)
            assert list(values) == [two_phase_bound(inputs, c1, float(c)) for c in grid]

    def test_array_c1_precondition_checked_on_every_entry(self):
        inputs = BoundInputs(1.0, 1.0, 0.5, 1.0, 10)
        with pytest.raises(PreconditionViolated):
            two_phase_bound(inputs, np.array([1.0, 2.0, 0.5, 3.0]), 1.0)
        with pytest.raises(PreconditionViolated):
            two_phase_bound(inputs, np.array([1.0, np.nan]), 1.0)

    def test_scalar_rates_return_a_float(self):
        inputs = BoundInputs(1.0, 2.0, 0.5, 1.0, 10)
        assert type(two_phase_bound(inputs, 1.0, 1.5)) is float
        assert type(two_phase_bound(inputs, np.float64(1.0), np.float64(0.5))) is float
        assert two_phase_bound(inputs, 2, 1) == two_phase_bound(inputs, 2.0, 1.0)
        numpy_inputs = BoundInputs(np.float64(1.0), np.float64(2.0), 0.5, np.float64(1.0), 10)
        assert type(two_phase_bound(numpy_inputs, 1.0, 1.5)) is float

    def test_two_sided_convergence_to_limit_branch(self):
        # Approaching 2*lam*c2 = 1 the generic branch converges linearly to the
        # limit form; the gap is O(offset * log(1/beta)).
        inputs = BoundInputs(17.0, 2604.0, 0.1, 0.001, 10_000)
        lam = inputs.lam

        def limit_form(c2):
            t1 = 4.0 * inputs.gamma1_sq * (1.0 / lam) ** 2 / (inputs.T * 1.0)
            t2 = 4.0 * inputs.gamma2_sq * c2 * c2 * math.log(1.0 / inputs.beta1) / inputs.T
            return t1 + t2

        gaps = []
        for offset in (1e-4, 1e-5, 1e-6, 1e-7):
            rel = []
            for sign in (+1, -1):
                c2 = (1.0 + sign * offset) / (2.0 * lam)
                ref = limit_form(c2)
                rel.append(abs(two_phase_bound(inputs, 1.0 / lam, c2) - ref) / ref)
            gaps.append(max(rel))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))  # shrinks with the offset
        assert gaps[-1] < 1e-6

    def test_limit_branch_used_inside_tolerance(self):
        inputs = BoundInputs(5.0, 9.0, 0.4, 2.0, 50)
        lam = 2.0
        exact_limit = 4.0 * 5.0 * (1 / lam) ** 2 / 50 \
            + 4.0 * 9.0 * (0.5 / lam) ** 2 * math.log(1 / 0.4) / 50
        assert two_phase_bound(inputs, 1 / lam, 0.5 / lam) == pytest.approx(exact_limit, rel=1e-12)


class TestLeadingConstants:
    def test_homogeneous_value(self):
        lam, g = 0.2, 11.0
        assert clean_first_constant(1 / lam, g, g, 0.3, lam) == pytest.approx(4 * g / lam ** 2, rel=1e-12)

    def test_identity_with_scaled_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            inputs = random_inputs(rng)
            c = 10.0 ** rng.uniform(-5, 2.5) / inputs.lam
            h = clean_first_constant(c, inputs.gamma1_sq, inputs.gamma2_sq,
                                     inputs.beta1, inputs.lam)
            scaled = inputs.T * two_phase_bound(inputs, 1.0 / inputs.lam, c)
            assert scaled == pytest.approx(h, rel=1e-12)

    def test_noisy_first_is_role_swap(self):
        gc, gn, beta_c, lam = 3.0, 80.0, 0.25, 0.5
        beta_n = 1 - beta_c
        for c in (0.1, 1.0, 5.0, 40.0):
            assert noisy_first_constant(c, gc, gn, beta_n, lam) == pytest.approx(
                clean_first_constant(c, gn, gc, beta_n, lam), rel=1e-15)


class TestBoundEvaluator:
    """The scalar evaluator the searches call gives two_phase_bound's array bits."""

    @staticmethod
    def rates_around_the_limit(lam):
        # Rates 20 ulps either side of 2*lam*c = 1 and of 2*lam*c = 1 +- BRANCH_TOL,
        # plus a log grid far from the limit.
        points = []
        for k in (1.0 - BRANCH_TOL, 1.0, 1.0 + BRANCH_TOL):
            c = k / (2.0 * lam)
            points += [c + i * math.ulp(c) for i in range(-20, 21)]
        return np.array(points + list(np.geomspace(1e-3, 1e3, 40) / lam))

    def test_phase2_form_matches_the_array_path(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            inputs = random_inputs(rng)
            grid = self.rates_around_the_limit(inputs.lam)
            at_limit = np.abs(2.0 * inputs.lam * grid - 1.0) <= BRANCH_TOL
            assert at_limit.any() and not at_limit.all()
            for c1 in (1.0 / inputs.lam, rng.uniform(0.6, 50.0) / inputs.lam):
                bound = _bound_evaluator(inputs, c1)
                assert [bound(float(c)) for c in grid] == list(two_phase_bound(inputs, c1, grid))

    def test_single_rate_form_matches_the_array_path(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            inputs = random_inputs(rng)
            grid = self.rates_around_the_limit(inputs.lam)
            grid = grid[2.0 * inputs.lam * grid > 1.0]       # the shared rate's precondition
            at_limit = np.abs(2.0 * inputs.lam * grid - 1.0) <= BRANCH_TOL
            assert at_limit.any() and not at_limit.all()
            bound = _bound_evaluator(inputs, None)
            assert [bound(float(c)) for c in grid] == list(two_phase_bound(inputs, grid, grid))

    def test_an_overflowing_bound_still_raises(self):
        inputs = BoundInputs(3.0, 50.0, 0.3, 1.0, 1)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(ValueError, match="overflows"):
                _bound_evaluator(inputs, 1e160)(0.6)
            with pytest.raises(ValueError, match="overflows"):
                _bound_evaluator(inputs, None)(1e160)


@pytest.mark.parametrize("call,named", [
    (lambda: dp_noise_level(True, 10, 1), "epsilon"),
    (lambda: rcn_noise_level(False), "sigma"),
    (lambda: BoundInputs(True, 2.0, 0.5, 1.0, 10), "gamma1_sq"),
    (lambda: BoundInputs(1.0, np.True_, 0.5, 1.0, 10), "gamma2_sq"),
    (lambda: BoundInputs(1.0, 2.0, 0.5, True, 10), "lam"),
    (lambda: two_phase_bound(BoundInputs(1.0, 2.0, 0.5, 1.0, 10), True, 2.0), "c1"),
    (lambda: two_phase_bound(BoundInputs(1.0, 2.0, 0.5, 1.0, 10), 2.0, np.True_), "c2"),
    (lambda: two_phase_bound(BoundInputs(1.0, 2.0, 0.5, 1.0, 10), 2.0,
                             np.array([True, True])), "c2"),
    (lambda: noise_weights(True, 1.0, 5), "c"),
    (lambda: noise_weights(1.0, True, 5), "lam"),
    (lambda: noisy_first_rate_interval(1.0, 4.0, 0.3, True), "lam"),
    (lambda: clean_first_rate_interval(True, 4.0, 0.3), "gamma_c_sq"),
    (lambda: clean_first_constant(2.0, 1.0, 4.0, 0.3, True), "lam"),
    (lambda: noisy_first_constant(2.0, True, 4.0, 0.7, 1.0), "gamma_c_sq"),
], ids=["dp_epsilon", "rcn_sigma", "inputs_gamma1", "inputs_gamma2_numpy", "inputs_lam",
        "bound_c1", "bound_c2_numpy", "bound_c2_array", "weights_c", "weights_lam",
        "noisy_interval_lam", "clean_interval_gamma", "constant_lam", "noisy_constant_gamma"])
def test_a_bool_planning_number_is_rejected(call, named):
    # float() and numpy read True as 1.0, so each of these used to return a plausible number.
    with pytest.raises(ValueError, match=f"^{named} must be a number, not a bool"):
        call()


class TestGoldenSection:
    def test_simple_quadratic(self):
        x, fx = golden_section(lambda x: (x - 2.3) ** 2, 0.0, 5.0)
        assert x == pytest.approx(2.3, abs=1e-6)


def sequential_golden_section(f, lo, hi):
    """The textbook one-point-at-a-time search, kept verbatim as the reference."""
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi < best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > GOLDEN_REL_TOL * max(abs(a), abs(b), 1e-300):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        for x, fx in ((x1, f1), (x2, f2)):
            if fx < best_f:
                best_x, best_f = x, fx
    return best_x, best_f


def reference_minimize(f, grid, values):
    """Grid then sequential refinement; f evaluates one point through the array branch."""
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    x, fx = sequential_golden_section(f, lo, hi)
    if values[i] < fx:
        return float(grid[i]), float(values[i])
    return float(x), float(fx)


def reference_phase2_rate(inputs):
    lam = inputs.lam
    grid = np.geomspace(C2_DOMAIN_LO / lam, C2_DOMAIN_HI / lam, GRID_POINTS)
    values = two_phase_bound(inputs, 1.0 / lam, grid)
    return reference_minimize(lambda c: two_phase_bound(inputs, 1.0 / lam, np.array([c]))[0],
                              grid, values)


def reference_single_rate(inputs):
    lam = inputs.lam
    grid = np.geomspace((1.0 + 1e-9) / (2.0 * lam), C2_DOMAIN_HI / lam, GRID_POINTS)
    values = two_phase_bound(inputs, grid, grid)
    return reference_minimize(
        lambda c: two_phase_bound(inputs, np.array([c]), np.array([c]))[0], grid, values)


class TestLookahead:
    def test_minimizers_match_the_sequential_search(self):
        # The minimisers refine with scalar bound calls, the reference with
        # one-point array calls: the two branches agree through the whole walk.
        rng = np.random.default_rng(29)
        cases = [random_inputs(rng) for _ in range(200)]
        assert [minimize_phase2_rate(inputs) for inputs in cases] == \
            [reference_phase2_rate(inputs) for inputs in cases]
        assert [minimize_single_rate(inputs) for inputs in cases] == \
            [reference_single_rate(inputs) for inputs in cases]

    def test_public_search_calls_f_at_the_sequential_points(self):
        for f in (lambda x: (x - 1.3) ** 2, lambda x: math.sin(3.0 * x) + 0.1 * x,
                  lambda x: abs(x - 0.25)):
            seen = {"ref": [], "new": []}

            def logged(key):
                return lambda x: seen[key].append(x) or f(x)

            ref = sequential_golden_section(logged("ref"), 0.0, 4.0)
            new = golden_section(logged("new"), 0.0, 4.0)
            assert new == ref
            assert seen["new"] == seen["ref"]


# Inputs and digest of the planning floats: a faster planner must give the same bits.
PINNED_NOISE_PAIRS = (
    (dp_noise_level(10.0, 10), dp_noise_level(1.0, 10)),
    (dp_noise_level(10.0, 54, 50), dp_noise_level(2.0, 54, 50)),
    (dp_noise_level(8.0, 25), dp_noise_level(0.5, 25)),
    (rcn_noise_level(0.1), rcn_noise_level(0.4)),
)
PINNED_PLANNING_DIGEST = "451dab2a7c31f10f761d640fc5dc924d837661d1274294e81196c2efe31065bf"


def test_planning_floats_are_pinned():
    reprs = []
    for (clean, noisy), lam, beta_c in itertools.product(PINNED_NOISE_PAIRS, (1e-4, 1e-2, 0.5),
                                                         (0.1, 0.45)):
        gc, gn = clean.gamma_sq, noisy.gamma_sq
        reprs += [repr(select_rates(gc, gn, beta_c, lam).to_dict()),
                  repr(minimize_single_rate(BoundInputs(gc, gn, beta_c, lam, T=1))),
                  repr(minimize_single_rate(BoundInputs(gn, gc, 1.0 - beta_c, lam, T=1))),
                  repr(c2_bracket(clean, noisy, beta_c, lam))]
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == PINNED_PLANNING_DIGEST


class TestMinimizers:
    def test_equal_noise_recovers_critical_rate(self):
        for lam in (0.001, 0.05, 1.0):
            inputs = BoundInputs(25.0, 25.0, 0.3, lam, 1)
            c2, _ = minimize_phase2_rate(inputs)
            assert c2 == pytest.approx(1.0 / lam, rel=1e-6)

    def test_matches_fine_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inputs = random_inputs(rng)
            c2, val = minimize_phase2_rate(inputs)
            grid = np.geomspace(1e-6 / inputs.lam, 1e3 / inputs.lam, 1_000_000)
            vals = two_phase_bound(inputs, 1.0 / inputs.lam, grid)
            i = int(np.argmin(vals))
            # Same local minimum as the exhaustive grid, to grid resolution.
            spacing = grid[1] / grid[0] - 1.0
            assert abs(c2 - grid[i]) <= 3 * spacing * grid[i]
            assert val <= vals[i] * (1 + 1e-10)

    def test_boundary_hit_warns(self, caplog):
        # Tiny gamma2 pushes the optimum toward the c2 -> 0 boundary.
        inputs = BoundInputs(1.0, 1e9, 0.9, 1.0, 1)
        with caplog.at_level(logging.WARNING, logger="hetsgd.rates"):
            minimize_phase2_rate(inputs)
        assert any("boundary" in rec.message for rec in caplog.records)

    def test_single_rate_respects_precondition(self):
        inputs = BoundInputs(4.0, 60.0, 0.2, 0.5, 1)
        c, val = minimize_single_rate(inputs)
        assert 2 * inputs.lam * c > 1.0
        assert val == pytest.approx(two_phase_bound(inputs, c, c), rel=1e-12)


class TestSearchGrids:
    """The minimisers' own grids and their unchecked evaluation."""

    # A log spread over the lam the searches accept: 2*lam*c stays finite up to 1e3/lam.
    LAMS = [float(x) for x in np.geomspace(1e-305, 8e307, 241)] + [1e-3, 1e-2, 0.5]

    @pytest.mark.parametrize("shared", [False, True], ids=["c2", "shared"])
    def test_each_grid_is_geomspace_bit_for_bit(self, shared):
        for lam in self.LAMS:
            lo = (1.0 + 1e-9) / (2.0 * lam) if shared else C2_DOMAIN_LO / lam
            expected = np.geomspace(lo, C2_DOMAIN_HI / lam, GRID_POINTS)
            assert _search_grid(lam, shared).tobytes() == expected.tobytes(), lam

    @pytest.mark.parametrize("search", [
        lambda gc, gn, lam: minimize_phase2_rate(BoundInputs(gc, gn, 0.3, lam, 1)),
        lambda gc, gn, lam: minimize_single_rate(BoundInputs(gc, gn, 0.3, lam, 1)),
        lambda gc, gn, lam: select_rates(gc, gn, 0.3, lam),
    ], ids=["phase2", "single", "select"])
    def test_an_overflowing_bound_on_the_grid_raises_without_a_warning(self, search):
        for lam in (1e-3, 1e-2, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="overflows"):
                    search(1e306, 1e306, lam)

    @pytest.mark.parametrize("search", [
        lambda lam: minimize_phase2_rate(BoundInputs(3.0, 50.0, 0.3, lam, 1)),
        lambda lam: minimize_single_rate(BoundInputs(3.0, 50.0, 0.3, lam, 1)),
        lambda lam: select_rates(3.0, 50.0, 0.3, lam),
    ], ids=["phase2", "single", "select"])
    def test_a_lam_whose_grid_overflows_is_refused_before_the_search(self, search):
        # Unchecked, lam = 1e308 made 2*lam*c infinite on the whole grid, where the bound
        # reads 0; a subnormal lam made 1e3/lam infinite and the grid NaN.
        for lam in (5e-324, 1e-307, 1e308, 1.7e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^2\*lam\*c must be finite on the rate "):
                    search(lam)


class TestSelectRates:
    def test_tie_breaks_clean_first(self):
        sel = select_rates(10.0, 10.0, 0.5, 0.1)
        assert sel.order == "clean_first"
        assert sel.c1 == pytest.approx(10.0)
        assert sel.clean_first_value == pytest.approx(sel.noisy_first_value, rel=1e-9)

    def test_dominates_single_rate_and_clean_only(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = 10.0 ** rng.uniform(-3, 0)
            gc = rng.uniform(1.0, 50.0)
            gn = gc * 10.0 ** rng.uniform(0.0, 4.0)
            beta_c = rng.uniform(0.05, 0.95)
            sel = select_rates(gc, gn, beta_c, lam)
            single_cn, _ = minimize_single_rate(BoundInputs(gc, gn, beta_c, lam, 1))
            single_nc, _ = minimize_single_rate(BoundInputs(gn, gc, 1 - beta_c, lam, 1))
            v_cn = two_phase_bound(BoundInputs(gc, gn, beta_c, lam, 1), single_cn, single_cn)
            v_nc = two_phase_bound(BoundInputs(gn, gc, 1 - beta_c, lam, 1), single_nc, single_nc)
            assert sel.bound_value <= min(v_cn, v_nc) * (1 + 1e-9)
            clean_only = (4 * gc / (lam ** 2 * beta_c) if sel.order == "clean_first"
                          else 4 * gn / (lam ** 2 * (1 - beta_c)))
            assert sel.bound_value <= clean_only * (1 + 1e-4)

    def test_regression_pinned_dp_selection(self):
        gc = dp_noise_level(10.0, 25, 50).gamma_sq
        gn = dp_noise_level(2.0, 25, 50).gamma_sq
        assert (gc, gn) == (pytest.approx(4.52), pytest.approx(17.0))
        sel = select_rates(gc, gn, 0.1, 0.001)
        assert sel.order == "noisy_first"
        assert sel.c2 == pytest.approx(3278.1690387538, rel=1e-6)
        assert sel.bound_value == pytest.approx(53362677.5696684, rel=1e-6)
        assert sel.clean_first_value == pytest.approx(56564502.4750711, rel=1e-6)

    @pytest.mark.parametrize("args", [(float("nan"), 5.0, 0.3, 0.01),
                                      (1.0, float("nan"), 0.3, 0.01),
                                      (1.0, 5.0, 0.3, float("nan"))])
    def test_nan_input_raises(self, args):
        with pytest.raises(ValueError):
            select_rates(*args)

    @pytest.mark.parametrize("args", [(3.0, math.inf, 0.3, 0.01), (math.inf, 5.0, 0.3, 0.01),
                                      (3.0, 5.0, 0.3, math.inf)])
    def test_infinite_input_raises_before_searching(self, args, caplog):
        with caplog.at_level(logging.WARNING, logger="hetsgd.rates"):
            with pytest.raises(ValueError, match=r"^(gamma_c_sq|gamma_n_sq|lam) must be a number "
                                                 r"in \(0, inf\), got inf"):
                select_rates(*args)
        assert not caplog.records

    def test_to_dict_roundtrips(self):
        sel = select_rates(5.0, 50.0, 0.2, 0.1)
        d = sel.to_dict()
        assert d["order"] == sel.order and d["c2"] == sel.c2

    def test_to_dict_is_asdict_and_a_fresh_dict_each_call(self):
        sel = select_rates(5.0, 50.0, 0.2, 0.1)
        d = sel.to_dict()
        assert d == dataclasses.asdict(sel)
        assert repr(d) == repr(dataclasses.asdict(sel))     # the same keys in the same order
        assert d is not sel.to_dict()
        d["c2"], d["extra"] = -1.0, 1
        assert sel.c2 != -1.0 and not hasattr(sel, "extra")
        assert sel.to_dict() == dataclasses.asdict(sel)


class TestRateIntervals:
    def test_noisy_first_interval_values(self):
        iv = noisy_first_rate_interval(1.0, 1e4, 0.9, 1.0)
        assert iv.lo == pytest.approx(67.0586463649, rel=1e-9)
        assert iv.hi == pytest.approx(93.3739002807, rel=1e-9)
        assert iv.loglog_negative  # log(1/0.9) < 1
        assert iv.regime == "noisy_first"

    def test_noisy_first_interval_width(self):
        for beta_n in (0.2, 0.5, 0.9):
            iv = noisy_first_rate_interval(1.0, 400.0, beta_n, 0.5)
            assert iv.hi - iv.lo == pytest.approx(2 * math.log(4.0) / math.log(1 / beta_n), rel=1e-9)
            assert iv.lo < iv.hi

    @pytest.mark.parametrize("beta_n", [0.5, 0.9])
    def test_noisy_first_bracket_contains_minimizer(self, beta_n):
        gc, gn, lam = 1.0, 1e4, 1.0  # ratio 100
        iv = noisy_first_rate_interval(gc, gn, beta_n, lam)
        c2, _ = minimize_phase2_rate(BoundInputs(gn, gc, beta_n, lam, 1))
        assert iv.lo <= 2 * lam * c2 <= iv.hi

    def test_clean_first_interval_values(self):
        iv = clean_first_rate_interval(1.0, 100.0, 0.1)
        assert iv.lo == pytest.approx(0.01)
        assert iv.hi == pytest.approx(0.8)
        assert not iv.loglog_negative

    def test_clean_first_interval_shrinks_with_ratio(self):
        widths = [clean_first_rate_interval(1.0, r, 0.3).hi for r in (10.0, 1e3, 1e5)]
        assert widths[0] > widths[1] > widths[2]

    @pytest.mark.parametrize("ratio_sq", [100.0, 10_000.0])
    @pytest.mark.parametrize("beta_c", [0.1, 0.5])
    def test_clean_first_bracket_contains_minimizer(self, ratio_sq, beta_c):
        lam = 1.0
        iv = clean_first_rate_interval(1.0, ratio_sq, beta_c)
        c2, _ = minimize_phase2_rate(BoundInputs(1.0, ratio_sq, beta_c, lam, 1))
        assert iv.lo <= 2 * lam * c2 <= iv.hi

    @pytest.mark.parametrize("args,named", [
        ((4.0, math.nan, 0.1), "gamma_n_sq=nan"), ((4.0, math.inf, 0.1), "gamma_n_sq=inf"),
        ((math.nan, 5.0, 0.1), "gamma_c_sq=nan"), ((0.0, 5.0, 0.1), "gamma_c_sq=0.0"),
        ((math.inf, math.inf, 0.1), "gamma_c_sq=inf")])
    def test_clean_first_interval_rejects_bad_noise_levels(self, args, named):
        # Each once returned a NaN bracket, or [0, 0].
        with pytest.raises(ValueError, match="^" + named.replace("=", " must .*got ")):
            clean_first_rate_interval(*args)

    @pytest.mark.parametrize("args,named", [
        ((math.nan, 5.0, 0.9, 1e-3), "gamma_c_sq=nan"), ((0.0, 5.0, 0.9, 1e-3), "gamma_c_sq=0.0"),
        ((4.0, math.nan, 0.9, 1e-3), "gamma_n_sq=nan"), ((4.0, 5.0, 0.9, math.nan), "lam .*nan"),
        ((4.0, 5.0, 0.9, math.inf), "lam .*inf"), ((4.0, 5.0, 0.9, 0.0), "lam .*0.0")])
    def test_noisy_first_interval_rejects_bad_inputs(self, args, named):
        with pytest.raises(ValueError, match="^" + named.replace("=", " must .*got ")):
            noisy_first_rate_interval(*args)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            noisy_first_rate_interval(4.0, 2.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            noisy_first_rate_interval(1.0, 4.0, 1.2, 1.0)
        with pytest.raises(DomainError):
            clean_first_rate_interval(1.0, 4.0, 0.0)


class TestIntervalSearch:
    def test_bracket_keeps_one_data_order(self):
        # Independent selections pick noisy-first at the upper noise levels
        # (c2 ~ 1394) and clean-first at the lower ones (c2 ~ 67.6); the
        # bracket must stay on the noisy-first curve.
        lam, beta_c = 1e-3, 0.3
        level_c, level_n = dp_noise_level(10.0, 10, 50), dp_noise_level(2.0, 10, 50)
        upper = select_rates(level_c.gamma_sq, level_n.gamma_sq, beta_c, lam)
        lower = select_rates(level_c.gamma_sq_lower, level_n.gamma_sq_lower, beta_c, lam)
        assert (upper.order, lower.order) == ("noisy_first", "clean_first")
        assert upper.c2 == pytest.approx(1394, rel=1e-3)
        assert lower.c2 == pytest.approx(67.6, rel=1e-3)

        bracket = c2_bracket(level_c, level_n, beta_c, lam)
        nf_lower, _ = minimize_phase2_rate(
            BoundInputs(level_n.gamma_sq_lower, level_c.gamma_sq_lower, 1 - beta_c, lam, 1))
        assert (bracket.order, bracket.c2_upper, bracket.c2_lower) == \
            ("noisy_first", upper.c2, nf_lower)
        assert nf_lower > 10 * lower.c2

    def test_inverted_bounds_unrepresentable(self):
        # The NoiseLevel invariant already rejects lower > upper.
        with pytest.raises(ValueError):
            NoiseLevel(5.0, 6.0)
