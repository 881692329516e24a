import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from hetsgd.core import (Dataset, ObjectiveSpec, full_objective, gradient_scales, loss_gradient,
                         loss_values, margins, mean_loss_gradient, project)
from hetsgd.oracles import rcn_scales


def spec(loss, lam=1.0, radius=None):
    return ObjectiveSpec(lam=lam, loss=loss, radius=radius)


class TestLossValue:
    def test_logistic_at_zero_weight(self):
        w, sp = np.zeros(3), spec("logistic")
        assert loss_values(sp, w, np.array([0.2, -0.4, 0.1]), 1.0)[0] == pytest.approx(np.log(2))
        assert loss_values(sp, w, np.array([0.9, 0.0, 0.0]), -1.0)[0] == pytest.approx(np.log(2))

    def test_hinge_at_zero_weight(self):
        w = np.zeros(2)
        assert loss_values(spec("hinge"), w, np.array([0.3, 0.3]), -1.0)[0] == pytest.approx(1.0)

    def test_linear_direct(self):
        w = np.array([1.0, 0.0])
        assert loss_values(spec("linear"), w, np.array([0.5, 0.5]), 1.0)[0] == pytest.approx(-0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            loss_values(spec("logistic"), np.zeros(3), np.zeros(2), 1.0)


class TestLossGradient:
    def test_logistic_at_zero_weight(self):
        g = loss_gradient(spec("logistic"), np.zeros(2), np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(g, [-0.5, 0.0])

    def test_hinge_outside_margin(self):
        w = np.array([2.0, 0.0])
        g = loss_gradient(spec("hinge"), w, np.array([1.0, 0.0]), 1.0)  # margin 2
        np.testing.assert_allclose(g, [0.0, 0.0])

    def test_hinge_kink_uses_active_branch(self):
        w = np.array([1.0, 0.0])
        g = loss_gradient(spec("hinge"), w, np.array([1.0, 0.5]), 1.0)  # margin exactly 1
        np.testing.assert_allclose(g, [-1.0, -0.5])

    @pytest.mark.parametrize("loss", ["logistic", "hinge", "linear"])
    def test_matches_finite_differences(self, loss):
        rng = np.random.default_rng(1234)
        sp = spec(loss)
        step = 1e-5
        checked = 0
        while checked < 40:
            d = int(rng.integers(2, 8))
            w = rng.standard_normal(d)
            x = rng.standard_normal(d)
            x /= max(1.0, np.linalg.norm(x))
            y = 1.0 if rng.random() < 0.5 else -1.0
            if loss == "hinge" and abs(y * (w @ x) - 1.0) < 1e-2:
                continue  # stay away from the kink
            g = loss_gradient(sp, w, x, y)
            fd = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = step
                fd[i] = (loss_values(sp, w + e, x, y) - loss_values(sp, w - e, x, y))[0] / (2 * step)
            scale = max(np.linalg.norm(g), 1e-3)
            np.testing.assert_allclose(g, fd, atol=1e-5 * scale, rtol=1e-5)
            checked += 1

    def test_logistic_gradient_norm_bounded_by_feature_norm(self):
        rng = np.random.default_rng(7)
        sp = spec("logistic")
        for _ in range(100):
            d = int(rng.integers(1, 10))
            w = rng.standard_normal(d) * 3
            x = rng.standard_normal(d)
            x /= max(1.0, np.linalg.norm(x))
            y = 1.0 if rng.random() < 0.5 else -1.0
            norm_x = np.linalg.norm(x)
            assert np.linalg.norm(loss_gradient(sp, w, x, y)) <= norm_x + 1e-12
            assert norm_x <= 1 + 1e-9


class TestFullObjective:
    def test_zero_weight_logistic(self):
        X = np.random.default_rng(0).standard_normal((5, 3)) * 0.3
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        assert full_objective(spec("logistic"), np.zeros(3), X, y) == pytest.approx(np.log(2))

    def test_zero_weight_hinge(self):
        X = np.random.default_rng(0).standard_normal((4, 2)) * 0.3
        y = np.array([1.0, -1.0, 1.0, -1.0])
        assert full_objective(spec("hinge"), np.zeros(2), X, y) == pytest.approx(1.0)

    def test_linear_with_cancelling_margins(self):
        # lam = 2, ||w|| = 1, margins sum to zero: objective is lam/2 = 1.
        w = np.array([1.0, 0.0])
        X = np.array([[0.5, 0.1], [-0.5, 0.2]])
        y = np.array([1.0, 1.0])
        assert full_objective(spec("linear", lam=2.0), w, X, y) == pytest.approx(1.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            full_objective(spec("logistic"), np.zeros(2), np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("y", [[3, 3], [True, False], [0.5, 0.5], np.array([1.0, 0.0])])
    def test_labels_other_than_plus_minus_one_rejected(self, y):
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            full_objective(spec("logistic"), np.zeros(2), np.eye(2), y)

    def test_dataset_objective_is_full_objective(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.standard_normal((30, 3)), np.where(rng.random(30) < 0.5, 1.0, -1.0))
        w = rng.standard_normal(3)
        for loss in ("logistic", "hinge", "linear"):
            assert ds.objective(spec(loss), w) == full_objective(spec(loss), w, ds.X, ds.y)

    def test_strong_convexity(self):
        rng = np.random.default_rng(99)
        lam = 0.7
        sp = spec("logistic", lam=lam)
        X = rng.standard_normal((20, 4))
        X /= np.linalg.norm(X, axis=1).max()
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        for _ in range(50):
            w1, w2 = rng.standard_normal(4), rng.standard_normal(4)
            a = rng.random()
            mid = full_objective(sp, a * w1 + (1 - a) * w2, X, y)
            chord = a * full_objective(sp, w1, X, y) + (1 - a) * full_objective(sp, w2, X, y)
            gap = 0.5 * lam * a * (1 - a) * np.linalg.norm(w1 - w2) ** 2
            assert mid <= chord - gap + 1e-9


class TestProject:
    def test_interior_point_unchanged(self):
        np.testing.assert_array_equal(project(np.array([3.0, 4.0]), 10.0), [3.0, 4.0])

    def test_exterior_point_scaled(self):
        np.testing.assert_allclose(project(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.floats(0.1, 20))
    def test_idempotent_and_feasible(self, vals, radius):
        w = np.asarray(vals)
        p = project(w, radius)
        assert np.linalg.norm(p) <= radius * (1 + 1e-12)
        np.testing.assert_allclose(project(p, radius), p, rtol=0, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_nonexpansive_toward_interior_points(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        radius = float(rng.uniform(0.5, 3.0))
        w = rng.standard_normal(d) * 4
        z = rng.standard_normal(d)
        z = z / max(1.0, np.linalg.norm(z) / radius)  # inside the ball
        assert np.linalg.norm(project(w, radius) - z) <= np.linalg.norm(w - z) + 1e-12

    def test_infinite_radius_is_identity(self):
        w = np.array([100.0, -200.0])
        np.testing.assert_array_equal(project(w, np.inf), w)


class TestProjectRows:
    """The matrix path's 'every row inside' decision at its edges."""

    RADIUS = 0.7

    @staticmethod
    def row(x):
        return [0.0, x, 0.0]

    @staticmethod
    def scaled(w, radius):
        return w * (radius / max(np.linalg.norm(w), radius))

    def test_rows_at_or_below_the_radius_return_the_input(self):
        r = self.RADIUS
        W = np.array([self.row(r), self.row(np.nextafter(r, 0.0)), self.row(-r), [0.0] * 3])
        before = W.tobytes()
        assert project(W, r) is W
        assert W.tobytes() == before

    def test_a_row_one_ulp_outside_is_scaled(self):
        r = self.RADIUS
        W = np.array([self.row(r), self.row(np.nextafter(r, 1.0)), [3.0, 4.0, 12.0],
                      self.row(np.nextafter(r, 0.0))])
        before = W.tobytes()
        P = project(W, r)
        assert P is not W and W.tobytes() == before
        for i in (0, 3):
            assert P[i].tobytes() == W[i].tobytes()
        for i in (1, 2):
            assert P[i].tobytes() == self.scaled(W[i], r).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_row_takes_the_scaling_path(self, bad):
        r = self.RADIUS
        W = np.array([self.row(0.5), [bad, 0.1, 0.0], self.row(r)])
        P = project(W, r)
        assert P is not W
        assert np.all(np.isnan(P[1]))
        assert P[[0, 2]].tobytes() == W[[0, 2]].tobytes()
        assert np.all(np.isnan(project(W[1], r)))

    def test_a_row_whose_squared_norm_overflows_lands_on_the_sphere(self):
        r = 1000.0
        W = np.array([[1e200, 0.0], [3.0e3, 4.0e3], [-1.7e308, 1.7e308], [0.3, 0.4]])
        P = project(W, r)
        assert P[1].tobytes() == self.scaled(W[1], r).tobytes()
        assert P[3].tobytes() == W[3].tobytes()
        np.testing.assert_array_equal(P[0], [r, 0.0])
        np.testing.assert_allclose(P[2], [-r / np.sqrt(2.0), r / np.sqrt(2.0)], rtol=1e-15)
        for i in (0, 2):
            assert project(W[i], r).tobytes() == P[i].tobytes()

    def test_a_factor_that_underflows_still_reaches_the_sphere(self):
        w = np.array([3e30, 4e30])
        for p in (project(w[None, :], 1e-300)[0], project(w, 1e-300)):
            np.testing.assert_allclose(p, [6e-301, 8e-301], rtol=1e-15)


class TestSignedExamples:
    """The signed form phi * u, u = -y * x, against the label form s * x it replaced.

    Both give the same bits: negation is exact and rounding is sign-symmetric, so each
    product and each einsum sum can only change sign (np.array_equal ignores the sign of
    a zero, which is all that can differ).
    """

    @staticmethod
    def label_scales(loss, W, X, y):
        """The label form: s with per-example gradient s * x."""
        m = np.einsum("rbd,rd->rb", X, W)
        if loss == "logistic":
            ny = -y
            return ny * expit(ny * m)
        if loss == "hinge":
            return np.where(y * m <= 1.0, -y, 0.0)
        return -y

    @pytest.mark.parametrize("loss", ["logistic", "hinge", "linear"])
    @pytest.mark.parametrize("sigma", [None, 0.0, 0.2])
    def test_signed_form_matches_the_label_form_bit_for_bit(self, loss, sigma):
        rng = np.random.default_rng(5)
        R, b, d = 6, 3, 4
        X = rng.standard_normal((R, b, d))
        X[rng.random((R, b, d)) < 1 / 3] = 0.0
        X[0, 0] = 0.0
        y = np.where(rng.random((R, b)) < 0.5, 1.0, -1.0)
        W = 2.0 * rng.standard_normal((R, d))
        U = -y[..., None] * X
        sp = spec(loss)
        if sigma is None:
            s = self.label_scales(loss, W, X, y)
            phi = gradient_scales(sp, W, U)
        else:
            flip = rng.random((R, b)) < 0.4
            y_obs = np.where(flip, -y, y)
            s = ((1.0 - sigma) * self.label_scales(loss, W, X, y_obs)
                 - sigma * self.label_scales(loss, W, X, -y_obs)) / (1.0 - 2.0 * sigma)
            phi = rcn_scales(sp, margins(W, U), np.where(flip, -1.0, 1.0), 1.0 - sigma, sigma,
                             1.0 - 2.0 * sigma)
        if loss == "hinge" and not sigma:       # both branches of the hinge are taken
            assert 0 < np.count_nonzero(s) < s.size
        assert np.array_equal(phi[..., None] * U, s[..., None] * X)
        assert np.array_equal(np.einsum("rb,rbd->rd", phi, U), np.einsum("rb,rbd->rd", s, X))


class TestDataset:
    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 2)), np.array([1.0, 2.0]))

    def test_bool_labels_rejected(self):
        # numpy reads True as 1.0, so these used to load as two +1 labels.
        with pytest.raises(ValueError, match="got True in y$"):
            Dataset(np.zeros((2, 2)), np.array([True, True]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Dataset([[bad, 1.0]], [1.0])

    def test_normalized_scales_to_unit_max_norm(self):
        X = np.array([[3.0, 4.0], [0.3, 0.4]])
        ds = Dataset(X, np.array([1.0, -1.0])).normalized()
        norms = np.linalg.norm(ds.X, axis=1)
        assert norms.max() == pytest.approx(1.0)
        assert np.all(norms <= 1.0 + 1e-12)

    def test_normalized_keeps_bytes_of_ordinary_inputs(self):
        X = np.random.default_rng(4).standard_normal((20, 5)) * 1e3
        ds = Dataset(X, np.ones(20))
        assert ds.max_feature_norm() == np.max(np.linalg.norm(X, axis=1))
        assert ds.normalized().X.tobytes() == (X / np.max(np.linalg.norm(X, axis=1))).tobytes()

    @pytest.mark.parametrize("big", [1e200, 1.7e308])
    def test_normalized_survives_norms_that_overflow(self, big):
        ds = Dataset([[big, big], [1.0, 2.0]], [1.0, -1.0])
        with np.errstate(all="raise", under="ignore"):
            norm = ds.max_feature_norm()
            X = ds.normalized().X
        if big == 1e200:
            assert norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        else:
            assert norm == np.inf                   # beyond the float range
        np.testing.assert_allclose(X[0], [np.sqrt(0.5)] * 2, rtol=1e-15)
        assert 0 < X[1, 0] < X[1, 1]
        assert np.linalg.norm(X, axis=1).max() == pytest.approx(1.0)

    @pytest.mark.parametrize("kw", [{"lam": np.nan}, {"lam": 1.0, "radius": np.nan}])
    def test_nan_objective_rejected(self, kw):
        with pytest.raises(ValueError, match=r"^(lam|radius) must be a number .*, got nan"):
            ObjectiveSpec(**kw)

    @pytest.mark.parametrize("radius", [None, 1.0])
    def test_infinite_lam_rejected_as_lam(self, radius):
        # With the default radius 1/lam, an infinite lam once failed as a zero radius.
        with pytest.raises(ValueError, match=r"^lam must be a number in \(0, inf\), got inf"):
            ObjectiveSpec(lam=np.inf, radius=radius)

    def test_defaults(self):
        sp = ObjectiveSpec(lam=0.25)
        assert sp.radius == pytest.approx(4.0)
        with pytest.raises(ValueError):
            ObjectiveSpec(lam=-1.0)
        with pytest.raises(ValueError):
            ObjectiveSpec(lam=1.0, loss="squared")


def test_mean_loss_gradient_matches_loop():
    rng = np.random.default_rng(3)
    sp = spec("logistic", lam=0.5)
    X = rng.standard_normal((8, 3))
    y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
    w = rng.standard_normal(3)
    manual = np.mean([loss_gradient(sp, w, X[i], y[i]) for i in range(8)], axis=0)
    np.testing.assert_allclose(mean_loss_gradient(sp, w, X, y), manual, rtol=1e-12)


@pytest.mark.parametrize("label", [3.0, 0.0, -0.5, np.nan, True,
                                   pytest.param(np.True_, id="np.True_"), "1"])
def test_reference_gradients_reject_a_label_not_plus_or_minus_one(label):
    # y = 3 used to give three times the y = 1 gradient, and True the y = 1 gradient.
    sp, w, x = spec("logistic"), np.zeros(2), np.array([0.6, 0.8])
    with pytest.raises(ValueError, match=r"labels must be -1 or \+1, got .* in y$"):
        loss_gradient(sp, w, x, label)
    with pytest.raises(ValueError, match=r"labels must be -1 or \+1, got .* in y$"):
        mean_loss_gradient(sp, w, np.stack([x, x]), [label, label])


@pytest.mark.parametrize("labels", [[1, True], [-1.0, np.True_], (True, -1), [[1], [True]]],
                         ids=["int_then_bool", "float_then_np_bool", "tuple", "nested"])
def test_a_label_sequence_that_mixes_bools_with_numbers_is_rejected(labels):
    # np.asarray([1, True]) is the int array [1, 1], so True used to run as the label +1.
    sp, x = spec("logistic"), np.array([0.6, 0.8])
    X = np.stack([x] * len(labels))
    with pytest.raises(ValueError, match=r"labels must be -1 or \+1, got (np\.)?True_? in y$"):
        mean_loss_gradient(sp, np.zeros(2), X, labels)
    if np.ndim(labels) == 1:
        with pytest.raises(ValueError, match=r"labels must be -1 or \+1, got (np\.)?True_? in y$"):
            Dataset(X, labels)


def test_label_arrays_and_number_sequences_still_pass():
    X = np.array([[0.6, 0.8], [0.8, 0.6]])
    for labels in ([1, -1], (1.0, -1.0), np.array([1, -1]), np.array([1.0, -1.0])):
        assert list(Dataset(X, labels).y) == [1.0, -1.0]
