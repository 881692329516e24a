import numpy as np
import pytest

from hetsgd.datasets import (EmptyFileError, InconsistentDimensionError, ParseError,
                             SyntheticSpec, generate_synthetic, ingest_csv, ingest_libsvm,
                             random_projection, sign_projection_matrix)


class TestSynthetic:
    def test_labels_consistent_with_plant_at_zero_flip(self):
        ds = generate_synthetic(SyntheticSpec(d=6, n=400, flip_rate=0.0), seed=3)
        # Recover the plant: positives and negatives must be linearly separated
        # by some direction; check against the regenerated plant itself.
        rng = np.random.default_rng(np.random.SeedSequence(3))
        w_true = rng.standard_normal(6)
        w_true /= np.linalg.norm(w_true)
        margins = ds.y * (ds.X @ w_true)
        assert np.all(margins >= 0)

    def test_deterministic(self):
        a = generate_synthetic(SyntheticSpec(d=4, n=100, flip_rate=0.2), seed=9)
        b = generate_synthetic(SyntheticSpec(d=4, n=100, flip_rate=0.2), seed=9)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_flip_rate_matches_binomial(self):
        n, p = 20_000, 0.2
        ds = generate_synthetic(SyntheticSpec(d=5, n=n, flip_rate=p), seed=11)
        rng = np.random.default_rng(np.random.SeedSequence(11))
        w_true = rng.standard_normal(5)
        w_true /= np.linalg.norm(w_true)
        clean = np.where(ds.X @ w_true >= 0, 1.0, -1.0)
        rate = np.mean(ds.y != clean)
        assert abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_features_normalized(self):
        ds = generate_synthetic(SyntheticSpec(d=8, n=300), seed=1)
        assert np.linalg.norm(ds.X, axis=1).max() == pytest.approx(1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(d=0, n=10)
        with pytest.raises(ValueError):
            SyntheticSpec(d=2, n=10, flip_rate=0.6)


class TestRandomProjection:
    def test_identity_flag_passes_through(self):
        ds = generate_synthetic(SyntheticSpec(d=5, n=50), seed=2)
        out = random_projection(ds, 5, seed=1, identity=True)
        np.testing.assert_allclose(out.X, ds.X / np.linalg.norm(ds.X, axis=1).max())
        with pytest.raises(ValueError):
            random_projection(ds, 3, seed=1, identity=True)

    def test_deterministic(self):
        ds = generate_synthetic(SyntheticSpec(d=30, n=40), seed=4)
        a = random_projection(ds, 10, seed=5)
        b = random_projection(ds, 10, seed=5)
        np.testing.assert_array_equal(a.X, b.X)

    def test_rejects_expanding_projection(self):
        ds = generate_synthetic(SyntheticSpec(d=5, n=10), seed=0)
        with pytest.raises(ValueError):
            random_projection(ds, 6, seed=0)

    def test_pairwise_distances_preserved(self):
        # Sign projection to 25 dims keeps most pairwise squared distances
        # within the usual random-projection distortion at this target dim.
        rng = np.random.default_rng(8)
        n, d_in, d_out = 500, 120, 25
        X = rng.standard_normal((n, d_in))
        P = sign_projection_matrix(d_in, d_out, seed=21)
        XP = X @ P
        pairs = rng.integers(0, n, size=(1000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        ratios = []
        for i, j in pairs:
            orig = np.sum((X[i] - X[j]) ** 2)
            proj = np.sum((XP[i] - XP[j]) ** 2)
            ratios.append(proj / orig)
        ratios = np.asarray(ratios)
        # E[ratio] = 1 with sd ~ sqrt(2/d_out) = 0.28; 2 sd covers ~95%.
        assert np.mean(np.abs(ratios - 1.0) <= 0.6) >= 0.95

    def test_projection_matrix_entries(self):
        P = sign_projection_matrix(40, 10, seed=3)
        np.testing.assert_allclose(np.abs(P), 1 / np.sqrt(10))
        assert (P > 0).any() and (P < 0).any()


class TestIngestCsv:
    def test_small_fixture(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1, 0.5, 0.5\n-1, 0.2, -0.3\n1, -0.4, 0.1\n")
        ds = ingest_csv(path)
        assert len(ds) == 3
        assert ds.d == 2
        np.testing.assert_array_equal(ds.y, [1.0, -1.0, 1.0])
        assert np.linalg.norm(ds.X, axis=1).max() == pytest.approx(1.0)

    def test_zero_label_maps_to_negative(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0, 1.0\n1, 2.0\n")
        ds = ingest_csv(path)
        np.testing.assert_array_equal(ds.y, [-1.0, 1.0])

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1, 0.5\n1, oops\n1, 0.2\n")
        with pytest.raises(ParseError, match=r":2:"):
            ingest_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, bad):
        path = tmp_path / "data.csv"
        path.write_text(f"1, 0.5, 0.2\n1, 0.5, {bad}\n")
        with pytest.raises(ParseError, match=r":2: non-finite"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n\n")
        with pytest.raises(EmptyFileError):
            ingest_csv(path)

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1, 0.5, 0.2\n1, 0.5\n")
        with pytest.raises(InconsistentDimensionError, match=":2:"):
            ingest_csv(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("2, 0.5\n")
        with pytest.raises(ParseError, match="label"):
            ingest_csv(path)


class TestIngestLibsvm:
    def test_small_fixture(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:0.5 3:0.5\n-1 2:1.0\n0 1:0.1 2:0.1 3:0.1\n")
        ds = ingest_libsvm(path)
        assert len(ds) == 3
        assert ds.d == 3
        np.testing.assert_array_equal(ds.y, [1.0, -1.0, -1.0])
        scale = 1.0 / np.linalg.norm([1.0])  # row 2 has the max raw norm 1.0
        assert ds.X[1, 1] == pytest.approx(1.0 * scale)
        assert ds.X[0, 0] == pytest.approx(0.5)
        assert ds.X[0, 1] == 0.0

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header\n\n+1 1:1.0\n-1 1:0.5 # trailing\n")
        ds = ingest_libsvm(path)
        assert len(ds) == 2

    def test_bad_token(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:0.5\n-1 nonsense\n")
        with pytest.raises(ParseError, match=":2:"):
            ingest_libsvm(path)

    def test_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 0:0.5\n")
        with pytest.raises(ParseError, match="1-based"):
            ingest_libsvm(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, bad):
        path = tmp_path / "data.txt"
        path.write_text(f"+1 1:0.5\n-1 2:{bad}\n")
        with pytest.raises(ParseError, match=r":2: non-finite"):
            ingest_libsvm(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# nothing\n")
        with pytest.raises(EmptyFileError):
            ingest_libsvm(path)
