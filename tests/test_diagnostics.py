import numpy as np
import pytest

from lagdg.diagnostics import ErrorReport, energy_error, error_norms, reflection_ratio


class TestErrorNorms:
    def test_identical_fields(self):
        x = np.linspace(0, 1, 11)
        rep = error_norms(x, x)
        assert (rep.e1, rep.e2, rep.einf) == (0.0, 0.0, 0.0)

    def test_relative_homogeneity(self):
        ref = np.array([1.0, -2.0, 0.5])
        rep = error_norms(2.0 * ref, ref, relative=True)
        assert rep.e1 == pytest.approx(1.0)
        assert rep.e2 == pytest.approx(1.0)
        assert rep.einf == pytest.approx(1.0)

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(31)
        num = rng.normal(size=100)
        ref = rng.normal(size=100)
        rep = error_norms(num, ref)
        d = num - ref
        assert rep.e1 == pytest.approx(sum(abs(v) for v in d), rel=1e-14)
        assert rep.e2 == pytest.approx(np.sqrt(sum(v * v for v in d)), rel=1e-14)
        assert rep.einf == pytest.approx(max(abs(v) for v in d), rel=1e-14)

    def test_absolute_norms_scale_together(self):
        rng = np.random.default_rng(37)
        num = rng.normal(size=50)
        ref = rng.normal(size=50)
        r1 = error_norms(num, ref)
        r2 = error_norms(ref + 3.0 * (num - ref), ref)
        assert r2.e1 == pytest.approx(3.0 * r1.e1)
        assert r2.e2 == pytest.approx(3.0 * r1.e2)
        assert r2.einf == pytest.approx(3.0 * r1.einf)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            error_norms(np.ones(3), np.zeros(3), relative=True)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_norms(np.ones(3), np.ones(4))


class TestEnergyError:
    def test_identical(self):
        h = np.ones(5)
        u = np.zeros(5)
        assert energy_error(h, h, u, u, 9.81, 1.0) == 0.0

    def test_single_sample(self):
        assert energy_error([1.0], [0.0], [0.3], [0.3], 9.81, 1.0) == pytest.approx(4.905)

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(41)
        h, hr, u, ur = (rng.normal(size=30) for _ in range(4))
        g, H = 9.81, 2.0
        expect = np.mean([0.5 * (g * (a - b) ** 2 + H * (c - d) ** 2)
                          for a, b, c, d in zip(h, hr, u, ur)])
        assert energy_error(h, hr, u, ur, g, H) == pytest.approx(expect, rel=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(43)
        h, hr, u, ur = (rng.normal(size=20) for _ in range(4))
        perm = rng.permutation(20)
        assert energy_error(h, hr, u, ur, 9.81, 1.0) == pytest.approx(
            energy_error(h[perm], hr[perm], u[perm], ur[perm], 9.81, 1.0))


class TestReflectionRatio:
    def test_equal_energies(self):
        assert reflection_ratio(1e-5, 1e-5) == 1.0

    def test_zero_error(self):
        assert reflection_ratio(0.0, 1e-3) == 0.0

    def test_ratio_of_energies_is_square_rooted(self):
        # away from 0 and 1, where the square root changes the value
        assert reflection_ratio(1e-4, 1e-2) == pytest.approx(0.1)

    def test_scale_invariance(self):
        assert reflection_ratio(2e-6, 5e-3) == pytest.approx(reflection_ratio(2e-4, 5e-1))

    def test_invalid_wall(self):
        with pytest.raises(ValueError):
            reflection_ratio(1.0, 0.0)

    def test_report_is_frozen(self):
        rep = ErrorReport(1.0, 1.0, 1.0, False)
        with pytest.raises(AttributeError):
            rep.e1 = 2.0
