import numpy as np
import pytest

from gaussian_lemmas import gaussian_moment6
from phasemix.harmonic_error import (
    HarmonicErrorReport,
    harmonic_error_report,
    lemma_bound_classical,
    lemma_bound_quantum,
    numeric_harmonic_error_classical,
    numeric_harmonic_error_quantum,
)
from phasemix.potentials import (
    Cosine,
    CubicHarmonic,
    DoubleWell,
    HamiltonianModel,
    Harmonic,
)

HARMONIC = HamiltonianModel(1.0, Harmonic(1.0), (-8.0, 8.0))
CUBIC = HamiltonianModel(1.0, CubicHarmonic(1.0 / 6.0), (-2.0, 2.0))


def pure_cov(s, hbar, theta=0.0):
    """Pure d=1 covariance: det = (hbar/2)^2, rotated by theta."""
    c, sn = np.cos(theta), np.sin(theta)
    r = np.array([[c, -sn], [sn, c]])
    return r @ np.diag([s, hbar**2 / (4.0 * s)]) @ r.T


def grids(alpha, sigma, n=512, span=8.0):
    sx = np.sqrt(sigma[0, 0])
    sp = np.sqrt(sigma[1, 1])
    x = np.linspace(alpha[0] - span * sx, alpha[0] + span * sx, n)
    p = np.linspace(alpha[1] - span * sp, alpha[1] + span * sp, n)
    return x, p


class TestBounds:
    def test_harmonic_is_zero(self):
        sig = pure_cov(0.5, 1.0)
        assert lemma_bound_quantum(sig, HARMONIC, 1.0) == 0.0
        assert lemma_bound_classical(sig, HARMONIC, 1.0) == 0.0

    def test_three_halves_scaling(self):
        s1 = np.diag([1.0, 0.25])
        s4 = np.diag([4.0, 0.25])
        b1 = lemma_bound_quantum(s1, CUBIC, 1.0)
        b4 = lemma_bound_quantum(s4, CUBIC, 1.0)
        assert b4 == pytest.approx(8.0 * b1, rel=1e-12)

    def test_unit_substitution(self):
        # sup|V'''| = 1 for the cubic-perturbed model with eps = 1/6
        assert CUBIC.sup3 == pytest.approx(1.0)
        sig = np.diag([1.0, 0.25])
        assert lemma_bound_quantum(sig, CUBIC, 1.0) == \
            pytest.approx(np.sqrt(5.0 / 3.0), rel=1e-12)
        assert lemma_bound_classical(sig, CUBIC, 1.0) == \
            pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_constant_ratio(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sig = pure_cov(rng.uniform(0.1, 2.0), rng.uniform(0.5, 2.0),
                           rng.uniform(0, np.pi))
            q = lemma_bound_quantum(sig, CUBIC, 1.0)
            c = lemma_bound_classical(sig, CUBIC, 1.0)
            assert c / q == pytest.approx(np.sqrt(9.0 / 5.0), rel=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lemma_bound_quantum(np.eye(4), CUBIC, 1.0)

    @pytest.mark.parametrize("sigma, fragment", [
        ([[np.nan, 0.0], [0.0, 1.0]], "covariance must be finite"),
        ([[-1.0, 0.0], [0.0, 1.0]], "covariance must be positive definite"),
        ([[1.0, 0.0], [5e-3, 1.0]], "not symmetric"),
    ], ids=["nan", "negative", "asymmetric"])
    def test_bounds_refuse_a_bad_sigma(self, sigma, fragment):
        # unchecked, these gave a nan bound, a complex one, and a bound
        # for a matrix that is no covariance
        for bound in (lemma_bound_quantum, lemma_bound_classical):
            with pytest.raises(ValueError, match=fragment):
                bound(np.array(sigma), CUBIC, 1.0)


class TestNumericQuantum:
    def test_quadratic_is_zero(self):
        sig = pure_cov(0.5, 1.0, 0.3)
        x, _ = grids([0.2, -0.1], sig)
        assert numeric_harmonic_error_quantum([0.2, -0.1], sig, HARMONIC,
                                              1.0, x) < 1e-10

    def test_cubic_matches_moment_formula(self):
        # expansion about the origin leaves dV = eps x^3; the residual's
        # trace norm is (2/hbar) * std(dV) in the Gaussian state
        hbar, s, eps = 1.0, 0.4, 1.0 / 6.0
        sig = pure_cov(s, hbar)
        x, _ = grids([0.0, 0.0], sig, n=1024, span=10.0)
        got = numeric_harmonic_error_quantum([0.0, 0.0], sig, CUBIC, hbar, x)
        e = np.eye(1)
        sixth = gaussian_moment6(np.array([[s]]), e, e, e)
        assert sixth == pytest.approx(15.0 * s**3, rel=1e-12)
        expect = (2.0 / hbar) * eps * np.sqrt(sixth)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_cubic_at_origin_saturates_bound(self):
        hbar, s = 1.0, 0.4
        sig = pure_cov(s, hbar)
        x, _ = grids([0.0, 0.0], sig, n=1024, span=10.0)
        got = numeric_harmonic_error_quantum([0.0, 0.0], sig, CUBIC, hbar, x)
        assert got == pytest.approx(lemma_bound_quantum(sig, CUBIC, hbar),
                                    rel=1e-5)

    def test_independent_of_position_momentum_correlation(self):
        hbar, s = 1.0, 0.3
        plain = pure_cov(s, hbar)
        tilted = plain + 0.0
        tilted[0, 1] = tilted[1, 0] = 0.1
        tilted[1, 1] = (hbar**2 / 4.0 + 0.1**2) / s
        x, _ = grids([0.0, 0.0], plain, n=1024, span=10.0)
        a = numeric_harmonic_error_quantum([0.0, 0.0], plain, CUBIC, hbar, x)
        b = numeric_harmonic_error_quantum([0.0, 0.0], tilted, CUBIC, hbar, x)
        assert a == pytest.approx(b, rel=1e-8)

    def test_monotone_in_width(self):
        hbar = 1.0
        vals = []
        for s in (0.1, 0.2, 0.4, 0.8):
            sig = pure_cov(s, hbar)
            x, _ = grids([0.0, 0.0], sig, n=1024, span=10.0)
            vals.append(numeric_harmonic_error_quantum([0.0, 0.0], sig,
                                                       CUBIC, hbar, x))
        assert np.all(np.diff(vals) > 0)

    def test_coverage_failure(self):
        sig = pure_cov(0.5, 1.0)
        x = np.linspace(-1.0, 1.0, 128)
        with pytest.raises(ValueError, match="cover"):
            numeric_harmonic_error_quantum([0.0, 0.0], sig, CUBIC, 1.0, x)


class TestNumericClassical:
    def test_quadratic_is_zero(self):
        sig = pure_cov(0.5, 1.0, 0.4)
        x, p = grids([0.3, 0.2], sig)
        assert numeric_harmonic_error_classical([0.3, 0.2], sig, HARMONIC,
                                                (x, p)) < 1e-12

    def test_cubic_positive_below_bound(self):
        hbar, s = 1.0, 0.4
        sig = pure_cov(s, hbar)
        x, p = grids([0.0, 0.0], sig, n=512, span=9.0)
        got = numeric_harmonic_error_classical([0.0, 0.0], sig, CUBIC, (x, p))
        bound = lemma_bound_classical(sig, CUBIC, hbar)
        assert 0.0 < got <= bound * 1.05
        # non-vacuous: the bound is within a modest factor of the numeric
        assert got / bound > 1e-3

    def test_coverage_failure(self):
        sig = pure_cov(0.5, 1.0)
        x = np.linspace(-10, 10, 64)
        p = np.linspace(-0.1, 0.1, 64)
        with pytest.raises(ValueError, match="cover"):
            numeric_harmonic_error_classical([0.0, 0.0], sig, CUBIC, (x, p))


class TestInputs:
    # the bounds and the numerics each build a GaussianState
    def test_report_refuses_nan_sigma_pp(self):
        # unchecked, it read numeric_quantum 0 and numeric_classical nan,
        # and the report's validate() passed
        sig = pure_cov(0.4, 1.0)
        x, p = grids([0.0, 0.0], sig)
        sig[1, 1] = np.nan
        with pytest.raises(ValueError, match="covariance must be finite"):
            harmonic_error_report([0.0, 0.0], sig, CUBIC, 1.0, x, p)

    @pytest.mark.parametrize("numeric", [
        lambda sig, x, p: numeric_harmonic_error_quantum(
            [0.0, 0.0], sig, CUBIC, 1.0, x),
        lambda sig, x, p: numeric_harmonic_error_classical(
            [0.0, 0.0], sig, CUBIC, (x, p)),
    ], ids=["quantum", "classical"])
    def test_numerics_refuse_asymmetric_sigma(self, numeric):
        sig = pure_cov(0.4, 1.0)
        x, p = grids([0.0, 0.0], sig)
        sig[1, 0] = 5e-3
        with pytest.raises(ValueError, match="not symmetric"):
            numeric(sig, x, p)


class TestDominance:
    @pytest.mark.parametrize("make_model", [
        lambda: HamiltonianModel(1.0, DoubleWell(0.25, 1.0), (-3.0, 3.0)),
        lambda: HamiltonianModel(1.0, Cosine(1.0, 1.0), (-np.pi, np.pi)),
        lambda: HamiltonianModel(1.0, CubicHarmonic(0.2), (-1.5, 1.5)),
    ], ids=["double-well", "cosine", "cubic"])
    def test_random_draws_stay_below_bounds(self, make_model):
        model = make_model()
        hbar = 0.01
        rng = np.random.default_rng(17)
        lo, hi = model.domain
        for _ in range(34):
            s = rng.uniform(0.002, 0.01)
            sig = pure_cov(s, hbar, rng.uniform(0, np.pi))
            half = 0.35 * (hi - lo) / 2.0
            alpha = [rng.uniform(-half, half), rng.normal(scale=0.2)]
            x, p = grids(alpha, sig, n=384, span=8.0)
            rep = harmonic_error_report(alpha, sig, model, hbar, x, p)
            rep.validate()  # numeric <= bound * 1.05
            assert rep.numeric_quantum <= rep.bound_quantum * 1.05
            assert rep.numeric_classical <= rep.bound_classical * 1.05
            assert rep.bound_classical >= rep.bound_quantum

    def test_report_validate_rejects_excess(self):
        rep = HarmonicErrorReport(bound_quantum=1.0, bound_classical=1.0,
                                  numeric_quantum=1.2, numeric_classical=0.5)
        with pytest.raises(ValueError, match="quantum"):
            rep.validate()
