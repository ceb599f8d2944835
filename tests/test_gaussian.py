import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussian_lemmas import (
    covariance_eigen_pairs,
    gaussian_derivative_residual,
    gaussian_moment,
    gaussian_moment4,
    gaussian_moment6,
    random_pure_cov,
    random_symplectic,
    sigma_star_d,
    symplectic_defect,
    symplectic_form,
)
from phasemix.gaussian import (
    PURITY_TOL,
    GaussianState,
    is_pure_gaussian,
    nts_eigenvalues,
    purity_defect,
    sigma_star,
    window_excess,
)
from phasemix.mixture import WINDOW_TOL


def test_symplectic_form_properties():
    for d in (1, 2, 3):
        omega = symplectic_form(d)
        assert np.array_equal(omega @ omega, -np.eye(2 * d))
        assert np.array_equal(omega.T, -omega)


class TestPurity:
    def test_vacuum_is_pure(self):
        assert is_pure_gaussian(0.5 * np.eye(2), hbar=1.0)

    def test_sigma_star_is_pure_any_aspect(self):
        for a_H in (0.3, 1.0, 7.5):
            assert is_pure_gaussian(sigma_star(a_H, hbar=1.0), hbar=1.0)
            assert symplectic_defect(sigma_star_d(a_H, 0.01, 2), 0.01) \
                <= PURITY_TOL

    def test_doubled_vacuum_is_mixed(self):
        assert not is_pure_gaussian(np.eye(2), hbar=1.0)

    def test_non_symmetric_rejected(self):
        cov = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(ValueError):
            is_pure_gaussian(cov, hbar=1.0)

    def test_random_symplectic_conjugates_pure(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cov = random_pure_cov(2, 1.0, 1.7, rng)
            assert symplectic_defect(cov, 1.0) < 1e-10

    def test_purity_defect_is_the_symplectic_defect(self):
        # a 2 x 2 matrix a has a^T Omega a = det(a) Omega, so the
        # determinant formula is the symplectic condition
        rng = np.random.default_rng(5)
        for k in range(100):
            hbar = rng.uniform(0.05, 2.0)
            cov = random_pure_cov(1, hbar, rng.uniform(0.2, 5.0), rng)
            if k % 2:
                cov = cov * rng.uniform(0.5, 2.0)
            assert purity_defect(cov, hbar) == pytest.approx(
                symplectic_defect(cov, hbar), abs=1e-12)

    def test_purity_defect_of_a_stack_is_its_worst(self):
        pure = sigma_star(1.3, 0.5)
        stack = np.stack([pure, 1.5 * pure, pure])
        assert purity_defect(stack, 0.5) == pytest.approx(1.25, rel=1e-12)
        asym = stack.copy()
        asym[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            purity_defect(asym, 0.5)


class TestNTS:
    def test_sigma_star_inside_any_window(self):
        ss = sigma_star(2.0, 1.0)
        for z in (1.0, 2.0, 10.0):
            assert window_excess(nts_eigenvalues(ss, ss), z) <= WINDOW_TOL

    def test_scaled_out_of_window(self):
        ss = sigma_star(1.0, 1.0)
        assert not window_excess(nts_eigenvalues(2.0 * 3.0 * ss, ss),
                                 3.0) <= WINDOW_TOL

    def test_upper_lower_equivalence_for_pure(self):
        # for pure Gaussians, "not too long" iff "not too thin"
        rng = np.random.default_rng(1)
        ss = sigma_star(1.3, 1.0)
        for _ in range(1000):
            z = rng.uniform(1.0, 10.0)
            cov = random_pure_cov(1, 1.0, 1.3, rng, scale=rng.uniform(0.1, 1.0))
            lam = nts_eigenvalues(cov, ss)
            upper_ok = lam.max() <= z + 1e-9
            lower_ok = lam.min() >= 1.0 / z - 1e-9
            assert upper_ok == lower_ok


class TestEigenPairs:
    def test_coherent_pairs(self):
        pairs = covariance_eigen_pairs(sigma_star(1.0, 1.0), 1.0)
        assert pairs == [(0.5, 0.5)]

    def test_squeezed_pair_product(self):
        r = 1.0
        cov = np.diag([0.5 * np.exp(r), 0.5 * np.exp(-r)])
        ((a, b),) = covariance_eigen_pairs(cov, 1.0)
        assert a * b == pytest.approx(0.25, rel=1e-12)

    def test_rotated_squeezed_same_products(self):
        th = 0.7
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        cov = rot @ np.diag([0.5 * np.e, 0.5 / np.e]) @ rot.T
        ((a, b),) = covariance_eigen_pairs(cov, 1.0)
        assert a * b == pytest.approx(0.25, rel=1e-10)

    def test_random_symplectic_conjugates(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cov = random_pure_cov(2, 0.7, 2.2, rng)
            for a, b in covariance_eigen_pairs(cov, 0.7):
                assert a * b == pytest.approx((0.35) ** 2, rel=1e-10)

    def test_impure_raises_with_worst_pair(self):
        with pytest.raises(ValueError, match="not pure"):
            covariance_eigen_pairs(np.eye(2), 1.0)


class TestMoments:
    def test_moment2_identity(self):
        assert gaussian_moment(np.eye(2), np.eye(2)) == 2.0

    def test_moment4_identity(self):
        assert gaussian_moment4(np.eye(2), np.eye(2), np.eye(2)) == 8.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_moment(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("n", [2, 4])
    def test_monte_carlo_oracle(self, n):
        # sampling oracle: 1e6 samples agree within 3 standard errors
        rng = np.random.default_rng(11)
        nsamp = 1_000_000
        for trial in range(4):
            mats = []
            for _ in range(4):
                m = rng.normal(size=(n, n))
                mats.append(m @ m.T)
            cov, a, b, c = mats
            beta = rng.multivariate_normal(np.zeros(n), cov, size=nsamp)
            qa = np.einsum("ia,ab,ib->i", beta, a, beta)
            qb = np.einsum("ia,ab,ib->i", beta, b, beta)
            qc = np.einsum("ia,ab,ib->i", beta, c, beta)
            for sample, exact in [
                (qa, gaussian_moment(cov, a)),
                (qa * qb, gaussian_moment4(cov, a, b)),
                (qa * qb * qc, gaussian_moment6(cov, a, b, c)),
            ]:
                se = sample.std(ddof=1) / np.sqrt(nsamp)
                assert abs(sample.mean() - exact) < 3.0 * se + 1e-12


class TestDerivativeIdentity:
    def test_residual_second_order_in_h(self):
        state = GaussianState(np.zeros(2), np.eye(2))
        r1 = gaussian_derivative_residual(state, 0, 1, 2e-2)
        r2 = gaussian_derivative_residual(state, 0, 1, 1e-2)
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)

    def test_diagonal_matches_closed_form(self):
        state = GaussianState(np.zeros(2), np.diag([1.0, 2.0]))
        assert gaussian_derivative_residual(state, 0, 0, 1e-3) < 1e-6

    def test_offdiagonal_symmetric_under_swap(self):
        state = GaussianState(np.zeros(2), np.array([[1.0, 0.3], [0.3, 2.0]]))
        r_ab = gaussian_derivative_residual(state, 0, 1, 1e-3)
        r_ba = gaussian_derivative_residual(state, 1, 0, 1e-3)
        assert r_ab == pytest.approx(r_ba, rel=1e-8)

    def test_large_h_warns(self):
        # h > 0.3 sqrt(lam_min) = 0.003, but cov -+ h^2 dsigma stays
        # positive definite (1e-4 - 2 h^2 = 5e-5), so the residual is finite
        state = GaussianState(np.zeros(2), 1e-4 * np.eye(2))
        with pytest.warns(UserWarning, match="large"):
            r = gaussian_derivative_residual(state, 0, 0, 0.005)
        assert np.isfinite(r)

    def test_h_beyond_positive_definite_refused(self):
        # cov - h^2 dsigma is indefinite: 1e-4 - 2e-2 on the diagonal entry,
        # eigenvalues 1e-4 -+ 1e-2 on the off-diagonal one
        state = GaussianState(np.zeros(2), 1e-4 * np.eye(2))
        for a, b in ((0, 0), (0, 1)):
            with pytest.raises(ValueError, match="h = 0.1"):
                gaussian_derivative_residual(state, a, b, 0.1)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_symplectic_is_symplectic(seed):
    rng = np.random.default_rng(seed)
    s = random_symplectic(1, rng)
    omega = symplectic_form(1)
    assert np.abs(s.T @ omega @ s - omega).max() < 1e-10


@pytest.mark.parametrize("mean, cov_00, hbar, fragment", [
    # a nan centre would pass gaussian_to_grid's 6-sigma test and
    # rasterize to an all-zero rho0
    ([np.nan, 0.0], 1.0, 1.0, "mean must be finite"),
    ([np.inf, 0.0], 1.0, 1.0, "mean must be finite"),
    ([0.0, 0.0], 1.0, np.inf, "hbar must be positive and finite"),
    ([0.0, 0.0], 1.0, np.nan, "hbar must be positive and finite"),
    # named before the symmetry test, whose subtraction would warn on inf
    # and call either entry an asymmetry
    ([0.0, 0.0], np.inf, 1.0, "^covariance must be finite$"),
    ([0.0, 0.0], np.nan, 1.0, "^covariance must be finite$"),
], ids=["nan-mean", "inf-mean", "inf-hbar", "nan-hbar", "inf-cov", "nan-cov"])
def test_state_refuses_non_finite(mean, cov_00, hbar, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=fragment):
            GaussianState(mean, [[cov_00, 0.0], [0.0, 1.0]], hbar)


@pytest.mark.parametrize("mean, cov, fragment", [
    (np.zeros(4), np.eye(4), "mean must be one phase-space point"),
    ([0.0], np.eye(2), "mean must be one phase-space point"),
    ([[0.0, 0.0]], np.eye(2), "mean must be one phase-space point"),
    ([0.0, 0.0], np.eye(4), "covariance must be 2 x 2"),
    ([0.0, 0.0], np.eye(2)[None], "covariance must be 2 x 2"),
], ids=["four-vector", "one-entry", "row", "4x4-cov", "stacked-cov"])
def test_state_refuses_a_shape(mean, cov, fragment):
    # the package is one-dimensional: a state is one (x, p) pair
    with pytest.raises(ValueError, match=fragment):
        GaussianState(mean, cov)


@pytest.mark.parametrize("lo, hi, axis, covered", [
    (-6.0, 6.0, 0, True),       # exactly 6 standard deviations
    (-5.9, 6.0, 0, False),
    (-6.0, 5.9, 0, False),
    (np.nan, 6.0, 0, False),    # a nan bound fails the test
    (-6.0, np.nan, 0, False),
    (-12.0, 12.0, 1, True),     # sd 2 along p
    (-12.0, 11.9, 1, False),
])
def test_check_covered(lo, hi, axis, covered):
    state = GaussianState([0.0, 0.0], np.diag([1.0, 4.0]))
    if covered:
        state.check_covered(lo, hi, axis)
    else:
        with pytest.raises(ValueError, match="grid too small.*cover"):
            state.check_covered(lo, hi, axis)
