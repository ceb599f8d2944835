"""Helpers of the Gaussian lemma checks; no run calls them.

The package is one-dimensional, but the lemmas hold for d degrees of
freedom, so the d-general references live here: the symplectic form
Omega, the coherent covariance `sigma_star_d`, and `symplectic_defect`,
the deviation of (2/hbar) sigma from symplectic, which at d = 1 equals
`phasemix.gaussian.purity_defect`.  Beside them: the moments of quadratic
forms under a centred Gaussian, the eigen-pairs of a pure covariance, the
derivative identity of the Gaussian density, random symplectic matrices
and pure covariances (tests/test_gaussian.py, acceptance 04, 06 and 07),
and `split_sdot`, the raw-unit one-particle entry to
`mixture._batch_split_sdot` (tests/test_mixture.py, acceptance 04).  The
Gaussian density itself is scipy's.
"""

import warnings

import numpy as np
from scipy.linalg import expm
from scipy.stats import multivariate_normal

from phasemix import mixture
from phasemix.gaussian import (GaussianState, nts_eigenvalues, unwhiten,
                               whiten, window_excess)


def symplectic_form(d: int) -> np.ndarray:
    """The 2d x 2d antisymmetric form Omega = [[0, I], [-I, 0]], for
    phase-space vectors ordered (x_1..x_d, p_1..p_d)."""
    eye = np.eye(d)
    zero = np.zeros((d, d))
    return np.block([[zero, eye], [-eye, zero]])


def sigma_star_d(a_H: float, hbar: float, d: int) -> np.ndarray:
    """d-dimensional coherent covariance diag(hbar/(2 a_H) I, hbar a_H/2 I)."""
    return np.diag(np.concatenate([np.full(d, hbar / (2.0 * a_H)),
                                   np.full(d, hbar * a_H / 2.0)]))


def symplectic_defect(cov: np.ndarray, hbar: float) -> float:
    """Max-norm deviation of a = 2 cov / hbar from a^T Omega a = Omega."""
    cov = np.asarray(cov, dtype=float)
    omega = symplectic_form(cov.shape[0] // 2)
    a = 2.0 * cov / hbar
    return float(np.abs(a.T @ omega @ a - omega).max())


def gaussian_pdf(beta: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Centered Gaussian density at rows of beta (shape (..., 2d))."""
    return multivariate_normal(cov=cov).pdf(beta)


def covariance_eigen_pairs(cov: np.ndarray, hbar: float,
                           rtol: float = 1e-10):
    """Eigenvalues of a pure covariance, matched into (lam, lam') pairs.

    Each pair multiplies to (hbar/2)^2.  Raises for impure covariances,
    reporting the worst-paired eigenvalue.
    """
    cov = np.asarray(cov, dtype=float)
    lam = np.sort(np.linalg.eigvalsh(cov))
    n = lam.size
    target = (hbar / 2.0) ** 2
    pairs = [(lam[i], lam[n - 1 - i]) for i in range(n // 2)]
    bad = max(pairs, key=lambda ab: abs(ab[0] * ab[1] / target - 1.0))
    if abs(bad[0] * bad[1] / target - 1.0) > rtol:
        raise ValueError(
            f"covariance is not pure: eigenvalue pair {bad} multiplies to "
            f"{bad[0] * bad[1]:.6g}, expected {target:.6g}")
    return pairs


def gaussian_moment(cov: np.ndarray, a: np.ndarray) -> float:
    """< beta^T A beta > under a centered Gaussian: Tr[sigma A]."""
    _check_dims(cov, a)
    return float(np.trace(cov @ a))


def gaussian_moment4(cov: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """< (b^T A b)(b^T B b) > = Tr[sA]Tr[sB] + 2 Tr[sAsB]."""
    _check_dims(cov, a, b)
    sa, sb = cov @ a, cov @ b
    return float(np.trace(sa) * np.trace(sb) + 2.0 * np.trace(sa @ sb))


def gaussian_moment6(cov: np.ndarray, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray) -> float:
    """Sixth moment of three quadratic forms under a centered Gaussian."""
    _check_dims(cov, a, b, c)
    sa, sb, sc = cov @ a, cov @ b, cov @ c
    ta, tb, tc = np.trace(sa), np.trace(sb), np.trace(sc)
    return float(
        ta * tb * tc
        + 2.0 * (ta * np.trace(sb @ sc)
                 + tb * np.trace(sc @ sa)
                 + tc * np.trace(sb @ sa))
        + 8.0 * np.trace(sa @ sb @ sc))


def _check_dims(cov, *mats):
    cov = np.asarray(cov)
    for m in mats:
        if np.asarray(m).shape != cov.shape:
            raise ValueError("matrix dimensions do not match covariance")


def gaussian_derivative_residual(state: GaussianState, a: int, b: int,
                                 h: float) -> float:
    """Residual of the identity d_a d_b tau = 2 d/d(sigma_ab) tau.

    Both sides are evaluated with central finite differences on a probe grid
    around the mean; the return value is the max absolute mismatch, which is
    O(h^2) for valid h.  Warns when h is large relative to the narrowest
    covariance direction; raises ValueError when cov -+ h^2 dsigma is not
    positive definite, where the right-hand side is undefined.
    """
    cov = state.cov
    n = cov.shape[0]
    hs = h**2  # step carries units of covariance
    dsig = np.zeros((n, n))
    dsig[a, b] += 1.0
    dsig[b, a] += 1.0
    if not min(np.linalg.eigvalsh(cov + hs * dsig).min(),
               np.linalg.eigvalsh(cov - hs * dsig).min()) > 0.0:
        raise ValueError(f"finite-difference step h = {h:g} leaves cov -+ "
                         "h^2 dsigma not positive definite")
    if h > 0.3 * np.sqrt(np.linalg.eigvalsh(cov).min()):
        warnings.warn("finite-difference step h is large relative to the "
                      "narrowest covariance direction; residual may not "
                      "shrink under h -> h/2")
    rng = np.random.default_rng(7)
    probes = rng.normal(size=(24, n)) * np.sqrt(np.diag(cov))

    tau = gaussian_pdf
    ea = np.zeros(n)
    ea[a] = 1.0
    eb = np.zeros(n)
    eb[b] = 1.0

    # lhs: mixed second derivative in beta
    if a == b:
        lhs = (tau(probes + h * ea, cov) - 2.0 * tau(probes, cov)
               + tau(probes - h * ea, cov)) / h**2
    else:
        lhs = (tau(probes + h * (ea + eb), cov)
               - tau(probes + h * (ea - eb), cov)
               - tau(probes - h * (ea - eb), cov)
               + tau(probes - h * (ea + eb), cov)) / (4.0 * h**2)

    # rhs: 2 d tau / d sigma_ab for independent matrix entries.  Only
    # symmetric perturbations are admissible, so perturb (a,b) and (b,a)
    # together; by symmetry of the extension that directional derivative
    # equals 2 d/d sigma_ab for a != b and 2 d/d sigma_aa on the diagonal,
    # i.e. exactly the right-hand side of the identity in both cases.
    rhs = (tau(probes, cov + hs * dsig) - tau(probes, cov - hs * dsig)) / (2.0 * hs)
    return float(np.abs(lhs - rhs).max())


def random_symplectic(d: int, rng: np.random.Generator,
                      scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix exp(Omega S) with S random symmetric."""
    omega = symplectic_form(d)
    s = rng.normal(size=(2 * d, 2 * d)) * scale
    s = 0.5 * (s + s.T)
    return expm(omega @ s)


def random_pure_cov(d: int, hbar: float, a_H: float,
                    rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random pure covariance S sigma* S^T with S symplectic."""
    s = random_symplectic(d, rng, scale)
    return s @ sigma_star_d(a_H, hbar, d) @ s.T


def split_sdot(alpha, sigma, model, diffusion, scales, z):
    """Split the covariance derivative F s + s F^T + D into (S_Z, S_D).

    S_Z is tangent to pure Gaussians and keeps the squeeze window
    invariant; S_D is positive semidefinite on the window.  Raw units in
    and out, for one particle; `mixture._batch_split_sdot` does the work.
    """
    sigma = np.asarray(sigma, dtype=float)
    lam = nts_eigenvalues(sigma, scales.sigma_star)
    if not window_excess(lam, z) <= mixture.WINDOW_TOL:
        raise ValueError("covariance is squeezed beyond the window "
                         f"[{1 / z:.4g}, {z:.4g}]: eigenvalues {lam}")
    sig_star = scales.sigma_star
    sz, sd, _, _ = mixture._batch_split_sdot(
        np.asarray(alpha, dtype=float)[None], whiten(sigma, sig_star)[None],
        model, whiten(diffusion.matrix(), sig_star), scales, z)
    return unwhiten(sz[0], sig_star), unwhiten(sd[0], sig_star)
