"""Gaussian-state and symplectic-matrix primitives.

Conventions: phase-space vectors are ordered (x_1..x_d, p_1..p_d); the
symplectic form is Omega = [[0, I], [-I, 0]].  A covariance matrix sigma
belongs to a pure Gaussian state iff (2/hbar)*sigma is symplectic, in which
case its eigenvalues come in pairs (lam, (hbar/2)^2 / lam).
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "symplectic_form",
    "GaussianState",
    "is_pure_gaussian",
    "purity_defect",
    "whiten",
    "unwhiten",
    "window_excess",
    "nts_eigenvalues",
    "covariance_eigen_pairs",
    "gaussian_moment",
    "gaussian_moment4",
    "gaussian_moment6",
    "gaussian_pdf",
    "gaussian_derivative_residual",
    "random_symplectic",
    "random_pure_cov",
    "sigma_star",
]

SYMMETRY_RTOL = 1e-12   # |cov - cov^T| may reach 10x this of max |cov|
# largest purity_defect of a pure covariance; the only purity tolerance
# (`MixtureEnsemble.validate` holds its d = 1 determinant defect to it)
PURITY_TOL = 1e-8


def symplectic_form(d: int) -> np.ndarray:
    """The 2d x 2d antisymmetric form Omega with Omega^2 = -I."""
    eye = np.eye(d)
    zero = np.zeros((d, d))
    omega = np.block([[zero, eye], [-eye, zero]])
    # construction-time sanity assertions
    assert np.array_equal(omega @ omega, -np.eye(2 * d))
    assert np.array_equal(omega.T, -omega)
    return omega


def sigma_star(a_H: float, hbar: float, d: int = 1) -> np.ndarray:
    """Coherent-state covariance: diag(hbar/(2 a_H) I, hbar a_H / 2 I)."""
    return np.diag(np.concatenate([np.full(d, hbar / (2.0 * a_H)),
                                   np.full(d, hbar * a_H / 2.0)]))


def _check_symmetric(cov: np.ndarray) -> None:
    scale = max(np.abs(cov).max(), 1e-300)
    if not np.abs(cov - cov.T).max() <= SYMMETRY_RTOL * scale * 10:
        raise ValueError("covariance matrix is not symmetric")


@dataclass
class GaussianState:
    """A Gaussian state: phase-space mean plus 2d x 2d covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.mean.ndim != 1 or self.mean.size % 2:
            raise ValueError("mean must be a 2d-vector (x block then p block)")
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ValueError("covariance shape does not match mean")
        if not np.isfinite(self.mean).all():
            raise ValueError("mean must be finite")
        if not np.isfinite(self.cov).all():
            raise ValueError("covariance must be finite")
        if not 0.0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        _check_symmetric(self.cov)
        if not np.linalg.eigvalsh(self.cov).min() > 0:
            raise ValueError("covariance must be positive definite")

    @property
    def d(self) -> int:
        return self.mean.size // 2


def purity_defect(cov: np.ndarray, hbar: float) -> float:
    """Max-norm deviation of (2 cov/hbar) from the symplectic condition."""
    cov = np.asarray(cov, dtype=float)
    _check_symmetric(cov)
    d = cov.shape[0] // 2
    omega = symplectic_form(d)
    a = 2.0 * cov / hbar
    return np.abs(a.T @ omega @ a - omega).max()


def is_pure_gaussian(cov: np.ndarray, hbar: float) -> bool:
    """True iff cov is the covariance of a pure Gaussian state."""
    return purity_defect(cov, hbar) <= PURITY_TOL


def whiten(mat: np.ndarray, sig_star: np.ndarray) -> np.ndarray:
    """sigma*^(-1/2) mat sigma*^(-1/2) for the diagonal sigma*; mat may be
    a stack (..., 2d, 2d).  sigma* itself whitens to I exactly, since
    sqrt(d * d) == d in floating point."""
    d = np.diag(sig_star)
    return mat / np.sqrt(np.outer(d, d))


def unwhiten(mat: np.ndarray, sig_star: np.ndarray) -> np.ndarray:
    """Inverse of `whiten`: sigma*^(1/2) mat sigma*^(1/2)."""
    d = np.diag(sig_star)
    return mat * np.sqrt(np.outer(d, d))


def nts_eigenvalues(cov: np.ndarray, sig_star: np.ndarray) -> np.ndarray:
    """Eigenvalues of the whitened covariance sigma*^(-1/2) cov sigma*^(-1/2);
    cov may be a stack."""
    return np.linalg.eigvalsh(whiten(np.asarray(cov, float), sig_star))


def window_excess(lam: np.ndarray, z: float) -> float:
    """How far whitened eigenvalues lam leave the squeeze window [1/z, z]:
    max(max lam - z, 1/z - min lam, 0).  The one squeeze-window test is
    `window_excess(nts_eigenvalues(cov, sigma_star), z) <= WINDOW_TOL`
    (`mixture`)."""
    return max(float(lam.max() - z), float(1.0 / z - lam.min()), 0.0)


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


def gaussian_pdf(beta: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Centered Gaussian density at rows of beta (shape (..., 2d))."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    q = np.einsum("...a,ab,...b->...", beta, inv, beta)
    return np.exp(-0.5 * q) / ((2.0 * np.pi) ** (n / 2.0) * np.sqrt(det))


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
    return s @ sigma_star(a_H, hbar, d) @ s.T

