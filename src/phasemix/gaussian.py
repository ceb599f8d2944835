"""Gaussian-state and symplectic-matrix primitives that a run uses.

Conventions: phase-space vectors are ordered (x_1..x_d, p_1..p_d); the
symplectic form is Omega = [[0, I], [-I, 0]].  A covariance matrix sigma
belongs to a pure Gaussian state iff (2/hbar)*sigma is symplectic, in which
case its eigenvalues come in pairs (lam, (hbar/2)^2 / lam).  Every Gaussian
input of the pipeline is checked by building a `GaussianState` (finite,
symmetric positive definite, hbar positive and finite), and
`GaussianState.check_covered` is the one grid-coverage rule: a grid must
reach six standard deviations past the mean on either side.  The helpers of
the lemma checks (moments, eigen-pairs, the derivative identity, random
symplectic matrices) live in tests/gaussian_lemmas.py.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "symplectic_form",
    "GaussianState",
    "is_pure_gaussian",
    "purity_defect",
    "whiten",
    "unwhiten",
    "window_excess",
    "nts_eigenvalues",
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

    def check_covered(self, lo: float, hi: float, axis: int = 0) -> None:
        """Refuse a grid [lo, hi] along `axis` that misses the mean +- 6
        standard deviations; written so that a NaN bound fails it."""
        c, sd = self.mean[axis], np.sqrt(self.cov[axis, axis])
        if not (lo <= c - 6.0 * sd and c + 6.0 * sd <= hi):
            raise ValueError(f"grid too small: [{lo:.3g}, {hi:.3g}] must "
                             f"cover the mean {c:.3g} +- 6 standard "
                             f"deviations ({6.0 * sd:.3g}) along axis {axis}")


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
