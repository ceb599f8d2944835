"""Gaussian-state primitives that a run uses.

The package runs in one dimension: a phase-space point is (x, p) and a
covariance is 2 x 2.  `GaussianState` decides this for every Gaussian input
of the pipeline: it refuses a mean that is not one (x, p) pair, a
covariance that is not 2 x 2, finite, symmetric and positive definite, and
an hbar that is not positive and finite.  `GaussianState.check_covered` is
the one grid-coverage rule: a grid must reach six standard deviations past
the mean on either side.

A covariance sigma belongs to a pure Gaussian state iff (2/hbar) sigma is
symplectic.  A 2 x 2 matrix is symplectic iff its determinant is 1, so the
one purity formula is `purity_defect` = |det sigma / (hbar/2)^2 - 1|, on one
matrix or a stack.  The d-general symplectic form and defect, and the other
helpers of the lemma checks (moments, eigen-pairs, the derivative identity,
random symplectic matrices), live in tests/gaussian_lemmas.py.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
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
PURITY_TOL = 1e-8


def sigma_star(a_H: float, hbar: float) -> np.ndarray:
    """Coherent-state covariance diag(hbar / (2 a_H), hbar a_H / 2)."""
    return np.diag([hbar / (2.0 * a_H), hbar * a_H / 2.0])


def _check_symmetric(cov: np.ndarray) -> None:
    """Refuse a matrix, or any matrix of a stack, that is not symmetric."""
    scale = np.maximum(np.abs(cov).max(axis=(-2, -1)), 1e-300)
    asym = np.abs(cov - np.swapaxes(cov, -1, -2)).max(axis=(-2, -1))
    if not (asym <= SYMMETRY_RTOL * scale * 10).all():
        raise ValueError("covariance matrix is not symmetric")


@dataclass
class GaussianState:
    """A Gaussian state: phase-space mean (x, p) plus 2 x 2 covariance."""

    mean: np.ndarray
    cov: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.mean.shape != (2,):
            raise ValueError("mean must be one phase-space point (x, p)")
        if self.cov.shape != (2, 2):
            raise ValueError("covariance must be 2 x 2")
        if not np.isfinite(self.mean).all():
            raise ValueError("mean must be finite")
        if not np.isfinite(self.cov).all():
            raise ValueError("covariance must be finite")
        if not 0.0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        _check_symmetric(self.cov)
        if not np.linalg.eigvalsh(self.cov).min() > 0:
            raise ValueError("covariance must be positive definite")

    def check_covered(self, lo: float, hi: float, axis: int = 0) -> None:
        """Refuse a grid [lo, hi] along `axis` that misses the mean +- 6
        standard deviations; written so that a NaN bound fails it."""
        c, sd = self.mean[axis], np.sqrt(self.cov[axis, axis])
        if not (lo <= c - 6.0 * sd and c + 6.0 * sd <= hi):
            raise ValueError(f"grid too small: [{lo:.3g}, {hi:.3g}] must "
                             f"cover the mean {c:.3g} +- 6 standard "
                             f"deviations ({6.0 * sd:.3g}) along axis {axis}")


def purity_defect(cov: np.ndarray, hbar: float) -> float:
    """max |det cov / (hbar/2)^2 - 1| over one 2 x 2 covariance or a stack
    (..., 2, 2): how far (2 cov / hbar) is from symplectic."""
    cov = np.asarray(cov, dtype=float)
    _check_symmetric(cov)
    return float(np.abs(np.linalg.det(cov) / (hbar / 2.0) ** 2 - 1.0).max())


def is_pure_gaussian(cov: np.ndarray, hbar: float) -> bool:
    """True iff cov is the covariance of a pure Gaussian state."""
    return purity_defect(cov, hbar) <= PURITY_TOL


def whiten(mat: np.ndarray, sig_star: np.ndarray) -> np.ndarray:
    """sigma*^(-1/2) mat sigma*^(-1/2) for the diagonal sigma*; mat may be
    a stack.  sigma* itself whitens to I exactly, since
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
