"""Error of the local quadratic approximation acting on a Gaussian state.

Replacing the potential V by its second-order Taylor expansion about the
packet center changes the generator by a term proportional to the
third-derivative scale J3 = sup|V'''|.  Acting on a pure Gaussian of
covariance sigma, the residual generator is bounded in trace norm
(quantum) and L1 norm (classical) by

    sqrt(5 / 3) * J3 * sigma_xx^(3/2) / hbar    (quantum)
    sqrt(3)     * J3 * sigma_xx^(3/2) / hbar    (classical)

These are the paper's bounds for d = 1 degree of freedom: their factor
d^(3/2) is 1, and the operator norm of the position block of sigma is
sigma_xx.  The single constant mu = sqrt(3) J3 sigma_xx^(3/2) / hbar
dominates both (it equals the classical constant and exceeds the quantum
one).  This module computes the bounds and also evaluates the residual
generators explicitly on grids so that the bounds can be checked
numerically.  One private helper, `_taylor_residual`, gives
V - V_quad and V' - V_quad' on a grid for the expansion about the packet
centre.  The Gaussian tau on those grids comes from the pipeline's own
rasters: `_kernels.rasterize_density` for the density matrix and
`_kernels.rasterize_phase` for the phase-space density.  Each bound
validates sigma, and each numeric (alpha, sigma), as a `GaussianState`;
a numeric also refuses a grid that does not reach six standard
deviations past the mean on either side (`GaussianState.check_covered`,
in x and, for the classical one, in p).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .gaussian import GaussianState
from .potentials import HamiltonianModel

__all__ = [
    "HarmonicErrorReport",
    "lemma_bound_quantum",
    "lemma_bound_classical",
    "numeric_harmonic_error_quantum",
    "numeric_harmonic_error_classical",
    "harmonic_error_report",
]

BOUND_TOL = 0.05        # share by which numerics may exceed a bound


def _sigma_xx(sigma: np.ndarray) -> float:
    # a centred `GaussianState` checks sigma's shape (2 x 2) and values
    return float(GaussianState(np.zeros(2), sigma).cov[0, 0])


def lemma_bound_quantum(sigma, model: HamiltonianModel,
                        hbar: float) -> float:
    """Trace-norm bound sqrt(5/3) J3 sigma_xx^(3/2) / hbar."""
    return math.sqrt(5.0 / 3.0) * model.sup3 * _sigma_xx(sigma)**1.5 / hbar


def lemma_bound_classical(sigma, model: HamiltonianModel,
                          hbar: float) -> float:
    """L1-norm bound sqrt(3) J3 sigma_xx^(3/2) / hbar."""
    return math.sqrt(3.0) * model.sup3 * _sigma_xx(sigma)**1.5 / hbar


def _taylor_residual(model: HamiltonianModel, a_x: float, x: np.ndarray):
    """(V - V_quad, V' - V_quad') on x, with V_quad the second-order Taylor
    expansion of V about a_x, which must lie inside the model's domain."""
    lo, hi = model.domain
    if not lo <= a_x <= hi:
        raise ValueError(f"expansion point {a_x} outside domain {model.domain}")
    pot = model.potential
    v, g, h = float(pot.value(a_x)), float(pot.grad(a_x)), float(pot.hess(a_x))
    dx = np.asarray(x) - float(a_x)
    return (pot.value(x) - (v + g * dx + 0.5 * h * dx**2),
            pot.grad(x) - (g + h * dx))


def numeric_harmonic_error_quantum(alpha, sigma, model: HamiltonianModel,
                                   hbar: float, grid: np.ndarray) -> float:
    """Trace norm of the residual generator on a pure Gaussian.

    Builds dV = V - V_quad on the position grid, forms the commutator term
    -(i/hbar) [dV, tau] for the Gaussian tau rasterized by
    `_kernels.rasterize_density`, and returns the sum of the absolute
    eigenvalues (trace norm with the grid measure).
    """
    g = GaussianState(alpha, sigma, hbar)
    x = np.asarray(grid, dtype=float)
    dx = x[1] - x[0]
    g.check_covered(x[0], x[-1])

    dv, _ = _taylor_residual(model, g.mean[0], x)
    tau = _kernels.rasterize_density(x, np.ones(1), g.mean[None], g.cov[None],
                                     hbar)
    comm = (-1j / hbar) * (dv[:, None] - dv[None, :]) * tau
    return float(np.abs(np.linalg.eigvalsh(comm * dx)).sum())


def numeric_harmonic_error_classical(alpha, sigma, model: HamiltonianModel,
                                     grid) -> float:
    """L1 norm of the residual generator on a Gaussian phase density.

    The residual is tau * (sigma^-1 beta)_p * dV'(x) with dV' the gradient
    mismatch of the quadratic expansion; `grid` is an (x, p) pair of
    cell-centered axes.
    """
    g = GaussianState(alpha, sigma)
    x, p = (np.asarray(axis, dtype=float) for axis in grid)
    g.check_covered(x[0], x[-1], 0)
    g.check_covered(p[0], p[-1], 1)

    a_x, a_p = g.mean
    tau = _kernels.rasterize_phase(x, p, np.ones(1), g.mean[None], g.cov[None])
    inv = np.linalg.inv(g.cov)
    lever_p = inv[1, 0] * (x - a_x)[:, None] + inv[1, 1] * (p - a_p)
    _, dv_grad = _taylor_residual(model, a_x, x)
    integrand = tau * lever_p * dv_grad[:, None]
    cell = (x[1] - x[0]) * (p[1] - p[0])
    return float(np.abs(integrand).sum() * cell)


@dataclass
class HarmonicErrorReport:
    """Bounds, numerics, and their ratios for one (alpha, sigma, model)."""

    bound_quantum: float
    bound_classical: float
    numeric_quantum: float
    numeric_classical: float

    @property
    def ratio_quantum(self) -> float:
        return self.numeric_quantum / self.bound_quantum \
            if self.bound_quantum > 0 else 0.0

    @property
    def ratio_classical(self) -> float:
        return self.numeric_classical / self.bound_classical \
            if self.bound_classical > 0 else 0.0

    def validate(self):
        """Numerics must not exceed the bounds beyond `BOUND_TOL`."""
        slack = 1.0 + BOUND_TOL
        if self.numeric_quantum > self.bound_quantum * slack + 1e-12:
            raise ValueError("quantum numeric error exceeds the bound: "
                             f"{self.numeric_quantum} > {self.bound_quantum}")
        if self.numeric_classical > self.bound_classical * slack + 1e-12:
            raise ValueError("classical numeric error exceeds the bound: "
                             f"{self.numeric_classical} > "
                             f"{self.bound_classical}")


def harmonic_error_report(alpha, sigma, model: HamiltonianModel, hbar: float,
                          x_grid, p_grid) -> HarmonicErrorReport:
    """Evaluate both bounds and both numerics on the supplied grids."""
    rep = HarmonicErrorReport(
        bound_quantum=lemma_bound_quantum(sigma, model, hbar),
        bound_classical=lemma_bound_classical(sigma, model, hbar),
        numeric_quantum=numeric_harmonic_error_quantum(alpha, sigma, model,
                                                       hbar, x_grid),
        numeric_classical=numeric_harmonic_error_classical(
            alpha, sigma, model, (x_grid, p_grid)),
    )
    rep.validate()
    return rep
