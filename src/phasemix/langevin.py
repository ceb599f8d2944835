"""Stochastic particle counterpart of the Fokker-Planck dynamics.

An ensemble of trajectories follows the Euler-Maruyama discretization

    dx = (p/m) dt + sqrt(D_x dt) xi_1
    dp = -V'(x) dt + sqrt(D_p dt) xi_2

with independent standard normals drawn from a counter-based generator, so
a run is reproducible from (seed, stream) alone regardless of chunking.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fokker_planck import PhaseField
from .potentials import HamiltonianModel
from .rng import LANGEVIN_STREAM, stream_generator, stream_normals
from .scales import DiffusionSpec, step_schedule

__all__ = [
    "LangevinEnsemble",
    "sample_gaussian_ensemble",
    "evolve_langevin_ensemble",
    "ensemble_histogram",
]


@dataclass
class LangevinEnsemble:
    """M classical phase-space samples plus the RNG record that made them."""

    x: np.ndarray
    p: np.ndarray
    seed: int
    steps_taken: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.x.shape != self.p.shape or self.x.ndim != 1:
            raise ValueError("x and p must be equal-length 1-d arrays")

    @property
    def m(self) -> int:
        return self.x.size

    def moments(self):
        mean = np.array([self.x.mean(), self.p.mean()])
        cov = np.cov(np.vstack([self.x, self.p]), ddof=1)
        return mean, cov


def sample_gaussian_ensemble(mean, cov, m: int, seed: int,
                             stream: int = LANGEVIN_STREAM
                             ) -> LangevinEnsemble:
    """Draw M phase-space points from a Gaussian via the counter-based RNG."""
    rng = stream_generator(seed, stream, step=0)
    pts = rng.multivariate_normal(np.asarray(mean, float),
                                  np.asarray(cov, float), size=m,
                                  method="cholesky")
    return LangevinEnsemble(pts[:, 0], pts[:, 1], seed)


def evolve_langevin_ensemble(ens: LangevinEnsemble, model: HamiltonianModel,
                             diffusion: DiffusionSpec, t_final: float,
                             dt: float, seed=None) -> LangevinEnsemble:
    """Euler-Maruyama integration of the whole ensemble.

    The noise for step k is keyed by (seed, stream, steps_taken + k), so
    continuing a run in pieces reproduces the single-shot result exactly.
    """
    seed = ens.seed if seed is None else seed
    n_steps, dt, _ = step_schedule(t_final, dt)
    x = ens.x.copy()
    p = ens.p.copy()
    sx = math.sqrt(diffusion.d_x * dt)
    sp = math.sqrt(diffusion.d_p * dt)
    for k in range(n_steps):
        xi = stream_normals(seed, LANGEVIN_STREAM,
                            ens.steps_taken + 1 + k, (2, x.size))
        grad = np.asarray(model.potential.grad(x))
        x += (p / model.mass) * dt + sx * xi[0]
        p += -grad * dt + sp * xi[1]
    return LangevinEnsemble(x, p, seed, ens.steps_taken + n_steps)


def ensemble_histogram(ens: LangevinEnsemble, x: np.ndarray,
                       p: np.ndarray) -> PhaseField:
    """Density histogram of the ensemble on the cell-centered (x, p) grid."""
    dx = x[1] - x[0]
    dp = p[1] - p[0]
    x_edges = np.concatenate([x - 0.5 * dx, [x[-1] + 0.5 * dx]])
    p_edges = np.concatenate([p - 0.5 * dp, [p[-1] + 0.5 * dp]])
    counts, _, _ = np.histogram2d(ens.x, ens.p, bins=(x_edges, p_edges))
    return PhaseField(x, p, counts / (ens.m * dx * dp))
