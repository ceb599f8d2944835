"""Stochastic particle counterpart of the Fokker-Planck dynamics.

An ensemble of trajectories follows the simplified weak Euler scheme
(Kloeden & Platen 1992, section 14.1)

    dx = (p/m) dt + sqrt(D_x dt) xi_1
    dp = -V'(x) dt + sqrt(D_p dt) xi_2

the Euler-Maruyama update with two-point increments: xi_1, xi_2 are
independent fair signs +-1 instead of standard normals.  They have the
Gaussian increments' mean and covariance, so the ensemble's law converges
with the same weak order 1 (Talay & Tubaro 1990); the individual paths do
not converge and carry no meaning, only the distribution does.  The signs
are raw bits of a counter-based generator, 64 increments per 64-bit word,
so a run is reproducible from (seed, stream) alone regardless of chunking.

Each step runs over contiguous slices of `BLOCK` particles, so that a
slice's positions, momenta, kicks and gradient temporaries stay in the L2
cache instead of streaming the whole ensemble through memory once per
numpy operation.  Every particle goes through the same operations in the
same order as on the whole array, so the result does not depend on the
slicing, to the bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fokker_planck import PhaseField
from .gaussian import GaussianState
from .potentials import HamiltonianModel
from .rng import LANGEVIN_STREAM, stream_normals, stream_signs
from .scales import DiffusionSpec, step_schedule

__all__ = [
    "LangevinEnsemble",
    "sample_gaussian_ensemble",
    "evolve_langevin_ensemble",
    "ensemble_histogram",
]

# particles per slice of the step: 128 KiB per float array, so a slice's
# x, p, gradient temporaries, kick and buffer stay in a 2 MiB L2 cache
BLOCK = 16384


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


def sample_gaussian_ensemble(mean, cov, m: int, seed: int) -> LangevinEnsemble:
    """Draw M phase-space points from a Gaussian via the counter-based RNG.

    The noise is step 0 of the Langevin stream, which no step of
    `evolve_langevin_ensemble` uses.  The Gaussian is checked by
    `GaussianState`.
    """
    g = GaussianState(mean, cov)
    factor = np.linalg.cholesky(g.cov)
    pts = g.mean + stream_normals(seed, LANGEVIN_STREAM, 0, (m, 2)) @ factor.T
    return LangevinEnsemble(pts[:, 0], pts[:, 1], seed)


def evolve_langevin_ensemble(ens: LangevinEnsemble, model: HamiltonianModel,
                             diffusion: DiffusionSpec, t_final: float,
                             dt: float) -> LangevinEnsemble:
    """Weak Euler integration of the whole ensemble with +-sqrt(D dt) kicks.

    The signs for step k are the bits of the (ens.seed, LANGEVIN_STREAM,
    steps_taken + k) block: bits [0, M) kick x and bits [M, 2M) kick p.
    Continuing a run in pieces therefore reproduces the single-shot result
    exactly, and so does the slicing of each step into `BLOCK` particles.
    """
    n_steps, dt, _ = step_schedule(t_final, dt)
    x = ens.x.copy()
    p = ens.p.copy()
    m = x.size
    sx = math.sqrt(diffusion.d_x * dt)
    sp = math.sqrt(diffusion.d_p * dt)
    kick = np.empty(min(m, BLOCK))
    buf = np.empty_like(kick)
    for k in range(n_steps):
        bits = stream_signs(ens.seed, LANGEVIN_STREAM,
                            ens.steps_taken + 1 + k, 2 * m)
        for lo in range(0, m, BLOCK):
            hi = min(lo + BLOCK, m)
            xs, ps = x[lo:hi], p[lo:hi]
            ks, bs = kick[:hi - lo], buf[:hi - lo]
            grad = np.asarray(model.potential.grad(xs))
            # bit b gives the kick 2 s b - s, which is exactly +-s
            np.multiply(bits[lo:hi], 2.0 * sx, out=ks)
            ks -= sx
            np.divide(ps, model.mass, out=bs)
            bs *= dt
            bs += ks
            xs += bs
            np.multiply(bits[m + lo:m + hi], 2.0 * sp, out=ks)
            ks -= sp
            np.multiply(grad, -dt, out=bs)
            bs += ks
            ps += bs
    return LangevinEnsemble(x, p, ens.seed, ens.steps_taken + n_steps)


def ensemble_histogram(ens: LangevinEnsemble, x: np.ndarray,
                       p: np.ndarray) -> PhaseField:
    """Density histogram of the ensemble on the cell-centered (x, p) grid."""
    dx = x[1] - x[0]
    dp = p[1] - p[0]
    x_edges = np.concatenate([x - 0.5 * dx, [x[-1] + 0.5 * dx]])
    p_edges = np.concatenate([p - 0.5 * dp, [p[-1] + 0.5 * dp]])
    counts, _, _ = np.histogram2d(ens.x, ens.p, bins=(x_edges, p_edges))
    return PhaseField(x, p, counts / (ens.m * dx * dp))
