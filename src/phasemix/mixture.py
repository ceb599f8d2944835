"""Gaussian-mixture trajectory: a weighted particle ensemble over (alpha,
sigma) whose mixture tracks the quantum state up to the theorem's budget.

Each particle carries a weight, a phase-space center alpha, a *pure*
covariance sigma, and a center-spread ("blur") matrix C.  The generator is
split as

    sigma-dot = S_Z(alpha, sigma) + S_D(alpha, sigma)

where S_Z is tangent to the pure-Gaussian manifold and transports sigma,
while S_D >= 0 broadens the ensemble.  The blur matrix accumulates S_D
deterministically through the linearized flow (C-dot = F C + C F^T + S_D);
when its whitened norm exceeds `blur_cap` the blur is converted into a
stochastic center kick, which is exact in distribution for the mixture.
For quadratic potentials the linearized transport is exact, so a single
particle reproduces the full mixed Gaussian state with no sampling noise.

A `MixtureEnsemble` is a state only, like `DensityMatrixGrid`: it holds
the particles, hbar and the seed of its kick streams.  Each
`evolve_mixture` call derives the scales and the window z from the model,
diffusion and `z_cap` it is given, so a run cannot mix the scales of one
diffusion with the noise of another.

A step runs in sigma_star-whitened coordinates, X-tilde =
sigma_star^(-1/2) X sigma_star^(-1/2) for X = sigma, C, D, S_Z, S_D, and
F-tilde = sigma_star^(-1/2) F sigma_star^(1/2).  All of the rules are
stated there: purity is det sigma-tilde = 1, the squeeze window keeps the
eigenvalues of sigma-tilde in [1/z, z], z = `effective_z(scales,
z_cap)`, the relaxation M shares sigma-tilde's eigenvectors, S_D-tilde
>= 0, and a blur spills when its largest eigenvalue passes `blur_cap`.
sigma_star whitens to I exactly.  A run whitens D once; each step
whitens sigma and C once, and unwhitens them once after one
eigendecomposition sigma-tilde = V diag(l0, l1) V^T has projected every
particle onto V diag(1/r, r) V^T with r = min(sqrt(l1 / l0), z): purity
and the window in one move.  Between steps the state is in raw units, as
a snapshot holds it, so that a run resumed from a snapshot repeats an
unbroken one bit for bit; a whitening round trip is not exact.  At z = 1 the
window collapses to sigma_star; a floor z >= Z_FLOOR keeps M nonstiff
while remaining conservative for the error budget.  Every abort check is
written as `not x <= tol`, so that a NaN fails it.
"""

from dataclasses import dataclass, field

import numpy as np

from .fokker_planck import PhaseField
from .gaussian import (GaussianState, is_pure_gaussian, nts_eigenvalues,
                       unwhiten, whiten, window_excess)
from .lindblad import DensityMatrixGrid
from .potentials import HamiltonianModel, hamiltonian_matrix
from .rng import stream_normals
from .scales import (DiffusionSpec, ScaleReport, budget_z, compute_scales,
                     step_schedule)
from . import _kernels

__all__ = [
    "Z_FLOOR",
    "MixtureEnsemble",
    "coherent_ensemble",
    "effective_z",
    "m_matrix",
    "evolve_mixture",
    "mixture_to_density_grid",
    "mixture_to_phase_field",
]

Z_FLOOR = 1.05
# a spilled blur may have a negative eigenvalue down to this (relative)
# round-off; below it the blur is broken and the spill aborts
NOISE_ABORT_BELOW = -1e-9
# squeeze eigenvalues may pass the window by this; the only window tolerance
WINDOW_TOL = 1e-6


def effective_z(scales: ScaleReport, z_cap=None):
    """Squeeze bound z that `evolve_mixture` enforces: the budget's z
    (`budget_z`, which refuses D0 = 0 without a cap), capped by `z_cap`
    and floored at `Z_FLOOR`.  The floor above 1 keeps the relaxation
    matrix M finite.
    """
    z = budget_z(scales, z_cap)
    if z_cap is not None:
        z = min(float(z_cap), z)
    return max(z, Z_FLOOR)


def m_matrix(sigma_tilde: np.ndarray, scales: ScaleReport,
             z: float) -> np.ndarray:
    """Relaxation matrix M = m_rate (s - s^-1) / (1 - z^-2), whitened.

    Shares eigenvectors with sigma-tilde; vanishes at sigma-tilde = I and
    is antisymmetric under s -> s^-1.  Takes one 2x2 matrix or a stack
    (..., 2, 2).
    """
    if z <= 1.0:
        raise ValueError("m_matrix needs z > 1 (use effective_z)")
    st = np.asarray(sigma_tilde, dtype=float)
    # closed-form 2x2 inverse
    det = st[..., 0, 0] * st[..., 1, 1] - st[..., 0, 1] * st[..., 1, 0]
    inv = np.empty_like(st)
    inv[..., 0, 0] = st[..., 1, 1]
    inv[..., 1, 1] = st[..., 0, 0]
    inv[..., 0, 1] = -st[..., 0, 1]
    inv[..., 1, 0] = -st[..., 1, 0]
    inv /= det[..., None, None]
    m = scales.m_rate * (st - inv) / (1.0 - z**-2)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _noise_sqrt(mat: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(mat)
    if lam.min() < NOISE_ABORT_BELOW * max(abs(lam).max(), 1.0):
        raise RuntimeError(f"noise covariance has eigenvalue {lam.min():.3g}"
                           " beyond tolerance")
    return vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


@dataclass
class MixtureEnsemble:
    """Weighted Gaussian particles (weight, center, pure sigma, blur C).

    A state only: the particles, hbar (which fixes purity) and the seed
    of the kick streams.  The scales and the squeeze window belong to the
    run, which derives them from its model and diffusion.  The rasterized
    state uses per-particle total covariance sigma + C.  Diagnostics
    accumulate worst-case purity/squeeze numbers over a run.
    """

    weights: np.ndarray
    alphas: np.ndarray
    covs: np.ndarray
    blurs: np.ndarray
    hbar: float
    seed: int
    steps_taken: int = 0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        self.blurs = np.asarray(self.blurs, dtype=float)
        m = self.weights.size
        if self.alphas.shape != (m, 2) or self.covs.shape != (m, 2, 2) \
                or self.blurs.shape != (m, 2, 2):
            raise ValueError("inconsistent particle array shapes")

    @property
    def m(self) -> int:
        return self.weights.size

    def total_covs(self) -> np.ndarray:
        return self.covs + self.blurs

    def moments(self):
        """Mean (x, p) and 2x2 covariance of the mixture: the weighted
        total covariances plus the spread of the centres."""
        w = self.weights
        mean = w @ self.alphas
        dev = self.alphas - mean
        cov = (np.einsum("m,mij->ij", w, self.total_covs())
               + np.einsum("m,mi,mj->ij", w, dev, dev))
        return mean, cov

    def validate(self, sigma_star: np.ndarray, z: float):
        """Refuse bad weights, a non-finite blur, an impure particle or one
        outside the squeeze window [1/z, z] around sigma_star."""
        w = self.weights
        if not (abs(w.sum() - 1.0) <= 1e-12 and w.min() >= 0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.isfinite(self.blurs).all():
            raise ValueError("a particle blur is not finite")
        if not is_pure_gaussian(self.covs, self.hbar):
            raise ValueError("a particle covariance is not pure")
        lam = nts_eigenvalues(self.covs, sigma_star)
        if not window_excess(lam, z) <= WINDOW_TOL:
            raise ValueError("a particle violates the squeeze window")


def coherent_ensemble(alpha, scales: ScaleReport, seed: int,
                      particles: int = 1) -> MixtureEnsemble:
    """`particles` equal-weight copies of the coherent state at alpha (the
    theorem's initial state), with no blur; checked by `GaussianState`."""
    g = GaussianState(alpha, scales.sigma_star, scales.hbar)
    return MixtureEnsemble(
        weights=np.full(particles, 1.0 / particles),
        alphas=np.tile(g.mean, (particles, 1)),
        covs=np.tile(g.cov, (particles, 1, 1)),
        blurs=np.zeros((particles, 2, 2)), hbar=scales.hbar, seed=seed)


def _batch_split_sdot(alphas, sts, model, d_t, scales, z):
    """Vectorized (S_Z, S_D, flow, F) over all particles.

    Whitened in and out: takes sigma-tilde `sts` and D-tilde `d_t`, and
    returns S_Z-tilde, S_D-tilde and F-tilde, whose entries are
    F_ij s_j / s_i with s = sqrt(diag sigma_star).
    """
    s = np.sqrt(np.diag(scales.sigma_star))
    ft = hamiltonian_matrix(model, alphas) * (s / s[:, None])
    mm = m_matrix(sts, scales, z)
    a = ft - mm
    sz_t = a @ sts + sts @ a.transpose(0, 2, 1)
    sd_t = d_t + mm @ sts + sts @ mm
    grad = np.atleast_1d(model.potential.grad(alphas[:, 0]))
    flow = np.stack([alphas[:, 1] / model.mass, -grad], axis=1)
    return sz_t, sd_t, flow, ft


def evolve_mixture(ens: MixtureEnsemble, model: HamiltonianModel,
                   diffusion: DiffusionSpec, t_final: float, dt: float,
                   z_cap=None, blur_cap=None, snapshot_times=None):
    """Evolve the whole ensemble; returns [(t, MixtureEnsemble)].

    The run's scales are `compute_scales(model, diffusion)` and its
    squeeze window is `effective_z(scales, z_cap)`; `ens` must lie inside
    that window and share the diffusion's hbar.

    Deterministic transport: joint 4th-order step of (alpha, sigma-tilde,
    C-tilde) along (flow, S_Z-tilde, F-tilde C-tilde + C-tilde F-tilde^T
    + S_D-tilde), all in sigma_star-whitened coordinates.  One projection
    per step, V diag(1/r, r) V^T with r = min(sqrt(l1 / l0), z) from the
    eigenpairs of sigma-tilde, restores purity and the squeeze window; a
    step that leaves the window by more than `WINDOW_TOL` aborts.  Blur
    exceeding `blur_cap` (whitened spectral norm) spills into center kicks
    keyed by (ens.seed, particle, step).
    `blur_cap=None` means never spill, exact for quadratic potentials;
    anharmonic models default to 4.0.  `domain_exits` counts the
    particle-steps whose center ends outside `model.domain`, where the
    sup-derivative bounds no longer hold.  The projection's diagnostics:
    `max_defect_before` is the largest |det sigma-tilde - 1| it meets,
    `max_nts_violation` the largest window excess it removes, and
    `max_displacement` the largest entry change it makes, in units of
    sigma_star.
    """
    if diffusion.hbar != ens.hbar:
        raise ValueError("diffusion spec and ensemble disagree on hbar")
    scales = compute_scales(model, diffusion)
    z = effective_z(scales, z_cap)
    if dt > 1e-2 * scales.tau_H * (1.0 + 1e-12):
        raise ValueError("dt must be at most tau_H / 100")
    sig_star = scales.sigma_star
    ens.validate(sig_star, z)
    seed, hbar = ens.seed, ens.hbar
    lo, hi = model.domain
    if blur_cap is None and model.sup3 > 0:
        blur_cap = 4.0
    n_steps, dt, snap_steps = step_schedule(t_final, dt, snapshot_times)

    alphas = ens.alphas.copy()
    covs, blurs = ens.covs, ens.blurs
    d_t = whiten(diffusion.matrix(), sig_star)
    diag = dict(ens.diagnostics)
    diag.setdefault("max_defect_before", 0.0)
    diag.setdefault("max_displacement", 0.0)
    diag.setdefault("max_nts_violation", 0.0)
    diag.setdefault("spill_count", 0)
    diag.setdefault("domain_exits", 0)

    def snapshot(step):
        return MixtureEnsemble(ens.weights.copy(), alphas.copy(),
                               covs.copy(), blurs.copy(), hbar, seed,
                               ens.steps_taken + step, dict(diag))

    out = [(0.0, snapshot(0))]

    for step in range(1, n_steps + 1):
        # raw between steps, so that a resumed run repeats this one exactly
        sts, cts = whiten(covs, sig_star), whiten(blurs, sig_star)
        ka, ks, kc = [None] * 4, [None] * 4, [None] * 4
        a_s, s_s, c_s = alphas, sts, cts
        for stage, w in enumerate((0.5, 0.5, 1.0, None)):
            sz, sd, flow, ft = _batch_split_sdot(a_s, s_s, model, d_t,
                                                 scales, z)
            ka[stage] = flow
            ks[stage] = sz
            kc[stage] = ft @ c_s + c_s @ ft.transpose(0, 2, 1) + sd
            if w is not None:
                a_s = alphas + w * dt * ka[stage]
                s_s = sts + w * dt * ks[stage]
                c_s = cts + w * dt * kc[stage]
        alphas = alphas + (dt / 6.0) * (ka[0] + 2 * ka[1] + 2 * ka[2] + ka[3])
        sts = sts + (dt / 6.0) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])
        cts = cts + (dt / 6.0) * (kc[0] + 2 * kc[1] + 2 * kc[2] + kc[3])

        # one projection onto the pure window: V diag(1/r, r) V^T, where
        # the pure pair (1/r, r) keeps the eigenvalue ratio l1 / l0 = r^2
        lam, vec = np.linalg.eigh(sts)
        diag["max_defect_before"] = max(
            diag["max_defect_before"],
            float(np.abs(lam[:, 0] * lam[:, 1] - 1.0).max()))
        r = np.sqrt(lam[:, 1] / lam[:, 0])
        violation = window_excess(np.stack([1.0 / r, r], axis=1), z)
        diag["max_nts_violation"] = max(diag["max_nts_violation"], violation)
        if not violation <= WINDOW_TOL:
            raise RuntimeError(f"step {step}: squeeze window violated by "
                               f"{violation:.3g}; reduce dt")
        r = np.minimum(r, z)
        pure = np.einsum("mij,mj,mkj->mik", vec,
                         np.stack([1.0 / r, r], axis=1), vec)
        diag["max_displacement"] = max(diag["max_displacement"],
                                       float(np.abs(pure - sts).max()))
        covs, blurs = unwhiten(pure, sig_star), unwhiten(cts, sig_star)

        # a NaN blur never spills (norm > blur_cap is False for NaN), and
        # the rasterizers skip its particle, so stop here
        if not np.isfinite(cts).all():
            raise RuntimeError(f"step {step}: a particle blur is not finite")

        # spill oversized blur into center kicks (exact Gaussian split)
        if blur_cap is not None:
            norm = np.linalg.eigvalsh(cts)[:, 1]
            for i in np.nonzero(norm > blur_cap)[0]:
                normals = stream_normals(seed, int(i), ens.steps_taken + step,
                                         (2,))
                alphas[i] += _noise_sqrt(blurs[i]) @ normals
                blurs[i] = 0.0
                diag["spill_count"] += 1

        x = alphas[:, 0]
        diag["domain_exits"] += int(np.count_nonzero((x < lo) | (x > hi)))
        if step in snap_steps:
            out.append((step * dt, snapshot(step)))
    return out


def mixture_to_density_grid(ens: MixtureEnsemble,
                            x: np.ndarray) -> DensityMatrixGrid:
    """Rasterize the mixture as a density matrix on the position grid x.

    Pass the reference's own `DensityMatrixGrid.x`, so that the two
    states share one grid array; `trace_distance` refuses any other.
    """
    rho = _kernels.rasterize_density(x, ens.weights, ens.alphas,
                                     ens.total_covs(), ens.hbar)
    grid = DensityMatrixGrid(x, rho, ens.hbar)
    if not abs(grid.trace() - 1.0) <= 1e-6:
        raise ValueError(f"grid trace {grid.trace():.8f}: grid does not "
                         "cover the mixture")
    return grid


def mixture_to_phase_field(ens: MixtureEnsemble, x: np.ndarray,
                           p: np.ndarray, supersample: int = 1) -> PhaseField:
    """Rasterize the mixture as its phase-space (Wigner) density.

    With `supersample` = k > 1 each cell value is the kernel's mean over
    k x k interior sub-samples, the cell average a finite-volume field
    stores (use it against `evolve_fokker_planck`); it needs uniform grids.
    """
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    return PhaseField(x, p, _kernels.rasterize_phase(
        x, p, ens.weights, ens.alphas, ens.total_covs(), supersample))
