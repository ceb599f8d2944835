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

The squeeze window is enforced in whitened coordinates: the eigenvalues of
sigma-tilde = sigma_star^(-1/2) sigma sigma_star^(-1/2) stay in
[1/z_eff, z_eff].  At z = 1 the window collapses to sigma_star; a floor
z_eff >= Z_FLOOR keeps the relaxation term M nonstiff while remaining
conservative for the error budget.
"""

from dataclasses import dataclass, field

import numpy as np

from .fokker_planck import PhaseField
from .lindblad import DensityMatrixGrid
from .potentials import HamiltonianModel
from .rng import stream_normals
from .scales import DiffusionSpec, ScaleReport, step_schedule
from . import _kernels

__all__ = [
    "Z_FLOOR",
    "MixtureEnsemble",
    "coherent_ensemble",
    "effective_z",
    "m_matrix",
    "split_sdot",
    "evolve_mixture",
    "mixture_to_density_grid",
    "mixture_to_phase_field",
]

Z_FLOOR = 1.05


def effective_z(scales: ScaleReport, z_cap=None):
    """Squeeze bound actually enforced by the construction.

    With no diffusion drive the theorem gives no squeeze control; a user
    cap is then mandatory and results are flagged "bound not applicable"
    by the caller.  A floor above 1 keeps the relaxation matrix M finite.
    """
    if scales.z_infinite:
        if z_cap is None:
            raise ValueError("diffusion strength D0 is zero: supply z_cap "
                             "(the error bound is not applicable)")
        z = float(z_cap)
    else:
        z = scales.z if z_cap is None else min(scales.z, float(z_cap))
    return max(z, Z_FLOOR)


def _star_sqrt(scales: ScaleReport) -> np.ndarray:
    return np.sqrt(np.diag(scales.sigma_star))


def whiten(mat: np.ndarray, scales: ScaleReport) -> np.ndarray:
    s = _star_sqrt(scales)
    return mat / np.outer(s, s)


def unwhiten(mat: np.ndarray, scales: ScaleReport) -> np.ndarray:
    s = _star_sqrt(scales)
    return mat * np.outer(s, s)


def whiten_f(f: np.ndarray, scales: ScaleReport) -> np.ndarray:
    """Similarity transform sigma_star^(-1/2) F sigma_star^(1/2)."""
    s = _star_sqrt(scales)
    return f * np.outer(1.0 / s, s)


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


def split_sdot(alpha, sigma, model: HamiltonianModel,
               diffusion: DiffusionSpec, scales: ScaleReport, z: float):
    """Split the covariance derivative F s + s F^T + D into (S_Z, S_D).

    S_Z is tangent to pure Gaussians and keeps the squeeze window
    invariant; S_D is positive semidefinite on the window.
    """
    sigma = np.asarray(sigma, dtype=float)
    lam = np.linalg.eigvalsh(whiten(sigma, scales))
    if lam.min() < 1.0 / z - 1e-6 or lam.max() > z + 1e-6:
        raise ValueError("covariance is squeezed beyond the window "
                         f"[{1 / z:.4g}, {z:.4g}]: eigenvalues {lam}")
    sz, sd, _, _ = _batch_split_sdot(np.asarray(alpha, dtype=float)[None],
                                     sigma[None], model, diffusion, scales, z)
    return sz[0], sd[0]


def _noise_sqrt(mat: np.ndarray, abort_below: float = -1e-9) -> np.ndarray:
    lam, vec = np.linalg.eigh(mat)
    if lam.min() < abort_below * max(abs(lam).max(), 1.0):
        raise RuntimeError(f"noise covariance has eigenvalue {lam.min():.3g}"
                           " beyond tolerance")
    return vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


@dataclass
class MixtureEnsemble:
    """Weighted Gaussian particles (weight, center, pure sigma, blur C).

    The rasterized state uses per-particle total covariance sigma + C.
    Diagnostics accumulate worst-case purity/squeeze numbers over a run.
    """

    weights: np.ndarray
    alphas: np.ndarray
    covs: np.ndarray
    blurs: np.ndarray
    scales: ScaleReport
    z_eff: float
    seed: int
    steps_taken: int = 0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        self.blurs = np.asarray(self.blurs, dtype=float)
        m = self.weights.size
        n = self.alphas.shape[1]
        if self.alphas.shape != (m, n) or self.covs.shape != (m, n, n) \
                or self.blurs.shape != (m, n, n):
            raise ValueError("inconsistent particle array shapes")

    @property
    def m(self) -> int:
        return self.weights.size

    def total_covs(self) -> np.ndarray:
        return self.covs + self.blurs

    def squeeze_eigenvalues(self) -> np.ndarray:
        s = _star_sqrt(self.scales)
        return np.linalg.eigvalsh(self.covs / np.outer(s, s))

    def validate(self, nts_tol: float = 1e-6, purity_tol: float = 1e-8):
        if abs(self.weights.sum() - 1.0) > 1e-12 or self.weights.min() < 0:
            raise ValueError("weights must be nonnegative and sum to 1")
        hbar = self.scales.hbar
        dets = np.linalg.det(self.covs)
        if np.abs(dets / (hbar / 2.0) ** 2 - 1.0).max() > purity_tol:
            raise ValueError("a particle covariance is not pure")
        lam = self.squeeze_eigenvalues()
        if lam.max() > self.z_eff + nts_tol \
                or lam.min() < 1.0 / self.z_eff - nts_tol:
            raise ValueError("a particle violates the squeeze window")


def coherent_ensemble(alpha, scales: ScaleReport, seed: int,
                      z_cap=None) -> MixtureEnsemble:
    """Single coherent particle at alpha (the theorem's initial state)."""
    return MixtureEnsemble(
        weights=np.ones(1),
        alphas=np.asarray(alpha, dtype=float).reshape(1, 2),
        covs=scales.sigma_star[None, :, :].copy(),
        blurs=np.zeros((1, 2, 2)),
        scales=scales, z_eff=effective_z(scales, z_cap), seed=seed)


def _batch_split_sdot(alphas, covs, model, diffusion, scales, z):
    """Vectorized (S_Z, S_D, flow, F) over all particles (d = 1)."""
    m = alphas.shape[0]
    hess = np.atleast_1d(model.potential.hess(alphas[:, 0]))
    f = np.zeros((m, 2, 2))
    f[:, 0, 1] = 1.0 / model.mass
    f[:, 1, 0] = -hess
    ft = whiten_f(f, scales)
    st = whiten(covs, scales)
    mm = m_matrix(st, scales, z)
    a = ft - mm
    sz_t = a @ st + st @ a.transpose(0, 2, 1)
    d_t = whiten(diffusion.matrix(1), scales)
    sd_t = d_t[None, :, :] + mm @ st + st @ mm
    grad = np.atleast_1d(model.potential.grad(alphas[:, 0]))
    flow = np.stack([alphas[:, 1] / model.mass, -grad], axis=1)
    return unwhiten(sz_t, scales), unwhiten(sd_t, scales), flow, f


def evolve_mixture(ens: MixtureEnsemble, model: HamiltonianModel,
                   diffusion: DiffusionSpec, t_final: float, dt: float,
                   blur_cap=None, snapshot_times=None):
    """Evolve the whole ensemble; returns [(t, MixtureEnsemble)].

    Deterministic transport: joint 4th-order step of (alpha, sigma, C)
    along (flow, S_Z, F C + C F^T + S_D).  Purity projection and squeeze
    clamping run every step; blur exceeding `blur_cap` (whitened spectral
    norm) spills into center kicks keyed by (ens.seed, particle, step).
    `blur_cap=None` means never spill, exact for quadratic potentials;
    anharmonic models default to 4.0.  `domain_exits` counts the
    particle-steps whose center ends outside `model.domain`, where the
    sup-derivative bounds no longer hold.
    """
    if dt > 1e-2 * ens.scales.tau_H * (1.0 + 1e-12):
        raise ValueError("dt must be at most tau_H / 100")
    ens.validate()
    seed, scales, z = ens.seed, ens.scales, ens.z_eff
    lo, hi = model.domain
    if blur_cap is None and model.sup3 > 0:
        blur_cap = 4.0
    n_steps, dt, snap_steps = step_schedule(t_final, dt, snapshot_times)

    alphas = ens.alphas.copy()
    covs = ens.covs.copy()
    blurs = ens.blurs.copy()
    s = _star_sqrt(scales)
    w_out = np.outer(s, s)
    hbar = scales.hbar
    diag = dict(ens.diagnostics)
    diag.setdefault("max_defect_before", 0.0)
    diag.setdefault("max_displacement", 0.0)
    diag.setdefault("max_nts_violation", 0.0)
    diag.setdefault("spill_count", 0)
    diag.setdefault("domain_exits", 0)

    def snapshot(step):
        return MixtureEnsemble(ens.weights.copy(), alphas.copy(),
                               covs.copy(), blurs.copy(), scales, z, seed,
                               ens.steps_taken + step, dict(diag))

    out = [(0.0, snapshot(0))]

    for step in range(1, n_steps + 1):
        ka, ks, kc = [None] * 4, [None] * 4, [None] * 4
        a_s, c_s, b_s = alphas, covs, blurs
        for stage, w in enumerate((0.5, 0.5, 1.0, None)):
            sz, sd, flow, f = _batch_split_sdot(a_s, c_s, model, diffusion,
                                                scales, z)
            ka[stage] = flow
            ks[stage] = sz
            kc[stage] = f @ b_s + b_s @ f.transpose(0, 2, 1) + sd
            if w is not None:
                a_s = alphas + w * dt * ka[stage]
                c_s = covs + w * dt * ks[stage]
                b_s = blurs + w * dt * kc[stage]
        alphas = alphas + (dt / 6.0) * (ka[0] + 2 * ka[1] + 2 * ka[2] + ka[3])
        covs = covs + (dt / 6.0) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])
        blurs = blurs + (dt / 6.0) * (kc[0] + 2 * kc[1] + 2 * kc[2] + kc[3])

        # purity projection (d = 1: rescale onto det sigma = (hbar/2)^2)
        det = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] ** 2
        defect = np.abs(det / (hbar / 2.0) ** 2 - 1.0)
        diag["max_defect_before"] = max(diag["max_defect_before"],
                                        float(defect.max()))
        scale = (hbar / 2.0) / np.sqrt(det)
        diag["max_displacement"] = max(
            diag["max_displacement"],
            float((np.abs(covs) * np.abs(scale - 1.0)[:, None, None]).max()))
        covs *= scale[:, None, None]

        # squeeze-window clamp in whitened coordinates
        st = covs / w_out[None, :, :]
        lam, vec = np.linalg.eigh(st)
        violation = max(float((lam[:, 1] - z).max()),
                        float((1.0 / z - lam[:, 0]).max()), 0.0)
        diag["max_nts_violation"] = max(diag["max_nts_violation"], violation)
        if violation > 1e-6:
            raise RuntimeError(f"step {step}: squeeze window violated by "
                               f"{violation:.3g}; reduce dt")
        if violation > 0.0:
            lam_cl = np.clip(lam, 1.0 / z, z)
            lam_cl *= (np.sqrt(lam[:, 0] * lam[:, 1])
                       / np.sqrt(lam_cl[:, 0] * lam_cl[:, 1]))[:, None]
            st = np.einsum("mij,mj,mkj->mik", vec, lam_cl, vec)
            covs = st * w_out[None, :, :]

        # spill oversized blur into center kicks (exact Gaussian split)
        if blur_cap is not None:
            bt = blurs / w_out[None, :, :]
            norm = np.linalg.eigvalsh(bt)[:, 1]
            for i in np.nonzero(norm > blur_cap)[0]:
                kick = _noise_sqrt(blurs[i]) @ stream_normals(
                    seed, int(i), ens.steps_taken + step, (2,))
                alphas[i] += kick
                blurs[i] = 0.0
                diag["spill_count"] += 1

        x = alphas[:, 0]
        diag["domain_exits"] += int(np.count_nonzero((x < lo) | (x > hi)))
        if step in snap_steps:
            out.append((step * dt, snapshot(step)))
    return out


def mixture_to_density_grid(ens: MixtureEnsemble, mass: float, n: int,
                            x_min: float, x_max: float) -> DensityMatrixGrid:
    """Rasterize the mixture as a density matrix on a position grid."""
    x = x_min + (x_max - x_min) * np.arange(n) / n
    hbar = ens.scales.hbar
    rho = _kernels.rasterize_density(x, ens.weights, ens.alphas,
                                     ens.total_covs(), hbar)
    grid = DensityMatrixGrid(x, rho, hbar, mass)
    if abs(grid.trace() - 1.0) > 1e-6:
        raise ValueError(f"grid trace {grid.trace():.8f}: grid does not "
                         "cover the mixture")
    return grid


def mixture_to_phase_field(ens: MixtureEnsemble, x: np.ndarray,
                           p: np.ndarray, supersample: int = 1) -> PhaseField:
    """Rasterize the mixture as its phase-space (Wigner) density.

    With `supersample` = k > 1 each cell value is the average over a
    k x k stencil of interior sample points, i.e. the cell-average
    representation a finite-volume field stores; use this when comparing
    against `evolve_fokker_planck` output.  Requires uniform grids.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if supersample == 1:
        vals = _kernels.rasterize_phase(x, p, ens.weights, ens.alphas,
                                        ens.total_covs())
    else:
        k = int(supersample)
        if k < 1:
            raise ValueError("supersample must be a positive integer")
        offs = (np.arange(k) + 0.5) / k - 0.5
        xs = (x[:, None] + (x[1] - x[0]) * offs[None, :]).ravel()
        ps = (p[:, None] + (p[1] - p[0]) * offs[None, :]).ravel()
        fine = _kernels.rasterize_phase(xs, ps, ens.weights, ens.alphas,
                                        ens.total_covs())
        vals = fine.reshape(x.size, k, p.size, k).mean(axis=(1, 3))
    return PhaseField(x, p, vals)
