"""Hot numeric kernels, vectorized with numpy.

The advection and diffusion kernels update their first array argument in
place; the rasterizers return a new array.

Advection uses a second-order MUSCL finite-volume update with the van Leer
slope limiter, constant speed per grid line, and zero-gradient (outflow)
ghost cells.  Diffusion is forward-time centered-space with zero-flux
boundaries.
"""

import numpy as np

__all__ = ["advect_x", "advect_p", "diffuse",
           "rasterize_density", "rasterize_phase"]

_TINY = 1e-300


def _advect_axis0(vals, speeds, h, dt):
    # vals (n, m), speeds (m,): per-column constant speed along axis 0
    n = vals.shape[0]
    u = np.concatenate([vals[:1], vals[:1], vals, vals[-1:], vals[-1:]],
                       axis=0)
    d = np.diff(u, axis=0)
    dl, dr = d[:-1], d[1:]
    prod = dl * dr
    s = np.where(prod > 0.0, 2.0 * prod / (dl + dr + _TINY), 0.0)
    c = speeds * dt / h
    f_pos = speeds * (u[1:n + 2] + 0.5 * (1.0 - c) * s[:n + 1])
    f_neg = speeds * (u[2:n + 3] - 0.5 * (1.0 + c) * s[1:n + 2])
    f = np.where(speeds >= 0.0, f_pos, f_neg)
    vals -= (dt / h) * (f[1:] - f[:-1])


def advect_x(vals, speeds, h, dt):
    _advect_axis0(vals, speeds, h, dt)


def advect_p(vals, speeds, h, dt):
    tr = np.ascontiguousarray(vals.T)
    _advect_axis0(tr, speeds, h, dt)
    vals[:, :] = tr.T


def diffuse(vals, rx, rp):
    padded = np.pad(vals, 1, mode="edge")
    vals += (rx * (padded[2:, 1:-1] - 2.0 * vals + padded[:-2, 1:-1])
             + rp * (padded[1:-1, 2:] - 2.0 * vals + padded[1:-1, :-2]))


def rasterize_density(x, weights, alphas, covs, hbar):
    n = x.size
    rho = np.zeros((n, n), dtype=np.complex128)
    u0 = 0.5 * (x[:, None] + x[None, :])
    v = x[:, None] - x[None, :]
    for k in range(weights.size):
        mx, mp = alphas[k]
        sxx, sxp, spp = covs[k, 0, 0], covs[k, 0, 1], covs[k, 1, 1]
        spp_c = spp - sxp**2 / sxx
        u = u0 - mx
        rho += (weights[k] / np.sqrt(2.0 * np.pi * sxx)
                * np.exp(-u**2 / (2.0 * sxx)
                         - spp_c * v**2 / (2.0 * hbar**2)
                         + 1j * (mp + (sxp / sxx) * u) * v / hbar))
    return rho


def rasterize_phase(x, p, weights, alphas, covs):
    vals = np.zeros((x.size, p.size))
    for k in range(weights.size):
        dx = (x - alphas[k, 0])[:, None]
        dp = (p - alphas[k, 1])[None, :]
        sxx, sxp, spp = covs[k, 0, 0], covs[k, 0, 1], covs[k, 1, 1]
        det = sxx * spp - sxp**2
        q = (spp * dx**2 - 2.0 * sxp * dx * dp + sxx * dp**2) / det
        vals += weights[k] / (2.0 * np.pi * np.sqrt(det)) * np.exp(-0.5 * q)
    return vals
