"""Hot numeric kernels, vectorized with numpy.

The advection and diffusion kernels update their first array argument in
place; the rasterizers return a new array.

Advection is flux-form semi-Lagrangian (Lin & Rood 1996) with a constant
speed per grid line.  The line's Courant number c = speed dt / h splits
into an integer part, an exact shift of the cell averages, and a
fractional part, |c| < 1, moved by a second-order MUSCL finite-volume
update with the van Leer slope limiter.  Boundaries are outflow: inflow
cells take the edge value (zero-gradient ghost cells) and what leaves the
grid is lost, so the caller can measure it.  Any Courant number is
stable, conservative and positive; on lines with |c| < 1 the update is
plain MUSCL.  The split is memoised per (speeds, h, dt), so a run with
fixed speeds and step builds it once per distinct step.

Diffusion is exact in time for the semi-discrete heat equation (three-
point Laplacian, zero-flux Neumann boundaries): an orthonormal DCT-II
diagonalises it, so mass is conserved and the field stays positive at any
step.

The rasterizers add each Gaussian particle only on the index box of the
ascending grid(s) that holds its envelope, where its term exceeds
e^-ENVELOPE of its own peak.  Inside the box the term is the dense
formula, to the bit; each term left out is below e^-36 ~ 2.3e-16 of that
peak, so the result equals the dense sum to round-off.  A particle whose
box is empty (off the grid) or whose weight is 0 adds nothing.  For the
density matrix the envelope u^2/sxx + spp_c v^2/hbar^2 < 2 ENVELOPE, with
u = (x_i + x_j)/2 - mx and v = x_i - x_j, puts both x_i and x_j within
sqrt(2 ENVELOPE (sxx + hbar^2 / (4 spp_c))) of mx; in phase space
q(dx, dp) < 2 ENVELOPE bounds |dx| by sqrt(2 ENVELOPE sxx) and |dp| by
sqrt(2 ENVELOPE spp).
"""

import functools

import numpy as np
from scipy.fft import dctn, idctn

__all__ = ["advect_x", "advect_p", "diffuse",
           "rasterize_density", "rasterize_phase"]

_TINY = 1e-300
ENVELOPE = 36.0    # rasterizers drop terms below e^-ENVELOPE of their peak


def _courant_runs(speeds, h, dt):
    """Courant split of each line, grouped into runs of adjacent lines.

    Returns a tuple of (lines, shift, c, a, upwind_left): the slice of
    lines, their common integer shift, their fractional Courant numbers c
    (all of one sign), the slope weight a = +-(1 -+ c)/2 and whether the
    upwind cell lies on the left (c >= 0).
    """
    return _split_courant(np.asarray(speeds, dtype=float).tobytes(),
                          float(h), float(dt))


@functools.lru_cache(maxsize=16)
def _split_courant(speeds, h, dt):
    courant = np.frombuffer(speeds) * (dt / h)
    shift = np.trunc(courant)
    frac = courant - shift
    frac.flags.writeable = False     # shared by every caller of the memo
    key = np.stack([shift, frac >= 0.0])
    cuts = np.flatnonzero((key[:, 1:] != key[:, :-1]).any(axis=0)) + 1
    runs = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, courant.size]):
        c = frac[lo:hi]
        left = bool(c[0] >= 0.0)
        a = 0.5 * (1.0 - c) if left else -0.5 * (1.0 + c)
        a.flags.writeable = False
        runs.append((slice(lo, hi), int(shift[lo]), c, a, left))
    return tuple(runs)


def _shift(b, k):
    # move the cells of every line (axis 0 of b) by k, edge value flowing in
    n = b.shape[0]
    if k >= n or -k >= n:
        b[:] = b[:1] if k > 0 else b[-1:]
    elif k > 0:
        b[k:] = b[:-k]
        b[:k] = b[k:k + 1]
    elif k < 0:
        b[:k] = b[-k:]
        b[k:] = b[k - 1:k]


def _muscl(b, c, a, left):
    # b (n, lines) advected along axis 0 by the fractional Courant numbers c
    d = b[1:] - b[:-1]
    dl, dr = d[:-1], d[1:]
    g = np.empty_like(d)     # upwind face values at the n - 1 inner faces
    inner = g[1:] if left else g[:-1]
    # van Leer slope 2 dl dr / (dl + dr) where dl dr > 0, else 0
    np.multiply(dl, dr, out=inner)
    t = np.abs(inner)
    inner += t
    np.add(dl, dr, out=t)
    t += _TINY
    inner /= t
    inner *= a
    inner += b[1:-1]
    # the edge cells have zero slope
    if left:
        g[0] = b[0]
    else:
        g[-1] = b[-1]
    g *= c
    # boundary fluxes: the zero-gradient ghost cell, or the edge cell itself
    f_in = c * b[0]
    f_out = c * b[-1]
    b[1:-1] -= g[1:] - g[:-1]
    b[0] -= g[0] - f_in
    b[-1] -= f_out - g[-1]


def _advect(lines, runs):
    # lines(sl): view of the lines sl, advected axis first
    for sl, k, c, a, left in runs:
        b = lines(sl)
        if k:
            _shift(b, k)
        if c.any():
            _muscl(b, c, a, left)


def advect_x(vals, speeds, h, dt):
    """Advect along axis 0 at speed speeds[j] on column j."""
    _advect(lambda sl: vals[:, sl], _courant_runs(speeds, h, dt))


def advect_p(vals, speeds, h, dt):
    """Advect along axis 1 at speed speeds[i] on row i."""
    _advect(lambda sl: vals[sl].T, _courant_runs(speeds, h, dt))


def _decay(r, n):
    # exp(r L) on the DCT-II modes of the n-cell Neumann Laplacian L
    return np.exp(-4.0 * r * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2)


def diffuse(vals, rx, rp):
    """vals <- exp(rx Lx + rp Lp) vals, Lx, Lp the Neumann second
    differences along axes 0 and 1."""
    if rx == 0.0 and rp == 0.0:
        return
    n, m = vals.shape
    coef = dctn(vals, norm="ortho")
    coef *= _decay(rx, n)[:, None]
    coef *= _decay(rp, m)
    vals[:, :] = idctn(coef, norm="ortho", overwrite_x=True)


def _boxes(grid, centres, radii):
    """Index ranges [lo, hi) of the ascending grid within centres +- radii."""
    if np.any(grid[1:] <= grid[:-1]):
        raise ValueError("raster grid must be strictly ascending")
    return (np.searchsorted(grid, centres - radii, "left"),
            np.searchsorted(grid, centres + radii, "right"))


def rasterize_density(x, weights, alphas, covs, hbar):
    """Density matrix rho[i, j] of the Gaussian mixture on the grid x."""
    n = x.size
    rho = np.zeros((n, n), dtype=np.complex128)
    sxx, sxp, spp = covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]
    spp_c = spp - sxp**2 / sxx
    lo, hi = _boxes(x, alphas[:, 0], np.sqrt(
        2.0 * ENVELOPE * (sxx + hbar**2 / (4.0 * spp_c))))
    for k in np.flatnonzero((hi > lo) & (weights != 0.0)):
        box = slice(lo[k], hi[k])
        xb = x[box]
        mx, mp = alphas[k]
        u = 0.5 * (xb[:, None] + xb[None, :]) - mx
        v = xb[:, None] - xb[None, :]
        rho[box, box] += (weights[k] / np.sqrt(2.0 * np.pi * sxx[k])
                          * np.exp(-u**2 / (2.0 * sxx[k])
                                   - spp_c[k] * v**2 / (2.0 * hbar**2)
                                   + 1j * (mp + (sxp[k] / sxx[k]) * u)
                                   * v / hbar))
    return rho


def rasterize_phase(x, p, weights, alphas, covs):
    """Phase-space density vals[i, j] of the Gaussian mixture at
    (x[i], p[j])."""
    vals = np.zeros((x.size, p.size))
    sxx, sxp, spp = covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]
    xlo, xhi = _boxes(x, alphas[:, 0], np.sqrt(2.0 * ENVELOPE * sxx))
    plo, phi = _boxes(p, alphas[:, 1], np.sqrt(2.0 * ENVELOPE * spp))
    for k in np.flatnonzero((xhi > xlo) & (phi > plo) & (weights != 0.0)):
        xb, pb = slice(xlo[k], xhi[k]), slice(plo[k], phi[k])
        dx = (x[xb] - alphas[k, 0])[:, None]
        dp = (p[pb] - alphas[k, 1])[None, :]
        det = sxx[k] * spp[k] - sxp[k]**2
        q = (spp[k] * dx**2 - 2.0 * sxp[k] * dx * dp + sxx[k] * dp**2) / det
        vals[xb, pb] += (weights[k] / (2.0 * np.pi * np.sqrt(det))
                         * np.exp(-0.5 * q))
    return vals
