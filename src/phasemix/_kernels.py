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
plain MUSCL.  The split is memoised per (speeds, h, dt, block width), so
a run with fixed speeds and step builds it once per distinct step.

Both phase-space kernels work in blocks of about BLOCK cells (one line or
row when that holds more), whose temporaries stay in a 2 MiB L2 cache:
advection gathers each run, shifted, into C-ordered (n, lines) copies of
BLOCK // n lines of length n, runs MUSCL on each and writes it back; the
phase raster fills each particle's slab BLOCK // (k^2 box_p) x rows at a
time.  MUSCL couples cells only along a line and the raster only across a
cell's k x k sub-samples, so each cell sees the same operations in the
same order in any block: the output is bit-identical to the unblocked loop.

Diffusion is exact in time for the semi-discrete heat equation (three-
point Laplacian, zero-flux Neumann boundaries): an orthonormal DCT-II
diagonalises it, so mass is conserved and the field stays positive at any
step.

The rasterizers add each Gaussian particle only on the index box of the
ascending grid(s) that holds its envelope, where its term exceeds
e^-ENVELOPE ~ 2.3e-16 of its own peak, so the result equals the dense sum
to round-off; an off-grid or weightless particle adds nothing.  The
density-matrix envelope keeps the (u, v) form, u = (x_i + x_j)/2 - mx,
v = x_i - x_j (in x_i, x_j monomials its terms cancel for a blurred
particle), one real exp per entry; the phase (mp + u sxp/sxx) v / hbar =
phi_i - phi_j enters as an outer product e e^H.  With `supersample` = k
the phase raster averages each cell over k x k sub-samples in the kernel.
"""

import functools

import numpy as np
from scipy.fft import dctn, idctn

__all__ = ["advect_x", "advect_p", "diffuse",
           "rasterize_density", "rasterize_phase"]

_TINY = 1e-300
BLOCK = 32768      # cells per kernel block: 256 KiB per float array
ENVELOPE = 36.0    # rasterizers drop terms below e^-ENVELOPE of their peak


def _courant_runs(speeds, h, dt, n):
    """Courant split of each line, grouped into blocks of adjacent lines.

    Returns a tuple of (lines, shift, c, a, upwind_left): a slice of up
    to max(BLOCK // n, 1) lines of length n, their common integer shift,
    their fractional Courant numbers c (all of one sign), the slope weight
    a = +-(1 -+ c)/2 and whether the upwind cell lies on the left (c >= 0).
    A line at rest (c = 0) takes the same MUSCL update, which leaves a
    finite line unchanged bit for bit.
    """
    return _split_courant(np.asarray(speeds, dtype=float).tobytes(),
                          float(h), float(dt), max(BLOCK // n, 1))


@functools.lru_cache(maxsize=16)
def _split_courant(speeds, h, dt, width):
    courant = np.frombuffer(speeds) * (dt / h)
    shift = np.trunc(courant)
    frac = courant - shift
    frac.flags.writeable = False     # shared by every caller of the memo
    key = np.stack([shift, frac >= 0.0])
    cuts = np.flatnonzero((key[:, 1:] != key[:, :-1]).any(axis=0)) + 1
    blocks = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, courant.size]):
        left = bool(frac[lo] >= 0.0)
        for start in range(lo, hi, width):
            c = frac[start:min(start + width, hi)]
            a = 0.5 * (1.0 - c) if left else -0.5 * (1.0 + c)
            a.flags.writeable = False
            blocks.append((slice(start, start + c.size), int(shift[lo]),
                           c, a, left))
    return tuple(blocks)


def _gather(lines, k):
    # C-ordered copy of lines (n, w) moved by k on axis 0, edge flowing in
    n = lines.shape[0]
    lo, hi = min(max(k, 0), n), max(min(n + k, n), 0)
    b = np.empty(lines.shape)
    b[:lo], b[lo:hi], b[hi:] = lines[0], lines[lo - k:hi - k], lines[-1]
    return b


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


def _advect(lines, n, speeds, h, dt):
    # lines(sl): view of the lines sl, advected axis (length n) first
    for sl, k, c, a, left in _courant_runs(speeds, h, dt, n):
        b = _gather(lines(sl), k)
        _muscl(b, c, a, left)
        lines(sl)[...] = b


def advect_x(vals, speeds, h, dt):
    """Advect along axis 0 at speed speeds[j] on column j."""
    _advect(lambda sl: vals[:, sl], vals.shape[0], speeds, h, dt)


def advect_p(vals, speeds, h, dt):
    """Advect along axis 1 at speed speeds[i] on row i."""
    _advect(lambda sl: vals[sl].T, vals.shape[1], speeds, h, dt)


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


def _boxes(grid, centres, radii, k=1):
    """Cells [lo, hi) of the ascending grid with a sub-sample in centres +-
    radii, and the offsets of k sub-samples h/k apart (uniform h if k > 1)."""
    step = np.diff(grid)
    if np.any(step <= 0.0):
        raise ValueError("raster grid must be strictly ascending")
    if k < 1:
        raise ValueError("supersample must be a positive integer")
    h = (grid[-1] - grid[0]) / max(grid.size - 1, 1) if k > 1 else 0.0
    if k > 1 and not (h > 0.0 and np.abs(step - h).max() <= 1e-9 * h):
        raise ValueError("supersampling needs a uniform grid")
    offs = h * ((np.arange(k) + 0.5) / k - 0.5)
    return (np.searchsorted(grid, centres - radii - offs[-1], "left"),
            np.searchsorted(grid, centres + radii + offs[-1], "right"), offs)


def rasterize_density(x, weights, alphas, covs, hbar):
    """Density matrix rho[i, j] of the Gaussian mixture on the grid x."""
    rho = np.zeros((x.size, x.size), dtype=np.complex128)
    sxx, sxp, spp = covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]
    spp_c = spp - sxp**2 / sxx
    norm = np.sqrt(weights / np.sqrt(2.0 * np.pi * sxx))
    lo, hi, _ = _boxes(x, alphas[:, 0], np.sqrt(
        2.0 * ENVELOPE * (sxx + hbar**2 / (4.0 * spp_c))))
    for k in np.flatnonzero((hi > lo) & (weights != 0.0)):
        box = slice(lo[k], hi[k])
        mx, mp = alphas[k]
        dxl = x[box].astype(np.longdouble) - mx     # X_i to 64 bits
        dx = dxl.astype(float)
        env = np.exp(-np.add.outer(dx, dx)**2 / (8.0 * sxx[k]) - spp_c[k]
                     * np.subtract.outer(dx, dx)**2 / (2.0 * hbar**2))
        # phi_i in long double, mod 2 pi: a double phi_i errs by eps |phi_i|
        phi = np.remainder((mp + 0.5 * (sxp[k] / sxx[k]) * dxl) * dxl / hbar,
                           2.0 * np.arccos(np.longdouble(-1.0)))
        e = norm[k] * np.exp(1j * phi.astype(float))
        rho[box, box] += env * np.multiply.outer(e, e.conj())
    return rho


def rasterize_phase(x, p, weights, alphas, covs, supersample=1):
    """Phase-space density vals[i, j] of the Gaussian mixture at (x[i],
    p[j]), or with `supersample` = k its mean over k x k cell sub-samples."""
    k = int(supersample)
    vals = np.zeros((x.size, p.size))
    sxx, sxp, spp = covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]
    det = sxx * spp - sxp**2
    xlo, xhi, sx = _boxes(x, alphas[:, 0], np.sqrt(2.0 * ENVELOPE * sxx), k)
    plo, phi, sp = _boxes(p, alphas[:, 1], np.sqrt(2.0 * ENVELOPE * spp), k)
    for i in np.flatnonzero((xhi > xlo) & (phi > plo) & (weights != 0.0)):
        pb = slice(plo[i], phi[i])
        # slab[a, b]: -q/2 + log(weight / (k^2 norm)) at sub-samples a, b
        dp = (p[None, pb] + sp[:, None] - alphas[i, 1])[None, :, None, :]
        bdp = (sxp[i] / det[i]) * dp
        cdp = (-0.5 * sxx[i] / det[i]) * dp**2 + np.log(
            weights[i] / (2.0 * np.pi * np.sqrt(det[i]) * k**2))
        rows = max(BLOCK // (k * k * dp.shape[-1]), 1)
        for lo in range(xlo[i], xhi[i], rows):
            xb = slice(lo, min(lo + rows, xhi[i]))
            dx = (x[None, xb] + sx[:, None] - alphas[i, 0])[:, None, :, None]
            slab = dx * bdp
            slab += (-0.5 * spp[i] / det[i]) * dx**2
            slab += cdp
            np.exp(slab, out=slab)
            vals[xb, pb] += slab.sum(axis=(0, 1))
    return vals
