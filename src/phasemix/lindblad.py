"""Exact quantum reference dynamics on a one-dimensional position grid.

The master equation

    drho/dt = -(i/hbar)[H, rho]
              + sum_k ( L_k rho L_k^+ - {L_k^+ L_k, rho}/2 )

with linear Lindblad operators L = l_x X and L = l_p P reduces to two
multiplicative contributions: in the position representation the X
dissipator multiplies rho(x, x') by -(D_p/2 hbar^2)(x - x')^2, and in the
momentum representation the P dissipator multiplies rho(p, p') by
-(D_x/2 hbar^2)(p - p')^2, with D_p = hbar |l_x|^2 and D_x = hbar |l_p|^2.
Only the moduli of the amplitudes enter; complex phases would produce
cross terms that never appear in the diffusion matrix, so they are not
represented.

Time stepping is Strang splitting: the potential phase times the
X-dissipator decay acts in the position-pair representation, the kinetic
phase times the P-dissipator decay in the momentum-pair representation.
Each factor is exactly completely positive and exactly trace preserving,
so the step is unconditionally stable and second order in dt.

The density path carries the real n x n matrix s = Re rho + Im rho,
from which a Hermitian rho is ((1+i)s + (1-i)s^T)/2, and steps it with
half-size real transforms.  A position factor f has f^T = conj f, so
rho -> f rho is s -> Re f s + Im f s^T, taken in row blocks of
BLOCK_ROWS.  The momentum factor M is built once in the fft2 layout
(fft2(rho)[k, m] holds the ket momentum p_k and the bra momentum
p_{-m mod n}); on T = rfft2(s) its step is T -> a T + b T^T, with
a = (M + M^T)/2 and b = i(M^T - M)/2 cut to the (n, n//2 + 1)
half-spectrum, and T^T is gathered from T by the symmetry
fft2(s)[k, m] = conj fft2(s)[-k, -m] of a real s.  Between snapshots
the half position factors of adjacent steps fold into one full factor,
so a step is rfft2 -> a T + b T^T -> irfft2 -> * full_pos.  At a
snapshot rho is built as Re rho = (s + s^T)/2, Im rho = (s - s^T)/2, so
it is Hermitian exactly, and the next steps start from s rebuilt from
that rho: a run resumed from a snapshot, with the remaining snapshot
times and the same step, repeats the unbroken run bit for bit.  A rho0
that is not Hermitian to HERM_TOL is refused, since s keeps only the
Hermitian part.  No step runs past the last snapshot.

A `DensityMatrixGrid` is a state only: the kinetic mass comes from the
`HamiltonianModel`, and the grid's hbar must match the `DiffusionSpec`'s.
`gaussian_to_grid` builds the initial state with `_kernels.rasterize_density`,
the same evaluator that rasterizes the Gaussian mixture.

Without diffusion (D_x = D_p = 0) a rank-1 rho = psi psi^+ stays rank-1.
When rho0 is rank-1 to round-off (psi, taken from the column of the
largest diagonal entry, rebuilds rho0 to 1e-12 of its maximum),
`evolve_lindblad` steps psi through the same split with 1-D transforms
(the split-operator method of Feit & Fleck 1982) and forms psi psi^+
only at snapshots, which are checked like those of the density path.

Every snapshot passes `DensityMatrixGrid.check_invariants`.  Its
positivity test is one Cholesky factorization of a copy of
rho dx + EIG_TOL I, which succeeds exactly when no eigenvalue of rho dx
is below -EIG_TOL (Cholesky is backward stable, Higham 2002, ch. 10);
eigenvalues are computed only to report a failure.  Before the shift,
real and imaginary parts of the copy below FLUSH_BELOW = 1e-150 are set
to zero: diffusion decays the far coherences into subnormal numbers,
whose products would underflow inside the factorization and run several
times slower, and the flush moves the spectrum by at most
n sqrt(2) 1e-150, far below EIG_TOL.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy.linalg.lapack import zpotrf

from . import _kernels
from .fokker_planck import PhaseField
from .gaussian import GaussianState, is_pure_gaussian
from .potentials import HamiltonianModel
from .scales import DiffusionSpec, step_schedule

__all__ = [
    "DensityMatrixGrid",
    "gaussian_to_grid",
    "apply_lindbladian",
    "evolve_lindblad",
    "wigner_transform_grid",
    "trace_distance",
]

HERM_TOL = 1e-10        # check_invariants: the Hermiticity defect,
TRACE_TOL = 1e-8        # the trace error
EIG_TOL = 1e-6          # and the negative eigenvalue may reach these
EDGE_CELLS = 2          # edge_mass sums this many cells at either end
FLUSH_BELOW = 1e-150    # check_invariants zeroes smaller parts of its copy
BLOCK_ROWS = 64         # row block of the position step and of the
                        # snapshot checks' temporaries


@dataclass
class DensityMatrixGrid:
    """Density matrix sampled on a uniform position grid.

    rho[i, j] approximates <x_i| rho |x_j> in continuum normalization, so
    the trace is sum(diag) * dx and discrete eigenvalues are those of
    rho * dx.  The grid is a state: the dynamics take the mass from the
    `HamiltonianModel`, and `hbar` must match the `DiffusionSpec`'s.
    """

    x: np.ndarray
    rho: np.ndarray
    hbar: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (self.x.size, self.x.size):
            raise ValueError("rho must be N x N for an N-point grid")
        if not 0.0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def momentum(self) -> np.ndarray:
        """Spectral momentum values, fft ordering."""
        return self.hbar * 2.0 * np.pi * np.fft.fftfreq(self.n, self.dx)

    def trace(self) -> float:
        return float(np.trace(self.rho).real * self.dx)

    def hermiticity_defect(self) -> float:
        """max |rho - rho^+|, taken over row blocks of BLOCK_ROWS."""
        rho, b = self.rho, BLOCK_ROWS
        return float(np.max([
            np.abs(rho[r:r + b] - rho[:, r:r + b].T.conj()).max()
            for r in range(0, self.n, b)]))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho).min() * self.dx)

    def position_density(self) -> np.ndarray:
        return np.diag(self.rho).real

    def edge_mass(self) -> float:
        dens = self.position_density() * self.dx
        return float(dens[:EDGE_CELLS].sum() + dens[-EDGE_CELLS:].sum())

    def _apply_p(self, mat: np.ndarray) -> np.ndarray:
        # momentum operator acting on the ket index, spectral derivative:
        # forward fft extracts e^{+ikx} coefficients, inverse rebuilds
        k = self.momentum[:, None] / self.hbar
        return sfft.ifft(self.hbar * k * sfft.fft(mat, axis=0), axis=0)

    def moments(self):
        """Phase-space mean (x, p) and 2x2 covariance via grid operators."""
        tr = self.trace()
        dens = self.position_density() * self.dx / tr
        mean_x = float(dens @ self.x)
        var_x = float(dens @ (self.x - mean_x) ** 2)
        p_rho = self._apply_p(self.rho)
        diag_p = np.diag(p_rho) * self.dx / tr
        mean_p = float(diag_p.sum().real)
        p2_rho = self._apply_p(p_rho)
        var_p = float((np.trace(p2_rho).real * self.dx) / tr - mean_p**2)
        cov_xp = float((self.x @ diag_p).real - mean_x * mean_p)
        return (np.array([mean_x, mean_p]),
                np.array([[var_x, cov_xp], [cov_xp, var_p]]))

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real * self.dx**2)

    def check_invariants(self) -> None:
        """Raise RuntimeError unless rho is Hermitian to HERM_TOL, has
        trace 1 to TRACE_TOL and min eigenvalue(rho dx) >= -EIG_TOL.

        Positivity is tested by a Cholesky factorization of a copy of
        rho dx + EIG_TOL I, which exists exactly when that matrix is
        positive definite.  Cholesky is backward stable with an error of
        about n u ||rho dx||_2 (u the unit round-off; ~1e-13 at trace 1
        and n = 512), far below EIG_TOL, so the verdict is the eigenvalue
        test's except within that round-off of the threshold.  Parts of
        the copy below FLUSH_BELOW are zeroed first, a perturbation of at
        most n sqrt(2) FLUSH_BELOW in spectral norm, so subnormal
        coherences do not slow the factorization.  Eigenvalues are
        computed only to report a failure; rho itself is not modified.
        Each test is written as `not x <= tol`, so a NaN fails it.
        """
        if not self.hermiticity_defect() <= HERM_TOL:
            raise RuntimeError("density matrix lost Hermiticity: defect "
                               f"{self.hermiticity_defect():.3g}")
        if not abs(self.trace() - 1.0) <= TRACE_TOL:
            raise RuntimeError(f"trace drifted to {self.trace():.10f}")
        a = self.rho * self.dx
        parts = a.view(float)
        for r in range(0, self.n, BLOCK_ROWS):
            blk = parts[r:r + BLOCK_ROWS]
            blk[np.abs(blk) < FLUSH_BELOW] = 0.0
        a.flat[::self.n + 1] += EIG_TOL
        # a.T is Fortran-ordered and equals conj(a), which has the same
        # spectrum, so LAPACK factors the copy in place
        _, info = zpotrf(a.T, lower=True, overwrite_a=True, clean=False)
        if info != 0:
            raise RuntimeError("density matrix lost positivity: min "
                               f"eigenvalue {self.min_eigenvalue():.3g}")


def gaussian_to_grid(state: GaussianState, n: int, x_min: float,
                     x_max: float) -> DensityMatrixGrid:
    """Pure Gaussian state as a rank-1 density matrix on the n-point grid
    x_min + (x_max - x_min) i / n.

    It is the one-particle, unit-weight call of the mixture's density
    raster, so a one-particle mixture rasterized on this grid equals it
    bit for bit; its trace is 1 to round-off for a covered state.  The
    covariance must satisfy the purity relation
    s_pp = (hbar^2/4 + s_xp^2) / s_xx; the grid must cover the state in
    position (`GaussianState.check_covered`).
    """
    if not is_pure_gaussian(state.cov, state.hbar):
        raise ValueError("state is not pure; cannot realize a wavefunction")
    state.check_covered(x_min, x_max)
    x = x_min + (x_max - x_min) * np.arange(n) / n
    return DensityMatrixGrid(x, _kernels.rasterize_density(
        x, np.ones(1), state.mean[None], state.cov[None], state.hbar),
        state.hbar)


def _position_factor(grid: DensityMatrixGrid, model: HamiltonianModel,
                     diffusion: DiffusionSpec) -> np.ndarray:
    v = np.asarray(model.potential.value(grid.x), dtype=float)
    dx2 = (grid.x[:, None] - grid.x[None, :]) ** 2
    return (-1j * (v[:, None] - v[None, :]) / grid.hbar
            - diffusion.d_p * dx2 / (2.0 * grid.hbar**2))


def _momentum_factor(grid: DensityMatrixGrid, model: HamiltonianModel,
                     diffusion: DiffusionSpec) -> np.ndarray:
    # momentum-pair exponent in the fft2 layout: entry (k, m) belongs to
    # the ket momentum p_k and the bra momentum p_{-m mod n}
    p = grid.momentum
    p_bra = p[-np.arange(grid.n) % grid.n]
    return (-1j * (p[:, None] ** 2 - p_bra[None, :] ** 2)
            / (2.0 * model.mass * grid.hbar)
            - diffusion.d_x * (p[:, None] - p_bra[None, :]) ** 2
            / (2.0 * grid.hbar**2))


def apply_lindbladian(grid: DensityMatrixGrid, model: HamiltonianModel,
                      diffusion: DiffusionSpec) -> np.ndarray:
    """Right-hand side of the master equation at the grid state."""
    if diffusion.hbar != grid.hbar:
        raise ValueError("diffusion spec and grid disagree on hbar")
    deriv = _position_factor(grid, model, diffusion) * grid.rho
    deriv += sfft.ifft2(_momentum_factor(grid, model, diffusion)
                        * sfft.fft2(grid.rho))
    return deriv


def _pure_column(rho0: DensityMatrixGrid, diffusion: DiffusionSpec):
    """psi with psi psi^+ = rho0 to 1e-12 of max|rho0|, if the run is
    noiseless and rho0 is rank-1; None otherwise.  O(n^2)."""
    if diffusion.d_x != 0.0 or diffusion.d_p != 0.0:
        return None
    rho = rho0.rho
    j = int(np.argmax(rho.diagonal().real))
    if rho[j, j].real <= 0.0:
        return None
    psi = rho[:, j] / math.sqrt(rho[j, j].real)
    defect = np.abs(np.outer(psi, psi.conj()) - rho).max()
    return psi if defect <= 1e-12 * np.abs(rho).max() else None


def _momentum_mix(grid: DensityMatrixGrid, model: HamiltonianModel,
                  diffusion: DiffusionSpec, dt: float):
    """(a, b) = ((M + M^T)/2, i(M^T - M)/2) cut to the (n, n//2 + 1)
    half-spectrum, M the full momentum factor in the fft2 layout: the
    momentum step of rho = ((1+i)s + (1-i)s^T)/2 is T -> a T + b T^T on
    T = rfft2(s), with T^T = fft2(s)^T[:, :n//2 + 1]."""
    mom = np.exp(_momentum_factor(grid, model, diffusion) * dt)
    h = grid.n // 2 + 1
    return ((mom[:, :h] + mom.T[:, :h]) * 0.5,
            (mom.T[:, :h] - mom[:, :h]) * 0.5j)


def _momentum_step(s: np.ndarray, mix, t, out: np.ndarray) -> None:
    """The momentum step s -> out: rfft2 -> a T + b T^T -> irfft2, with
    (a, b) = mix and T, T^T in the (n, n//2 + 1) buffers t."""
    (a, b), (u, u_tr) = mix, t
    n, h = a.shape
    np.fft.rfft2(s, out=u)
    # u_tr = fft2(s)^T[:, :h]: its first h rows are u[:h]^T, and fft2(s)
    # of a real s has entry [k, m] = conj u[-k mod n, n - m] for m >= h
    u_tr[:h] = u[:h].T
    np.conjugate(u[0, n - h:0:-1], out=u_tr[h:, 0])
    np.conjugate(u[:n - h:-1, n - h:0:-1].T, out=u_tr[h:, 1:])
    u_tr *= b
    u *= a
    u += u_tr
    np.fft.ifft(u, axis=0, out=u)
    np.fft.irfft(u, n, axis=1, out=out)


def _position_step(s: np.ndarray, f: np.ndarray, out: np.ndarray) -> None:
    """rho -> f rho for a factor with f^T = conj f, on s: out = Re f s +
    Im f s^T, in row blocks of BLOCK_ROWS."""
    f_re, f_im, b = f.real, f.imag, BLOCK_ROWS
    for r in range(0, s.shape[0], b):
        blk = out[r:r + b]
        np.multiply(f_re[r:r + b], s[r:r + b], out=blk)
        blk += f_im[r:r + b] * s[:, r:r + b].T


def _hermitian(s: np.ndarray) -> np.ndarray:
    """rho = ((1+i)s + (1-i)s^T)/2 as Re rho = (s + s^T)/2 and
    Im rho = (s - s^T)/2, Hermitian exactly."""
    rho = np.empty(s.shape, dtype=complex)
    np.add(s, s.T, out=rho.real)
    np.subtract(s, s.T, out=rho.imag)
    rho *= 0.5
    return rho


def _density_steps(s: np.ndarray, k: int, mix, half_pos: np.ndarray,
                   full_pos: np.ndarray) -> np.ndarray:
    """k density steps on s, which they overwrite; returns the s they
    reach.  The half position factors between steps are folded into full
    ones.  The work buffers die with the call, so none outlives a
    snapshot."""
    work = np.empty_like(s)
    t = np.empty_like(mix[0]), np.empty_like(mix[0])
    _position_step(s, half_pos, out=work)
    for j in range(1, k + 1):
        _momentum_step(work, mix, t, out=s)
        _position_step(s, half_pos if j == k else full_pos, out=work)
    return work


def evolve_lindblad(rho0: DensityMatrixGrid, model: HamiltonianModel,
                    diffusion: DiffusionSpec, t_final: float, dt: float,
                    snapshot_times=None, edge_tol: float = 1e-6):
    """Integrate the master equation; returns [(t, DensityMatrixGrid)].

    A noiseless run (D_x = D_p = 0) from a rank-1 rho0 evolves the
    wavefunction instead, with the same split on 1-D transforms, and
    forms psi psi^+ only at snapshots.  Every snapshot is checked against
    the Hermiticity / trace / positivity invariants and the
    boundary-occupation bound; violations abort with the step index.
    Any other rho0 must be Hermitian to HERM_TOL (ValueError otherwise).
    """
    if diffusion.hbar != rho0.hbar:
        raise ValueError("diffusion spec and grid disagree on hbar")
    n_steps, dt, snap_steps = step_schedule(t_final, dt, snapshot_times)

    def snapshot(i, rho):
        snap = DensityMatrixGrid(rho0.x, rho, rho0.hbar)
        try:
            snap.check_invariants()
            if not snap.edge_mass() <= edge_tol:
                raise RuntimeError(
                    f"boundary occupation {snap.edge_mass():.3g} exceeds "
                    f"{edge_tol}; enlarge the grid")
        except RuntimeError as exc:
            raise RuntimeError(f"step {i}: {exc}") from None
        return i * dt, snap

    out = [(0.0, DensityMatrixGrid(rho0.x, rho0.rho.copy(), rho0.hbar))]
    psi = _pure_column(rho0, diffusion)
    if psi is not None:
        # split-operator step (Feit & Fleck 1982): the factors of the
        # density step below are half_v[a] conj(half_v[b]) and
        # kin[k] conj(kin[-m])
        v = np.asarray(model.potential.value(rho0.x), dtype=float)
        half_v = np.exp(-0.5j * dt * v / rho0.hbar)
        kin = np.exp(-1j * dt * rho0.momentum**2
                     / (2.0 * model.mass * rho0.hbar))
        for i in range(1, n_steps + 1):
            psi = half_v * sfft.ifft(kin * sfft.fft(half_v * psi))
            if i in snap_steps:
                out.append(snapshot(i, np.outer(psi, psi.conj())))
        return out

    defect = rho0.hermiticity_defect()
    if not defect <= HERM_TOL:
        raise ValueError(f"rho0 is not Hermitian: defect {defect:.3g} "
                         f"exceeds {HERM_TOL:g}")
    # the mix first: its full-size M is freed before the position factors
    # are built
    mix = _momentum_mix(rho0, model, diffusion, dt)
    half_pos = np.exp(_position_factor(rho0, model, diffusion) * 0.5 * dt)
    full_pos = half_pos * half_pos
    # steps past the last snapshot would change nothing that is returned
    steps = sorted(snap_steps - {0})
    rho, done = rho0.rho, 0
    for i in steps:
        s = _density_steps(rho.real + rho.imag, i - done, mix, half_pos,
                           full_pos)
        if i == steps[-1]:
            # freed now, the factors leave heap the last snapshot can
            # reuse; freed after it, they would stay resident below it
            del mix, half_pos, full_pos
        rho = _hermitian(s)
        # s is freed before the snapshot checks; the next segment rebuilds
        # it from the Hermitian rho
        del s
        out.append(snapshot(i, rho))
        done = i
    return out


def wigner_transform_grid(grid: DensityMatrixGrid) -> PhaseField:
    """Discrete Wigner transform; the p-marginal reproduces diag(rho).

    Returns a PhaseField that may take negative values (quasi-probability),
    so `assert_probability` is not applied here.
    """
    n = grid.n
    # g[i, j] = rho[i+j, i-j] with zero outside the grid, j in fft order:
    # column j holds the diagonal rho[m+2j, m] from row |j| on
    g = np.zeros((n, n), dtype=complex)
    for j in np.fft.fftfreq(n, 1.0 / n).astype(int):
        diag = np.diagonal(grid.rho, -2 * j)
        g[abs(j):abs(j) + diag.size, j] = diag
    w = sfft.fft(g, axis=1, overwrite_x=True).real \
        * (grid.dx / (np.pi * grid.hbar))
    p = np.pi * grid.hbar / (n * grid.dx) * np.fft.fftfreq(n, 1.0 / n)
    # fftshift sorts the fft-ordered p for even and odd n alike
    return PhaseField(grid.x, np.fft.fftshift(p), np.fft.fftshift(w, axes=1))


def trace_distance(g1: DensityMatrixGrid, g2: DensityMatrixGrid) -> float:
    """Sum of absolute eigenvalues of the (discrete) Hermitian difference.

    This is the full trace norm ||rho1 - rho2||_1: identical states give 0,
    orthogonal pure states give 2.
    """
    if g1.n != g2.n or not np.array_equal(g1.x, g2.x):
        raise ValueError("states live on different grids")
    diff = (g1.rho - g2.rho) * g1.dx
    diff = 0.5 * (diff + diff.conj().T)
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())
