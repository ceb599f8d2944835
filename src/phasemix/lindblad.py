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
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

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


def _to_momentum(rho: np.ndarray) -> np.ndarray:
    # ket axis carries e^{+ikx}, bra axis e^{-ik'x'}; the inverse pair
    # below undoes this transform exactly
    return sfft.fft(sfft.ifft(rho, axis=1), axis=0)


def _from_momentum(rho_hat: np.ndarray) -> np.ndarray:
    return sfft.fft(sfft.ifft(rho_hat, axis=0), axis=1)


@dataclass
class DensityMatrixGrid:
    """Density matrix sampled on a uniform position grid.

    rho[i, j] approximates <x_i| rho |x_j> in continuum normalization, so
    the trace is sum(diag) * dx and discrete eigenvalues are those of
    rho * dx.
    """

    x: np.ndarray
    rho: np.ndarray
    hbar: float
    mass: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (self.x.size, self.x.size):
            raise ValueError("rho must be N x N for an N-point grid")
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be positive")

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
        return float(np.abs(self.rho - self.rho.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho).min() * self.dx)

    def position_density(self) -> np.ndarray:
        return np.diag(self.rho).real

    def edge_mass(self, cells: int = 2) -> float:
        dens = self.position_density() * self.dx
        return float(dens[:cells].sum() + dens[-cells:].sum())

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

    def check_invariants(self, herm_tol: float = 1e-10,
                         trace_tol: float = 1e-8,
                         eig_tol: float = 1e-6) -> None:
        if self.hermiticity_defect() > herm_tol:
            raise RuntimeError("density matrix lost Hermiticity: defect "
                               f"{self.hermiticity_defect():.3g}")
        if abs(self.trace() - 1.0) > trace_tol:
            raise RuntimeError(f"trace drifted to {self.trace():.10f}")
        if self.min_eigenvalue() < -eig_tol:
            raise RuntimeError("density matrix lost positivity: min "
                               f"eigenvalue {self.min_eigenvalue():.3g}")


def gaussian_to_grid(state: GaussianState, mass: float, n: int,
                     x_min: float, x_max: float) -> DensityMatrixGrid:
    """Pure Gaussian wavefunction realized as a rank-1 grid density matrix.

    The covariance must satisfy the purity relation
    s_pp = (hbar^2/4 + s_xp^2) / s_xx; the grid must cover the mean by at
    least six position standard deviations on each side.
    """
    if state.d != 1:
        raise ValueError("position-grid states are one dimensional")
    if not is_pure_gaussian(state.cov, state.hbar):
        raise ValueError("state is not pure; cannot realize a wavefunction")
    sxx, sxp = state.cov[0, 0], state.cov[0, 1]
    spp_pure = (state.hbar**2 / 4.0 + sxp**2) / sxx
    assert abs(state.cov[1, 1] - spp_pure) <= 1e-8 * spp_pure
    sd = math.sqrt(sxx)
    if state.mean[0] - 6.0 * sd < x_min or state.mean[0] + 6.0 * sd > x_max:
        raise ValueError("grid too small: must cover the mean +- 6 position "
                         "standard deviations")
    x = x_min + (x_max - x_min) * np.arange(n) / n
    dxv = x - state.mean[0]
    psi = np.exp(-dxv**2 * (1.0 - 2.0j * sxp / state.hbar) / (4.0 * sxx)
                 + 1j * state.mean[1] * dxv / state.hbar)
    psi /= math.sqrt(float((np.abs(psi) ** 2).sum() * (x[1] - x[0])))
    return DensityMatrixGrid(x, np.outer(psi, psi.conj()), state.hbar, mass)


def _position_factor(grid: DensityMatrixGrid, model: HamiltonianModel,
                     diffusion: DiffusionSpec) -> np.ndarray:
    v = np.asarray(model.potential.value(grid.x), dtype=float)
    dx2 = (grid.x[:, None] - grid.x[None, :]) ** 2
    return (-1j * (v[:, None] - v[None, :]) / grid.hbar
            - diffusion.d_p * dx2 / (2.0 * grid.hbar**2))


def _momentum_factor(grid: DensityMatrixGrid,
                     diffusion: DiffusionSpec) -> np.ndarray:
    p = grid.momentum
    return (-1j * (p[:, None] ** 2 - p[None, :] ** 2)
            / (2.0 * grid.mass * grid.hbar)
            - diffusion.d_x * (p[:, None] - p[None, :]) ** 2
            / (2.0 * grid.hbar**2))


def apply_lindbladian(grid: DensityMatrixGrid, model: HamiltonianModel,
                      diffusion: DiffusionSpec) -> np.ndarray:
    """Right-hand side of the master equation at the grid state."""
    if diffusion.hbar != grid.hbar:
        raise ValueError("diffusion spec and grid disagree on hbar")
    deriv = _position_factor(grid, model, diffusion) * grid.rho
    rho_hat = _to_momentum(grid.rho)
    deriv += _from_momentum(_momentum_factor(grid, diffusion) * rho_hat)
    return deriv


def evolve_lindblad(rho0: DensityMatrixGrid, model: HamiltonianModel,
                    diffusion: DiffusionSpec, t_final: float, dt: float,
                    snapshot_times=None, edge_tol: float = 1e-6):
    """Integrate the master equation; returns [(t, DensityMatrixGrid)].

    Snapshots are checked against the Hermiticity / trace / positivity
    invariants and the boundary-occupation bound; violations abort with
    the step index.
    """
    n_steps, dt, snap_steps = step_schedule(t_final, dt, snapshot_times)

    rho = rho0.rho.copy()
    out = [(0.0, DensityMatrixGrid(rho0.x, rho.copy(), rho0.hbar, rho0.mass))]
    half_pos = np.exp(_position_factor(rho0, model, diffusion) * 0.5 * dt)
    full_mom = np.exp(_momentum_factor(rho0, diffusion) * dt)

    for i in range(1, n_steps + 1):
        rho = _from_momentum(full_mom * _to_momentum(half_pos * rho))
        # a named right operand: numpy may reuse an unnamed temporary in
        # place, which swaps the factors and rounds the product differently
        rho = half_pos * rho
        if i in snap_steps:
            snap = DensityMatrixGrid(rho0.x, rho.copy(), rho0.hbar,
                                     rho0.mass)
            try:
                snap.check_invariants()
                if snap.edge_mass() > edge_tol:
                    raise RuntimeError(
                        f"boundary occupation {snap.edge_mass():.3g} exceeds "
                        f"{edge_tol}; enlarge the grid")
            except RuntimeError as exc:
                raise RuntimeError(f"step {i}: {exc}") from None
            out.append((i * dt, snap))
    return out


def wigner_transform_grid(grid: DensityMatrixGrid) -> PhaseField:
    """Discrete Wigner transform; the p-marginal reproduces diag(rho).

    Returns a PhaseField that may take negative values (quasi-probability),
    so `assert_probability` is not applied here.
    """
    n = grid.n
    rho = grid.rho
    # g[i, j] = rho[i+j, i-j] with zero outside the grid, j in fft order
    idx = np.arange(n)
    j = np.fft.fftfreq(n, 1.0 / n).astype(int)[None, :]
    a = idx[:, None] + j
    b = idx[:, None] - j
    valid = (a >= 0) & (a < n) & (b >= 0) & (b < n)
    g = np.where(valid, rho[np.clip(a, 0, n - 1), np.clip(b, 0, n - 1)], 0.0)
    w = sfft.fft(g, axis=1).real * (grid.dx / (np.pi * grid.hbar))
    p = np.pi * grid.hbar / (n * grid.dx) * np.fft.fftfreq(n, 1.0 / n)
    order = np.argsort(p)
    return PhaseField(grid.x, p[order], np.ascontiguousarray(w[:, order]))


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
