"""Phase-space fields and the frictionless Fokker-Planck grid solver.

The PDE is

    df/dt = -(p/m) df/dx + V'(x) df/dp + (D_x/2) d2f/dx2 + (D_p/2) d2f/dp2

solved with Strang splitting, P(dt/2) X(dt/2) D(dt) X(dt/2) P(dt/2), where
the closing P(dt/2) of a step merges into the next step's opening one
unless a snapshot falls between them.  P and X are flux-form
semi-Lagrangian advection along each axis (exact integer shift plus a van
Leer MUSCL update of the fractional Courant number, outflow boundaries);
D is exact for the Neumann-discretized Laplacian.  All three are stable
and positive at any step, so the step is set by accuracy alone; there is
no CFL limit.  Outflow mass leakage is monitored and aborts the run past
`LEAK_TOL`; at each snapshot, a field that dips below -`UNDERSHOOT_TOL`
aborts it too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState
from .potentials import HamiltonianModel
from .scales import DiffusionSpec, step_schedule
from . import _kernels

__all__ = [
    "PhaseField",
    "gaussian_phase_field",
    "l1_distance",
    "evolve_fokker_planck",
]

LEAK_TOL = 1e-4         # a run aborts once this share of the mass has left
MASS_TOL = 1e-6         # assert_probability: the mass may miss 1 by this
UNDERSHOOT_TOL = 1e-9   # the values may dip below 0 by this (also at each
                        # snapshot of `evolve_fokker_planck`)


@dataclass
class PhaseField:
    """A scalar field on a rectangular (x, p) phase-space grid.

    values[i, j] is the density at (x[i], p[j]).  Probability densities are
    nonnegative and integrate to one; quasi-probability fields (Wigner
    transforms) share the type but skip `assert_probability`.
    """

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.x.size, self.p.size):
            raise ValueError("values shape must be (len(x), len(p))")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    @property
    def cell_area(self) -> float:
        return self.dx * self.dp

    def mass(self) -> float:
        return float(self.values.sum() * self.cell_area)

    def assert_probability(self) -> None:
        if not abs(self.mass() - 1.0) <= MASS_TOL:
            raise ValueError(f"field mass {self.mass():.8f} is not 1")
        if not self.values.min() >= -UNDERSHOOT_TOL:
            raise ValueError(f"field undershoots to {self.values.min():.3g}")

    def moments(self):
        """Mean vector (x, p) and 2x2 covariance of the field."""
        w = self.values * self.cell_area
        tot = w.sum()
        mx = float((w.sum(axis=1) * self.x).sum() / tot)
        mp = float((w.sum(axis=0) * self.p).sum() / tot)
        dxv = self.x - mx
        dpv = self.p - mp
        cxx = float((w.sum(axis=1) * dxv**2).sum() / tot)
        cpp = float((w.sum(axis=0) * dpv**2).sum() / tot)
        cxp = float((w * np.outer(dxv, dpv)).sum() / tot)
        return np.array([mx, mp]), np.array([[cxx, cxp], [cxp, cpp]])


def gaussian_phase_field(mean, cov, x: np.ndarray, p: np.ndarray) -> PhaseField:
    """Gaussian density on the ascending (x, p) grid, one particle of
    `_kernels.rasterize_phase`; `cov` must be symmetric positive definite."""
    g = GaussianState(mean, cov)
    return PhaseField(x, p, _kernels.rasterize_phase(
        x, p, np.ones(1), g.mean[None], g.cov[None]))


def l1_distance(f1: PhaseField, f2: PhaseField) -> float:
    """Integral of |f1 - f2| over phase space."""
    if f1.values.shape != f2.values.shape or not (
            np.array_equal(f1.x, f2.x) and np.array_equal(f1.p, f2.p)):
        raise ValueError("fields live on different grids")
    return float(np.abs(f1.values - f2.values).sum() * f1.cell_area)


def _cfl_limits(f: PhaseField, model: HamiltonianModel,
                diffusion: DiffusionSpec):
    """Explicit-scheme step scales (advection, diffusion) on the grid of
    `f`: the step at Courant number 1, and the step at (D/2) dt / h^2 =
    0.45 on the faster-diffusing axis.  `evolve_fokker_planck` is stable at
    any step and needs neither; they give callers a reference step.  (A
    forward-Euler two-axis update needs rx + rp <= 1/2, so the diffusion
    value is not a stable explicit step when both axes diffuse alike.)"""
    vx = np.abs(f.p).max() / model.mass
    vp = np.abs(model.potential.grad(f.x)).max()
    adv = math.inf
    if vx > 0:
        adv = min(adv, f.dx / vx)
    if vp > 0:
        adv = min(adv, f.dp / vp)
    diff = math.inf
    if diffusion.d_x > 0:
        diff = min(diff, f.dx**2 / (0.5 * diffusion.d_x))
    if diffusion.d_p > 0:
        diff = min(diff, f.dp**2 / (0.5 * diffusion.d_p))
    return adv, 0.45 * diff


def evolve_fokker_planck(f0: PhaseField, model: HamiltonianModel,
                         diffusion: DiffusionSpec, t_final: float, dt: float,
                         snapshot_times=None):
    """Integrate the frictionless Fokker-Planck equation.

    Any `dt` is stable; the step actually taken is `step_schedule`'s, at
    most `dt`.  Returns a list of (t, PhaseField) snapshots (t = 0
    included).  Aborts when outflow through the boundary exceeds
    `LEAK_TOL` of the mass, or is NaN, and when a snapshot's smallest value
    is below -`UNDERSHOOT_TOL`, or is NaN.
    """
    n_steps, dt, snap_steps = step_schedule(t_final, dt, snapshot_times)
    vals = np.ascontiguousarray(f0.values.copy())
    speed_x = f0.p / model.mass                 # row speed, constant per j
    speed_p = -np.asarray(model.potential.grad(f0.x), dtype=float)
    rx = 0.5 * diffusion.d_x * dt / f0.dx**2
    rp = 0.5 * diffusion.d_p * dt / f0.dp**2
    mass0 = vals.sum()
    out = [(0.0, PhaseField(f0.x, f0.p, vals.copy()))]

    p_open = 0.5 * dt
    for step in range(1, n_steps + 1):
        _kernels.advect_p(vals, speed_p, f0.dp, p_open)
        _kernels.advect_x(vals, speed_x, f0.dx, 0.5 * dt)
        _kernels.diffuse(vals, rx, rp)
        _kernels.advect_x(vals, speed_x, f0.dx, 0.5 * dt)
        # the closing P(dt/2) merges into the next step's opening one
        # unless the field is read here
        if step in snap_steps or step == n_steps:
            _kernels.advect_p(vals, speed_p, f0.dp, 0.5 * dt)
            p_open = 0.5 * dt
        else:
            p_open = dt
        leak = 1.0 - vals.sum() / mass0
        if not abs(leak) <= LEAK_TOL:
            raise RuntimeError(
                f"step {step}: boundary mass leak {leak:.3g} exceeds "
                f"{LEAK_TOL}; enlarge the phase-space box")
        if step in snap_steps:
            low = vals.min()
            if not low >= -UNDERSHOOT_TOL:
                raise RuntimeError(f"step {step}: field undershoots to "
                                   f"{low:.3g}")
            out.append((step * dt, PhaseField(f0.x, f0.p, vals.copy())))
    return out
