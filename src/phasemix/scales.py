"""Characteristic scales, dimensionless diffusion strength and error bounds.

Given mass m and the sup norms J2 = sup|V''|, J3 = sup|V'''| over the
declared domain, the derived scales are

    tau_H = sqrt(m / J2)            harmonic time
    a_H   = sqrt(m J2)              aspect parameter [momentum/length]
    s_H   = sqrt(m) J2^(5/2) / J3^2 anharmonic action
    x_H   = sqrt(s_H / a_H) = J2/J3
    p_H   = sqrt(s_H a_H)   = sqrt(m) J2^(3/2) / J3

together with the coherent covariance sigma_star, the dimensionless
diffusion strength D0 and the squeeze bound z.  Harmonic potentials
(J3 = 0) and vanishing diffusion are represented by explicit flags; no
floating-point infinities enter bound arithmetic.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussian import sigma_star
from .potentials import HamiltonianModel

__all__ = [
    "DiffusionSpec",
    "ScaleReport",
    "compute_scales",
    "theorem_epsilon",
    "diffusion_threshold",
    "ThresholdError",
    "ehrenfest_time",
    "physical_example_time",
    "step_schedule",
]


@dataclass(frozen=True)
class DiffusionSpec:
    """Isotropic position/momentum diffusion constants D_x, D_p.

    Only the moduli of the Lindblad amplitudes enter (D_x = hbar |l_p|^2,
    D_p = hbar |l_x|^2); complex phases are not represented, and no cross
    terms appear in the diffusion matrix.
    """

    d_x: float
    d_p: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.d_x < 0 or self.d_p < 0:
            raise ValueError("diffusion constants must be nonnegative")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    def matrix(self, d: int = 1) -> np.ndarray:
        return np.diag(np.concatenate([np.full(d, self.d_x),
                                       np.full(d, self.d_p)]))


@dataclass
class ScaleReport:
    """Every characteristic scale and dimensionless parameter of a model."""

    tau_H: float
    a_H: float
    s_H: float              # math.inf when harmonic
    x_H: float              # math.inf when harmonic
    p_H: float              # math.inf when harmonic
    sigma_star: np.ndarray
    d0: float
    z: float                # math.inf when diffusion vanishes
    hbar: float
    harmonic: bool          # J3 == 0: anharmonic action undefined/infinite
    z_infinite: bool        # D0 == 0: no squeeze control from the theorem
    m_rate: float           # D0 s_H / (hbar tau_H), finite even when harmonic


def compute_scales(model: HamiltonianModel,
                   diffusion: DiffusionSpec) -> ScaleReport:
    """Derive every scale in the report from the model and diffusion."""
    m, j2, j3 = model.mass, model.sup2, model.sup3
    hbar = diffusion.hbar
    tau = math.sqrt(m / j2)
    a = math.sqrt(m * j2)
    harmonic = j3 == 0.0
    if harmonic:
        s = x = p = math.inf
    else:
        s = math.sqrt(m) * j2**2.5 / j3**2
        x = j2 / j3
        p = math.sqrt(m) * j2**1.5 / j3
    # min(D_x a_H, D_p / a_H) = s_H D0 / tau_H stays finite for harmonic
    # potentials, where D0 itself degenerates to zero
    drive = min(diffusion.d_x * a, diffusion.d_p / a)
    d0 = 0.0 if harmonic else drive * tau / s
    z_infinite = drive == 0.0
    z = math.inf if z_infinite else max(hbar / (tau * drive), 1.0)
    return ScaleReport(
        tau_H=tau, a_H=a, s_H=s, x_H=x, p_H=p,
        sigma_star=sigma_star(a, hbar), d0=d0, z=z, hbar=hbar,
        harmonic=harmonic, z_infinite=z_infinite, m_rate=drive / hbar)


def step_schedule(t_final: float, dt: float, snapshot_times=None):
    """Uniform time steps that land on every snapshot time.

    Picks the smallest step count n >= t_final / dt (to 1e-9 relative) at
    which every time in `snapshot_times` (default: t_final alone) falls on
    a step, so the step t_final / n never exceeds the requested `dt`.
    Returns (n, t_final / n, the set of snapshot step indices).  Raises
    ValueError when no n up to twice the smallest candidate lands.
    """
    times = sorted(snapshot_times) if snapshot_times else [t_final]
    if times[0] < 0.0 or times[-1] > t_final * (1.0 + 1e-9):
        raise ValueError(f"snapshot times must lie in [0, {t_final!r}]")
    n0 = max(math.ceil(t_final / dt * (1.0 - 1e-9)), 1)
    for n in range(n0, 2 * n0 + 1):
        steps = [round(t * n / t_final) for t in times]
        if all(abs(k * t_final / n - t) <= 1e-9 * t
               for k, t in zip(steps, times)):
            return n, t_final / n, set(steps)
    raise ValueError(f"no step count in [{n0}, {2 * n0}] lands on every "
                     f"snapshot time {times}")


def theorem_epsilon(scales: ScaleReport, t: float, d: int,
                    z_cap: Optional[float] = None) -> float:
    """Correspondence error budget d^(3/2) (t/tau_H) sqrt(hbar/s_H) z^(3/2).

    Harmonic models return 0 (the local quadratic dynamics are exact).
    When the squeeze bound is infinite (no diffusion) a finite user cap
    must be supplied.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0 or scales.harmonic:
        return 0.0
    if scales.z_infinite:
        if z_cap is None:
            raise ValueError("diffusion strength D0 is zero: the bound needs "
                             "a user-supplied squeeze cap z_cap")
        z = z_cap
    else:
        z = scales.z
    small = scales.hbar / scales.s_H
    return d**1.5 * (t / scales.tau_H) * math.sqrt(small) * z**1.5


class ThresholdError(ValueError):
    """Requested error is below the diffusion-free floor."""

    def __init__(self, epsilon: float, floor: float):
        self.floor = floor
        super().__init__(
            f"epsilon = {epsilon:.6g} is below the attainable floor "
            f"{floor:.6g}; no diffusion strength reaches it")


def diffusion_threshold(scales: ScaleReport, epsilon: float, t: float,
                        d: int) -> float:
    """Minimal D0 for which the error budget at time t is <= epsilon."""
    if scales.harmonic:
        raise ValueError("harmonic model: the error vanishes for any D0")
    small = scales.hbar / scales.s_H
    floor = d**1.5 * (t / scales.tau_H) * math.sqrt(small)
    if epsilon < floor:
        raise ThresholdError(epsilon, floor)
    return (d**1.5 * t / (epsilon * scales.tau_H)) ** (2.0 / 3.0) * small ** (4.0 / 3.0)


def ehrenfest_time(lyapunov: float, action_scale: float, hbar: float) -> float:
    """Wavepacket-spreading timescale log(action/hbar) / lyapunov."""
    if lyapunov <= 0 or action_scale <= 0 or hbar <= 0:
        raise ValueError("all arguments must be positive")
    if action_scale <= hbar:
        raise ValueError("action scale must exceed hbar (no semiclassical "
                         "regime)")
    return math.log(action_scale / hbar) / lyapunov


def physical_example_time(mass: float, velocity: float, length_scale: float,
                          localization_rate: float, hbar: float) -> float:
    """Order-of-magnitude validity time hbar v^(-7/2) m^-1 L^(3/2) s^(9/2).

    Uses the heuristic effective-position-diffusion substitution for baths
    that couple only to position; good to about an order of magnitude.
    """
    for name, v in [("mass", mass), ("velocity", velocity),
                    ("length_scale", length_scale),
                    ("localization_rate", localization_rate), ("hbar", hbar)]:
        if v <= 0:
            raise ValueError(f"{name} must be positive")
    return (hbar * velocity**-3.5 / mass * localization_rate**1.5
            * length_scale**4.5)
