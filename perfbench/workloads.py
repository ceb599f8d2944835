"""Top-level call sequence, correctness checks and output digest of each
workload.

Each workload calls phasemix through module attributes (`harness.X`,
`langevin.X`, ...) so that the tracer's patches see every call.  A check
uses its acceptance test's own bound; the digest is what must repeat byte
for byte between calls with the same seed.
"""

import hashlib
import operator
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

import phasemix
from phasemix import fokker_planck, harness, langevin

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge}


@dataclass
class Check:
    """`value op bound` must hold; headroom is the signed relative margin."""

    name: str
    value: float
    op: str
    bound: float

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    @property
    def headroom(self) -> float:
        margin = self.bound - self.value if self.op in ("<", "<=") \
            else self.value - self.bound
        return margin / abs(self.bound)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _comparison(cfg, out_dir):
    report = harness.run_comparison(cfg)
    harness.emit_plots(report, out_dir)
    worst = max((max(td, l1) / eps for td, l1, eps in
                 zip(report.trace_distances, report.l1_distances,
                     report.epsilons) if eps > 0.0), default=0.0)
    values = {"max_trace_distance": max(report.trace_distances),
              "max_l1_distance": max(report.l1_distances),
              "worst_budget_ratio": worst,
              "margin": cfg.margin}
    return values, _sha256(os.path.join(out_dir, "comparison.csv"))


def _breakdown(cfg, out_dir):
    report = harness.run_breakdown_demo(cfg)
    harness.emit_plots(report, out_dir)
    after = [i for i, t in enumerate(report.times)
             if t > report.ehrenfest_estimate]
    # no snapshot past the Ehrenfest estimate leaves the check at 0: a fail
    free = max((-report.free_min[i] / report.free_peak[i] for i in after),
               default=0.0)
    floor = min(lo / hi for lo, hi in zip(report.diffusive_min,
                                          report.diffusive_peak))
    values = {"free_negativity": free, "diffusive_floor": floor}
    return values, _sha256(os.path.join(out_dir, "breakdown.csv"))


def caller_dt(f0, model, diffusion) -> float:
    """0.8 x the explicit advection/diffusion CFL limit of the field `f0`,
    as acceptance 11's caller picks it.  Computed here, not by the solver,
    so that this workload's step stays fixed by its inputs."""
    adv = min(f0.dx / (np.abs(f0.p).max() / model.mass),
              f0.dp / np.abs(model.potential.grad(f0.x)).max())
    diff = 0.45 * min(f0.dx**2 / (0.5 * diffusion.d_x),
                      f0.dp**2 / (0.5 * diffusion.d_p))
    return 0.8 * min(adv, diff)


def _cell_centres(lo, hi, n):
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def _langevin_fp(cfg, out_dir, n_coarse=64):
    """Acceptance 11: Euler-Maruyama ensemble against a Fokker-Planck run,
    compared as 64 x 64 histograms by L1 distance."""
    model = cfg.build_model()
    diffusion = cfg.build_diffusion(model)
    sc = phasemix.compute_scales(model, diffusion)
    mean = [cfg.x0, cfg.p0]
    ens = langevin.sample_gaussian_ensemble(mean, sc.sigma_star, cfg.samples,
                                            seed=cfg.seed)
    ens = langevin.evolve_langevin_ensemble(ens, model, diffusion,
                                            cfg.t_final, sc.tau_H / 200.0)
    x_fine = _cell_centres(cfg.x_min, cfg.x_max, cfg.n_phase)
    p_fine = _cell_centres(cfg.p_min, cfg.p_max, cfg.n_phase)
    f0 = fokker_planck.gaussian_phase_field(mean, sc.sigma_star, x_fine,
                                            p_fine)
    traj = fokker_planck.evolve_fokker_planck(
        f0, model, diffusion, cfg.t_final, caller_dt(f0, model, diffusion))
    factor = cfg.n_phase // n_coarse
    coarse = traj[-1][1].values.reshape(n_coarse, factor, n_coarse,
                                        factor).mean(axis=(1, 3))
    x64 = _cell_centres(cfg.x_min, cfg.x_max, n_coarse)
    p64 = _cell_centres(cfg.p_min, cfg.p_max, n_coarse)
    hist = langevin.ensemble_histogram(ens, x64, p64)
    l1 = fokker_planck.l1_distance(fokker_planck.PhaseField(x64, p64, coarse),
                                   hist)
    return {"l1_vs_fp": l1}, float(l1).hex()


def _harmonic_checks(v):
    return [Check("max_trace_distance", v["max_trace_distance"], "<", 1e-3),
            Check("max_l1_distance", v["max_l1_distance"], "<", 1e-3)]


def _budget_checks(v):
    # report.passed is max(td, l1) <= eps (1 + margin) at every snapshot
    return [Check("worst_budget_ratio", v["worst_budget_ratio"], "<=",
                  1.0 + v["margin"])]


def _breakdown_checks(v):
    return [Check("free_negativity", v["free_negativity"], ">", 0.10),
            Check("diffusive_floor", v["diffusive_floor"], ">=", -0.01)]


def _langevin_checks(v):
    return [Check("l1_vs_fp", v["l1_vs_fp"], "<=", 0.05)]


@dataclass
class Workload:
    call: Callable            # (cfg, out_dir) -> (values, digest)
    checks: Callable          # values -> [Check]
    spans: Tuple[str, ...]    # spans the traced run must see fire


_SETUP = ("config.load", "scales.compute")
_COMPARISON = _SETUP + (
    "lindblad.gaussian_to_grid", "lindblad.evolve", "lindblad.invariants",
    "lindblad.trace_distance", "fokker_planck.evolve", "kernels.advect",
    "kernels.diffuse", "fokker_planck.l1_distance", "mixture.evolve",
    "mixture.to_density", "kernels.rasterize_density", "mixture.to_phase",
    "kernels.rasterize_phase", "harness.emit")

WORKLOADS: Dict[str, Workload] = {
    "harmonic_exact": Workload(_comparison, _harmonic_checks, _COMPARISON),
    "well_budget": Workload(_comparison, _budget_checks, _COMPARISON),
    "well_breakdown": Workload(_breakdown, _breakdown_checks, _SETUP + (
        "lindblad.gaussian_to_grid", "lindblad.evolve", "lindblad.invariants",
        "lindblad.wigner", "harness.emit")),
    "langevin_fp": Workload(_langevin_fp, _langevin_checks, _SETUP + (
        "langevin.sample", "langevin.evolve", "rng.stream_normals",
        "fokker_planck.gaussian_field", "fokker_planck.evolve",
        "kernels.advect", "kernels.diffuse", "langevin.histogram",
        "fokker_planck.l1_distance")),
}


def failed_checks(workload: Workload, values) -> List[Check]:
    return [c for c in workload.checks(values) if not c.passed]


def headroom(workload: Workload, values) -> float:
    """Smallest relative margin among the workload's checks."""
    return min(c.headroom for c in workload.checks(values))


def missing_spans(workload: Workload, fired) -> List[str]:
    """Expected spans of `workload` that are not among `fired`."""
    return sorted(set(workload.spans) - set(fired))
