"""Experiment orchestration: run the three dynamics side by side.

`Experiment.from_config` builds the setup every run shares (model,
diffusion, scales, snapshot times, step sizes, phase grid); the harness
and the CLI both start from it.  `run_comparison` evolves the same initial
coherent state three ways — the grid master-equation solver, the
phase-space Fokker-Planck solver, and the Gaussian-mixture trajectory —
and compares the mixture to both references against the error budget
epsilon(t) at the same snapshot times.  `run_breakdown_demo` contrasts a
noiseless run with a diffusive run of the same model and records Wigner
negativity.  `emit_plots` writes deterministic CSV/summary/plot-script
artifacts for either report.
"""

import os
from dataclasses import dataclass
from typing import List

import numpy as np

from .config import ExperimentConfig
from .fokker_planck import (PhaseField, evolve_fokker_planck,
                            gaussian_phase_field, l1_distance)
from .gaussian import GaussianState
from .lindblad import (DensityMatrixGrid, evolve_lindblad, gaussian_to_grid,
                       trace_distance, wigner_transform_grid)
from .mixture import (MixtureEnsemble, effective_z, evolve_mixture,
                      mixture_to_density_grid, mixture_to_phase_field)
from .potentials import HamiltonianModel
from .scales import (DiffusionSpec, ScaleReport, compute_scales,
                     ehrenfest_time, theorem_epsilon)

__all__ = ["Experiment", "ComparisonReport", "BreakdownReport",
           "run_comparison", "run_breakdown_demo", "write_csv", "emit_plots"]


@dataclass
class ComparisonReport:
    """Distance time series of the mixture against both reference solvers."""

    scales: ScaleReport
    margin: float
    bound_applicable: bool
    times: List[float]
    trace_distances: List[float]
    l1_distances: List[float]
    epsilons: List[float]
    passes: List[bool]
    max_squeeze: float
    diagnostics: dict

    @property
    def passed(self) -> bool:
        return all(self.passes)


@dataclass
class BreakdownReport:
    """Wigner negativity of a noiseless vs a diffusive run."""

    times: List[float]
    free_min: List[float]
    free_peak: List[float]
    diffusive_min: List[float]
    diffusive_peak: List[float]
    ehrenfest_estimate: float


@dataclass
class Experiment:
    """One experiment's shared setup, built once from its config.

    Holds the model, diffusion, scales, snapshot times, the step size each
    solver is asked for (`dt_quantum`; `dt_classical` for Fokker-Planck and
    `dt_langevin` for `evolve-langevin`, both set by `[numerics]
    dt_classical`; `dt_mixture`) and the phase-grid cell centres `x`, `p`.
    The squeeze bound `z` and the initial states are built only on
    request: `z` rejects a D0 = 0 config without `z_cap`, and the states
    are N x N arrays.
    """

    cfg: ExperimentConfig
    model: HamiltonianModel
    diffusion: DiffusionSpec
    scales: ScaleReport
    snapshot_times: List[float]
    dt_quantum: float
    dt_classical: float
    dt_langevin: float
    dt_mixture: float
    x: np.ndarray
    p: np.ndarray

    @classmethod
    def from_config(cls, cfg: ExperimentConfig) -> "Experiment":
        model = cfg.build_model()
        diffusion = cfg.build_diffusion(model)
        scales = compute_scales(model, diffusion)
        # t = 0 is excluded: the budget epsilon(0) = 0 admits no solver error
        snaps = [cfg.t_final * k / cfg.snapshots
                 for k in range(1, cfg.snapshots + 1)]
        x = cfg.x_min + (cfg.x_max - cfg.x_min) \
            * (np.arange(cfg.n_phase) + 0.5) / cfg.n_phase
        if cfg.p_min is not None:
            lo, hi = cfg.p_min, cfg.p_max
        else:
            v = model.potential.value(np.linspace(cfg.x_min, cfg.x_max, 512))
            p_half = (np.sqrt(2.0 * model.mass * (v.max() - v.min()))
                      + abs(cfg.p0) + 6.0 * np.sqrt(scales.sigma_star[1, 1])
                      + np.sqrt(cfg.d_p * cfg.t_final))
            lo, hi = -p_half, p_half
        p = lo + (hi - lo) * (np.arange(cfg.n_phase) + 0.5) / cfg.n_phase
        return cls(cfg, model, diffusion, scales, snaps,
                   cfg.dt_quantum or scales.tau_H / 500.0,
                   cfg.dt_classical or scales.tau_H / 100.0,
                   cfg.dt_classical or scales.tau_H / 200.0,
                   cfg.dt_mixture or scales.tau_H / 200.0, x, p)

    @property
    def z(self) -> float:
        return effective_z(self.scales, self.cfg.z_cap)

    def rho0(self) -> DensityMatrixGrid:
        cfg = self.cfg
        state0 = GaussianState([cfg.x0, cfg.p0], self.scales.sigma_star,
                               cfg.hbar)
        return gaussian_to_grid(state0, cfg.mass, cfg.n_grid, cfg.x_min,
                                cfg.x_max)

    def f0(self) -> PhaseField:
        return gaussian_phase_field([self.cfg.x0, self.cfg.p0],
                                    self.scales.sigma_star, self.x, self.p)

    def mixture0(self) -> MixtureEnsemble:
        m = self.cfg.particles
        return MixtureEnsemble(
            weights=np.full(m, 1.0 / m),
            alphas=np.tile([self.cfg.x0, self.cfg.p0], (m, 1)),
            covs=np.tile(self.scales.sigma_star, (m, 1, 1)),
            blurs=np.zeros((m, 2, 2)),
            scales=self.scales, z_eff=self.z, seed=self.cfg.seed)


def run_comparison(cfg: ExperimentConfig) -> ComparisonReport:
    """Evolve quantum / classical / mixture and compare against epsilon(t)."""
    exp = Experiment.from_config(cfg)
    scales, snaps = exp.scales, exp.snapshot_times
    ens0 = exp.mixture0()  # rejects D0 = 0 without a cap
    bound_applicable = not scales.harmonic and not scales.z_infinite

    q_traj = evolve_lindblad(exp.rho0(), exp.model, exp.diffusion,
                             cfg.t_final, exp.dt_quantum,
                             snapshot_times=snaps, edge_tol=cfg.edge_tol)
    c_traj = evolve_fokker_planck(exp.f0(), exp.model, exp.diffusion,
                                  cfg.t_final, exp.dt_classical,
                                  snapshot_times=snaps)
    m_traj = evolve_mixture(ens0, exp.model, exp.diffusion, cfg.t_final,
                            exp.dt_mixture, blur_cap=cfg.blur_cap,
                            snapshot_times=snaps)

    times, tds, l1s, epss, passes = [], [], [], [], []
    max_squeeze = 0.0
    diagnostics = {}
    # pair the snapshots by time: every solver must land on the same ones
    for traj in (q_traj, c_traj):
        if len(traj) != len(m_traj) or any(
                abs(t - t_m) > 1e-9 * t_m
                for (t, _), (t_m, _) in zip(traj, m_traj)):
            raise RuntimeError("solver snapshot times disagree")
    for (t, ens), (_, g_q), (_, f_c) in zip(m_traj[1:], q_traj[1:],
                                            c_traj[1:]):
        grid_m = mixture_to_density_grid(ens, cfg.mass, cfg.n_grid,
                                         cfg.x_min, cfg.x_max)
        # cell-averaged raster: the finite-volume reference stores cell
        # averages, so point sampling would add a spurious O(dx^2) term
        field_m = mixture_to_phase_field(ens, exp.x, exp.p, supersample=3)
        td = trace_distance(grid_m, g_q)
        l1 = l1_distance(field_m, f_c)
        eps = theorem_epsilon(scales, t, 1, cfg.z_cap)
        times.append(t)
        tds.append(td)
        l1s.append(l1)
        epss.append(eps)
        passes.append(max(td, l1) <= eps * (1.0 + cfg.margin))
        max_squeeze = max(max_squeeze, float(ens.squeeze_eigenvalues().max()))
        diagnostics = ens.diagnostics
    return ComparisonReport(scales=scales, margin=cfg.margin,
                            bound_applicable=bound_applicable, times=times,
                            trace_distances=tds, l1_distances=l1s,
                            epsilons=epss, passes=passes,
                            max_squeeze=max_squeeze, diagnostics=diagnostics)


def _wigner_stats(grid):
    w = wigner_transform_grid(grid)
    return float(w.values.min()), float(w.values.max())


def run_breakdown_demo(cfg: ExperimentConfig) -> BreakdownReport:
    """Noiseless vs diffusive evolution of the same anharmonic model.

    Emits the Wigner minimum and peak over time for both runs; without
    noise the state develops interference negativity after roughly the
    Ehrenfest time, while sufficient diffusion suppresses it throughout.
    """
    exp = Experiment.from_config(cfg)
    rho0 = exp.rho0()
    free = evolve_lindblad(rho0, exp.model,
                           DiffusionSpec(0.0, 0.0, cfg.hbar), cfg.t_final,
                           exp.dt_quantum, snapshot_times=exp.snapshot_times,
                           edge_tol=cfg.edge_tol)
    noisy = evolve_lindblad(rho0, exp.model, exp.diffusion, cfg.t_final,
                            exp.dt_quantum, snapshot_times=exp.snapshot_times,
                            edge_tol=cfg.edge_tol)

    times, f_min, f_peak, d_min, d_peak = [], [], [], [], []
    for (t, gf), (_, gn) in zip(free, noisy):
        if t == 0.0:
            continue
        lo, hi = _wigner_stats(gf)
        times.append(t)
        f_min.append(lo)
        f_peak.append(hi)
        lo, hi = _wigner_stats(gn)
        d_min.append(lo)
        d_peak.append(hi)
    # crude instability-rate estimate 1/tau_H; harmonic models never bend
    t_ehr = np.inf if exp.scales.harmonic else \
        ehrenfest_time(1.0 / exp.scales.tau_H, exp.scales.s_H, cfg.hbar)
    return BreakdownReport(times=times, free_min=f_min, free_peak=f_peak,
                           diffusive_min=d_min, diffusive_peak=d_peak,
                           ehrenfest_estimate=float(t_ehr))


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path: str, header, rows):
    """Write `rows` under `header`; floats use repr, so values round-trip."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    _write(path, "\n".join(lines) + "\n")


_PLOT_SCRIPT = """\
import csv
import sys

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(sys.argv[1] if len(sys.argv) > 1
                                else "comparison.csv")))
t = [float(r["time"]) for r in rows]
for col, style in (("trace_distance", "o-"), ("l1_distance", "s-"),
                   ("epsilon_budget", "k--")):
    plt.plot(t, [float(r[col]) for r in rows], style, label=col)
plt.xlabel("time")
plt.yscale("log")
plt.legend()
plt.savefig("comparison.png", dpi=150)
"""


def emit_plots(report, out_dir: str) -> List[str]:
    """Write CSV series, a text summary, and a plot script; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if isinstance(report, ComparisonReport):
        csv_path = os.path.join(out_dir, "comparison.csv")
        rows = zip(report.times, report.trace_distances, report.l1_distances,
                   report.epsilons, report.passes)
        write_csv(csv_path, ["time", "trace_distance", "l1_distance",
                             "epsilon_budget", "passed"], rows)
        summary = (f"bound_applicable: {report.bound_applicable}\n"
                   f"margin: {report.margin!r}\n"
                   f"max_squeeze: {report.max_squeeze!r}\n"
                   f"passed: {report.passed}\n"
                   f"diagnostics: {sorted(report.diagnostics.items())}\n")
        script = os.path.join(out_dir, "plot_comparison.py")
        _write(script, _PLOT_SCRIPT)
        paths.append(script)
    else:
        csv_path = os.path.join(out_dir, "breakdown.csv")
        rows = zip(report.times, report.free_min, report.free_peak,
                   report.diffusive_min, report.diffusive_peak)
        write_csv(csv_path, ["time", "free_min_wigner", "free_peak_wigner",
                             "diffusive_min_wigner", "diffusive_peak_wigner"],
                  rows)
        summary = f"ehrenfest_estimate: {report.ehrenfest_estimate!r}\n"
    summary_path = os.path.join(out_dir, "summary.txt")
    _write(summary_path, summary)
    paths += [csv_path, summary_path]
    return paths
