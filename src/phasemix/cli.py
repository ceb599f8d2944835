"""Command-line front end.

Each subcommand reads an experiment config (INI), applies any flag
overrides, runs the requested solver or report, prints a text summary,
and writes CSV files with fixed column orders into the output directory.
Identical config and seed produce byte-identical outputs.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .config import load_config
from .fokker_planck import evolve_fokker_planck
from .harmonic_error import harmonic_error_report
from .harness import (Experiment, emit_plots, run_breakdown_demo,
                      run_comparison, write_csv)
from .langevin import evolve_langevin_ensemble, sample_gaussian_ensemble
from .lindblad import evolve_lindblad
from .mixture import evolve_mixture
from .scales import (ehrenfest_time, physical_example_time, step_schedule,
                     theorem_epsilon)

__all__ = ["main"]

HBAR_SI = 1.054571817e-34


def _add_common(p, needs_config=True):
    p.add_argument("--config", required=needs_config,
                   help="experiment config file (INI)")
    p.add_argument("--seed", type=int, help="override [flags] seed")
    p.add_argument("--out", help="output directory (default: config or .)")
    p.add_argument("--margin", type=float,
                   help="override the pass/fail margin fraction")
    p.add_argument("--z-cap", type=float, dest="z_cap",
                   help="override the squeeze cap")
    p.add_argument("--blur-cap", type=float, dest="blur_cap",
                   help="override the mixture blur spill threshold")
    p.add_argument("--effective-diffusion", action="store_true",
                   default=None, dest="effective_diffusion",
                   help="replace d_x by the heuristic d_p/(J2 m) estimate")


def _load(args):
    cfg = load_config(args.config)
    overrides = {name: getattr(args, name)
                 for name in ("seed", "out", "margin", "z_cap", "blur_cap",
                              "effective_diffusion")
                 if getattr(args, name, None) is not None}
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _out_dir(cfg):
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _save(out, name, header, rows):
    path = os.path.join(out, name)
    write_csv(path, header, rows)
    print(f"wrote {path}")


def _moment_rows(snapshots):
    rows = []
    for t, state in snapshots:
        mean, cov = state.moments()
        rows.append((float(t), float(mean[0]), float(mean[1]),
                     float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])))
    return rows


_MOMENT_HEADER = ["time", "mean_x", "mean_p", "cov_xx", "cov_xp", "cov_pp"]


def cmd_scales(args):
    cfg = _load(args)
    rep = Experiment.from_config(cfg).scales
    s_h = math.inf if rep.harmonic else rep.s_H
    z = math.inf if rep.z_infinite else rep.z
    eps = theorem_epsilon(rep, cfg.t_final, 1, cfg.z_cap) \
        if (not rep.z_infinite or cfg.z_cap) else math.inf
    for name, v in [("tau_H", rep.tau_H), ("a_H", rep.a_H), ("s_H", s_h),
                    ("x_H", rep.x_H), ("p_H", rep.p_H), ("D0", rep.d0),
                    ("z", z), (f"epsilon(t={cfg.t_final})", eps)]:
        print(f"{name:>20s}  {v!r}")
    _save(_out_dir(cfg), "scales.csv",
          ["tau_H", "a_H", "s_H", "x_H", "p_H", "D0", "z", "epsilon_t"],
          [(rep.tau_H, rep.a_H, s_h, rep.x_H, rep.p_H, rep.d0, z, eps)])
    return 0


def cmd_evolve_quantum(args):
    cfg = _load(args)
    exp = Experiment.from_config(cfg)
    traj = evolve_lindblad(exp.rho0(), exp.model, exp.diffusion, cfg.t_final,
                           exp.dt_quantum, snapshot_times=exp.snapshot_times,
                           edge_tol=cfg.edge_tol)
    rows = [r + (float(g.purity()),)
            for r, (_, g) in zip(_moment_rows(traj), traj)]
    _save(_out_dir(cfg), "quantum.csv", _MOMENT_HEADER + ["purity"], rows)
    return 0


def cmd_evolve_classical(args):
    cfg = _load(args)
    exp = Experiment.from_config(cfg)
    traj = evolve_fokker_planck(exp.f0(), exp.model, exp.diffusion,
                                cfg.t_final, exp.dt_classical,
                                snapshot_times=exp.snapshot_times)
    rows = [r + (float(f.mass()),)
            for r, (_, f) in zip(_moment_rows(traj), traj)]
    _save(_out_dir(cfg), "classical.csv", _MOMENT_HEADER + ["mass"], rows)
    return 0


def cmd_evolve_langevin(args):
    cfg = _load(args)
    exp = Experiment.from_config(cfg)
    ens = sample_gaussian_ensemble([cfg.x0, cfg.p0], exp.scales.sigma_star,
                                   cfg.samples, cfg.seed)
    _, dt, steps = step_schedule(cfg.t_final, exp.dt_langevin,
                                 exp.snapshot_times)
    traj = [(0.0, ens)]
    done = 0
    for k in sorted(steps):
        ens = evolve_langevin_ensemble(ens, exp.model, exp.diffusion,
                                       (k - done) * dt, dt)
        traj.append((k * dt, ens))
        done = k
    _save(_out_dir(cfg), "langevin.csv", _MOMENT_HEADER, _moment_rows(traj))
    return 0


def cmd_evolve_mixture(args):
    cfg = _load(args)
    exp = Experiment.from_config(cfg)
    traj = evolve_mixture(exp.mixture0(), exp.model, exp.diffusion,
                          cfg.t_final, exp.dt_mixture, blur_cap=cfg.blur_cap,
                          snapshot_times=exp.snapshot_times)
    rows = []
    for t, ens in traj:
        w = ens.weights
        mean = w @ ens.alphas
        dev = ens.alphas - mean
        cov = (np.einsum("m,mij->ij", w, ens.total_covs())
               + np.einsum("m,mi,mj->ij", w, dev, dev))
        rows.append((float(t), float(mean[0]), float(mean[1]),
                     float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]),
                     float(ens.squeeze_eigenvalues().max()),
                     int(ens.diagnostics.get("spill_count", 0))))
    _save(_out_dir(cfg), "mixture.csv",
          _MOMENT_HEADER + ["max_squeeze", "spill_count"], rows)
    return 0


def cmd_harmonic_error(args):
    cfg = _load(args)
    exp = Experiment.from_config(cfg)
    hbar = cfg.hbar
    rows = []
    for factor in (0.5, 1.0, 2.0, 4.0):
        s = exp.scales.sigma_star[0, 0] * factor
        sigma = np.diag([s, hbar**2 / (4.0 * s)])
        sx, sp = np.sqrt(sigma[0, 0]), np.sqrt(sigma[1, 1])
        x = np.linspace(cfg.x0 - 8 * sx, cfg.x0 + 8 * sx, 512)
        p = np.linspace(cfg.p0 - 8 * sp, cfg.p0 + 8 * sp, 512)
        r = harmonic_error_report([cfg.x0, cfg.p0], sigma, exp.model, hbar,
                                  x, p)
        rows.append((float(cfg.x0), float(s), r.bound_quantum,
                     r.bound_classical, r.numeric_quantum,
                     r.numeric_classical, r.ratio_quantum,
                     r.ratio_classical))
    _save(_out_dir(cfg), "harmonic_error.csv",
          ["alpha_x", "sigma_xx", "bound_quantum", "bound_classical",
           "numeric_quantum", "numeric_classical", "ratio_quantum",
           "ratio_classical"], rows)
    return 0


def cmd_compare(args):
    cfg = _load(args)
    report = run_comparison(cfg)
    for path in emit_plots(report, _out_dir(cfg)):
        print(f"wrote {path}")
    for t, td, l1, eps, ok in zip(report.times, report.trace_distances,
                                  report.l1_distances, report.epsilons,
                                  report.passes):
        print(f"t={t:10.4g}  trace={td:10.4g}  l1={l1:10.4g}  "
              f"budget={eps:10.4g}  {'pass' if ok else 'FAIL'}")
    if not report.bound_applicable:
        print("note: error budget not applicable (harmonic model or "
              "zero diffusion with a user squeeze cap)")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_breakdown_demo(args):
    cfg = _load(args)
    report = run_breakdown_demo(cfg)
    for path in emit_plots(report, _out_dir(cfg)):
        print(f"wrote {path}")
    print(f"ehrenfest_estimate: {report.ehrenfest_estimate!r}")
    return 0


def cmd_physical_example(args):
    rows = [
        ("ehrenfest_time_1s_unit_action",
         ehrenfest_time(1.0, 1.0, HBAR_SI)),
        ("sqrt_action_over_hbar_per_lyapunov",
         math.sqrt(1.0 / HBAR_SI) / 1.0),
        ("dust_grain_validity_time",
         physical_example_time(1e-11, 1.0, 1.0, 1e25, HBAR_SI)),
    ]
    for name, v in rows:
        print(f"{name:>40s}  {v:.4g} s")
    out = "."
    if getattr(args, "config", None):
        out = _out_dir(_load(args))
    elif getattr(args, "out", None):
        out = args.out
        os.makedirs(out, exist_ok=True)
    _save(out, "physical_example.csv", ["quantity", "seconds"], rows)
    return 0


COMMANDS = {
    "scales": cmd_scales,
    "evolve-quantum": cmd_evolve_quantum,
    "evolve-classical": cmd_evolve_classical,
    "evolve-langevin": cmd_evolve_langevin,
    "evolve-mixture": cmd_evolve_mixture,
    "harmonic-error": cmd_harmonic_error,
    "compare": cmd_compare,
    "breakdown-demo": cmd_breakdown_demo,
    "physical-example": cmd_physical_example,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="phasemix",
        description="Run and compare Lindblad, Fokker-Planck, and "
                    "Gaussian-mixture dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common(sub.add_parser(name),
                    needs_config=name != "physical-example")
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
