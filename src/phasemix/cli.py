"""Command-line front end.

Each subcommand but `physical-example` reads an experiment config (INI)
named by --config, which sets every experiment value, the seed included;
the one other flag is --out, the output directory (default: the current
one).  `physical-example` takes only --out.  A config that cannot be read
or is invalid, or an output directory that cannot be made, ends the run
with one line on stderr and exit status 2.
A subcommand runs the requested report, or one solver leg of
`harness.Experiment`, prints a text summary, and writes CSV files with
fixed column orders into the output directory.  The `evolve-*`
subcommands share one function, driven by the table `EVOLVE`: each runs
its leg and writes the moments of every snapshot, plus that solver's own
columns.  Identical config and BLAS thread count produce byte-identical
outputs.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .config import load_config
from .gaussian import nts_eigenvalues
from .harmonic_error import harmonic_error_report
from .harness import (Experiment, emit_plots, run_breakdown_demo,
                      run_comparison, write_csv)
from .scales import ehrenfest_time, physical_example_time, theorem_epsilon

__all__ = ["main"]

HBAR_SI = 1.054571817e-34


def _save(out, name, header, rows):
    path = os.path.join(out, name)
    write_csv(path, header, rows)
    print(f"wrote {path}")


def cmd_scales(cfg, out):
    rep = Experiment.from_config(cfg).scales
    try:
        eps = theorem_epsilon(rep, cfg.t_final, cfg.z_cap)
    except ValueError:  # budget_z: D0 = 0 and no z_cap
        eps = math.inf
    for name, v in [("tau_H", rep.tau_H), ("a_H", rep.a_H), ("s_H", rep.s_H),
                    ("x_H", rep.x_H), ("p_H", rep.p_H), ("D0", rep.d0),
                    ("z", rep.z), (f"epsilon(t={cfg.t_final})", eps)]:
        print(f"{name:>20s}  {v!r}")
    _save(out, "scales.csv",
          ["tau_H", "a_H", "s_H", "x_H", "p_H", "D0", "z", "epsilon_t"],
          [(rep.tau_H, rep.a_H, rep.s_H, rep.x_H, rep.p_H, rep.d0, rep.z,
            eps)])
    return 0


# subcommand -> (Experiment leg, CSV name, {extra column: value of a
# snapshot state under the experiment})
EVOLVE = {
    "evolve-quantum": ("quantum", "quantum.csv", {
        "purity": lambda exp, g: float(g.purity())}),
    "evolve-classical": ("classical", "classical.csv", {
        "mass": lambda exp, f: float(f.mass())}),
    "evolve-langevin": ("langevin", "langevin.csv", {}),
    "evolve-mixture": ("mixture", "mixture.csv", {
        "max_squeeze": lambda exp, ens: float(
            nts_eigenvalues(ens.covs, exp.scales.sigma_star).max()),
        "spill_count": lambda exp, ens: int(
            ens.diagnostics.get("spill_count", 0))}),
}


def cmd_evolve(leg, name, extra, cfg, out):
    exp = Experiment.from_config(cfg)
    rows = []
    for t, state in getattr(exp, leg)():
        mean, cov = state.moments()
        rows.append((float(t), float(mean[0]), float(mean[1]),
                     float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]))
                    + tuple(value(exp, state) for value in extra.values()))
    _save(out, name,
          ["time", "mean_x", "mean_p", "cov_xx", "cov_xp", "cov_pp",
           *extra], rows)
    return 0


def cmd_harmonic_error(cfg, out):
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
    _save(out, "harmonic_error.csv",
          ["alpha_x", "sigma_xx", "bound_quantum", "bound_classical",
           "numeric_quantum", "numeric_classical", "ratio_quantum",
           "ratio_classical"], rows)
    return 0


def cmd_compare(cfg, out):
    report = run_comparison(cfg)
    for path in emit_plots(report, out):
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


def cmd_breakdown_demo(cfg, out):
    report = run_breakdown_demo(cfg)
    for path in emit_plots(report, out):
        print(f"wrote {path}")
    print(f"ehrenfest_estimate: {report.ehrenfest_estimate!r}")
    return 0


def cmd_physical_example(cfg, out):
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
    _save(out, "physical_example.csv", ["quantity", "seconds"], rows)
    return 0


COMMANDS = {
    "scales": cmd_scales,
    **{name: functools.partial(cmd_evolve, *leg)
       for name, leg in EVOLVE.items()},
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
        p = sub.add_parser(name)
        if name != "physical-example":
            p.add_argument("--config", required=True,
                           help="experiment config file (INI)")
        p.add_argument("--out", default=".",
                       help="output directory (default: .)")
    args = parser.parse_args(argv)
    cfg = None
    if args.command != "physical-example":
        try:
            cfg = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"phasemix: error: {args.config}: {exc}", file=sys.stderr)
            return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"phasemix: error: {args.out}: {exc}", file=sys.stderr)
        return 2
    return COMMANDS[args.command](cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
