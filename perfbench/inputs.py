"""Workload inputs: one INI experiment description per workload and seed.

Standard library only, so that `setup_probe` can generate and write the INI
inside its timed region without importing numpy or phasemix first.

The double-well numbers are those of the acceptance suite's
`well_benchmark_config`: hbar = 1e-3 s_H and D0 = 3 x the diffusion
threshold at (0.3, 5 tau_H).  They are written out here, to full precision,
so the program under test receives only generated inputs;
`test_perfbench.py` checks them against the scale relations.
"""

WELL_TAU_H = 0.19611613513818404
WELL_HBAR = 0.010638695034533093
WELL_D_X = 0.020824541467478745
WELL_D_P = 0.5414380781544473

_WELL_MODEL = {
    "model": {"potential": "double_well", "params": "0.25, 1.0",
              "mass": 1.0, "x_min": -3.0, "x_max": 3.0},
    "diffusion": {"d_x": WELL_D_X, "d_p": WELL_D_P, "hbar": WELL_HBAR},
    "initial": {"x": 0.5, "p": 0.0},
}

# name -> (INI sections without [flags] seed, default seed).  The
# default seeds are the acceptance tests' own (01: 3, 02 and 10: 11,
# 11: 19).  Horizons, step sizes and snapshot counts are cut from the
# acceptance configs so that one call takes about 3 s and a run holds
# about nine calls.  well_budget also has fewer particles and stops before
# its first spill (2.2 tau_H): with spills, an ensemble this small fails
# its budget check.  README.md gives the numbers.
WORKLOADS = {
    "harmonic_exact": ({
        "model": {"potential": "harmonic", "params": "1.0", "mass": 1.0,
                  "x_min": -6.5, "x_max": 6.5},
        "diffusion": {"d_x": 0.05, "d_p": 0.05, "hbar": 1.0},
        "initial": {"x": 1.0, "p": 0.0},
        "numerics": {"t_final": 0.08, "dt_quantum": 0.004, "n_grid": 256,
                     "n_phase": 640, "p_min": -5.5, "p_max": 5.5,
                     "particles": 1, "snapshots": 1},
        "flags": {"z_cap": 3.0},
    }, 3),
    "well_budget": (dict(_WELL_MODEL, **{
        "numerics": {"t_final": WELL_TAU_H,
                     "dt_quantum": WELL_TAU_H / 40.0, "n_grid": 512,
                     "n_phase": 128, "particles": 64, "snapshots": 1,
                     "edge_tol": 1e-4},
        "flags": {"blur_cap": 32.0, "margin": 0.10},
    }), 11),
    "well_breakdown": (dict(_WELL_MODEL, **{
        "numerics": {"t_final": 8.0 * WELL_TAU_H,
                     "dt_quantum": WELL_TAU_H / 6.0, "n_grid": 512,
                     "n_phase": 128, "particles": 1000, "snapshots": 4,
                     "edge_tol": 1e-4},
    }), 11),
    "langevin_fp": (dict(_WELL_MODEL, **{
        "numerics": {"t_final": 0.2 * WELL_TAU_H, "n_phase": 256,
                     "p_min": -3.0, "p_max": 3.0, "samples": 1_000_000},
    }), 19),
}


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def make_ini(name: str, seed: int) -> str:
    """INI text of workload `name`; `seed` is its only free input."""
    sections, _ = WORKLOADS[name]
    lines = []
    for section in ("model", "diffusion", "initial", "numerics", "flags"):
        options = dict(sections.get(section, {}))
        if section == "flags":
            options["seed"] = seed
        lines.append(f"[{section}]")
        lines += [f"{key} = {_format(val)}" for key, val in options.items()]
        lines.append("")
    return "\n".join(lines)


def default_seed(name: str) -> int:
    return WORKLOADS[name][1]
