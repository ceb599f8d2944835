import ast
import dataclasses
import importlib
import math
import os
import pkgutil
import re

import numpy as np
import pytest

import phasemix
from phasemix import cli, harness
from phasemix.cli import main
from phasemix.config import parse_config
from phasemix.fokker_planck import MASS_TOL
from phasemix.harness import emit_plots, run_comparison, ComparisonReport
from phasemix.lindblad import trace_distance
from phasemix.mixture import coherent_ensemble, mixture_to_density_grid
from phasemix.scales import compute_scales
from test_acceptance import well_benchmark_config

HARMONIC_INI = """
[model]
potential = harmonic
params = 1.0
mass = 1.0
x_min = -12.0
x_max = 12.0

[diffusion]
d_x = 0.05
d_p = 0.05
hbar = 1.0

[initial]
x = 1.0
p = 0.0

[numerics]
t_final = 1.0
n_grid = 128
n_phase = 64
snapshots = 2
particles = 1

[flags]
seed = 3
z_cap = 3.0
"""


@pytest.mark.parametrize("name", ["phasemix"] + [
    f"phasemix.{m.name}" for m in pkgutil.iter_modules(phasemix.__path__)])
def test_every_all_entry_exists(name):
    # a stale entry breaks `from name import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def _unused_imports(path):
    """Names that the file at `path` imports and never reads; a name
    listed in its `__all__` counts as read."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


def test_every_import_is_read():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    unused = [f"{os.path.relpath(os.path.join(d, f), root)}: {name}"
              for part in (os.path.join("src", "phasemix"), "tests", "tools")
              for d, _, files in os.walk(os.path.join(root, part))
              for f in sorted(files) if f.endswith(".py")
              for name in sorted(_unused_imports(os.path.join(d, f)))]
    assert unused == []


# the tests' generator oracle; it reads two private factor builders, so it
# stays beside them in `lindblad`
NO_PIPELINE_CALLER = {"lindblad.apply_lindbladian"}


def test_every_all_entry_has_a_pipeline_caller():
    # a public name that no run, CLI command or benchmark refers to is a
    # test helper and belongs under tests/
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(root, "src", "phasemix", f)
             for f in os.listdir(os.path.join(root, "src", "phasemix"))]
    paths += [os.path.join(root, "perfbench", f)
              for f in os.listdir(os.path.join(root, "perfbench"))
              if not f.startswith("test_")]
    refs = set()
    for path in (p for p in paths if p.endswith(".py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rpartition(".")[2])
    unused = {f"{m.name}.{n}" for m in pkgutil.iter_modules(phasemix.__path__)
              for n in getattr(importlib.import_module(f"phasemix.{m.name}"),
                               "__all__", ()) if n not in refs}
    assert unused == NO_PIPELINE_CALLER


def write_cfg(tmp_path, text=HARMONIC_INI, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config(HARMONIC_INI)
        assert cfg.potential == "harmonic"
        assert cfg.params == (1.0,)
        assert cfg.x0 == 1.0 and cfg.p0 == 0.0
        assert cfg.dt_quantum is None
        assert cfg.margin == 0.10
        assert cfg.z_cap == 3.0

    @pytest.mark.parametrize("mangle,fragment", [
        (lambda s: s.replace("mass = 1.0", "mass = heavy"),
         "[model] mass"),
        (lambda s: s.replace("mass = 1.0", ""), "[model] mass"),
        (lambda s: s.replace("d_x = 0.05", "d_x = -1"), "d_x"),
        (lambda s: s.replace("potential = harmonic", "potential = magnetic"),
         "magnetic"),
        (lambda s: s + "\nbogus = 1\n", "bogus"),
        (lambda s: s.replace("[flags]", "[extras]\nfoo = 1\n\n[flags]"),
         "extras"),
        (lambda s: s.replace("z_cap = 3.0", "z_cap = 0.5"), "z_cap"),
        (lambda s: s.replace("x_min = -12.0", "x_min = 20.0"), "x_min"),
        (lambda s: s.replace("params = 1.0", "params = 1.0, 2.0"),
         "'harmonic' takes exactly 1 params"),
        (lambda s: s.replace("params = 1.0", "params ="),
         "'harmonic' takes exactly 1 params (k); got 0"),
        (lambda s: s.replace("params = 1.0", "params = 0.25")
         .replace("potential = harmonic", "potential = double_well"),
         "'double_well' takes exactly 2 params (a, b); got 1"),
        (lambda s: s.replace("params = 1.0\n", ""), "[model] params"),
        (lambda s: s.replace("[flags]", "dt_mixture = 0.01\n\n[flags]"),
         "[numerics] dt_mixture: unknown option"),
        (lambda s: s.replace("[flags]", "dt_classical = 0.01\n\n[flags]"),
         "[numerics] dt_classical: unknown option"),
        (lambda s: s.replace("[flags]", "samples = 1\n\n[flags]"),
         "[numerics] samples must be at least 2"),
        # a misspelt section is unknown, not a missing [numerics] t_final
        (lambda s: s.replace("[numerics]", "[numeric]"),
         "[numeric]: unknown section"),
        # float() reads nan and inf; each is refused where it is read
        (lambda s: s.replace("mass = 1.0", "mass = nan"),
         "[model] mass: 'nan' is not finite"),
        (lambda s: s.replace("params = 1.0", "params = nan"),
         "[model] params: 'nan' is not finite"),
        (lambda s: s.replace("d_x = 0.05", "d_x = nan"),
         "[diffusion] d_x: 'nan' is not finite"),
        (lambda s: s.replace("hbar = 1.0", "hbar = nan"),
         "[diffusion] hbar: 'nan' is not finite"),
        (lambda s: s.replace("\nx = 1.0", "\nx = nan"),
         "[initial] x: 'nan' is not finite"),
        (lambda s: s.replace("t_final = 1.0", "t_final = nan"),
         "[numerics] t_final: 'nan' is not finite"),
        (lambda s: s.replace("t_final = 1.0", "t_final = inf"),
         "[numerics] t_final: 'inf' is not finite"),
        (lambda s: s.replace("z_cap = 3.0", "z_cap = nan"),
         "[flags] z_cap: 'nan' is not finite"),
        # the output directory is a run setting (--out), not an
        # experiment value
        (lambda s: s.replace("z_cap = 3.0", "z_cap = 3.0\nout = r"),
         "[flags] out: unknown option"),
    ])
    def test_anchored_errors(self, mangle, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            parse_config(mangle(HARMONIC_INI))

    @pytest.mark.parametrize("name, value, message", [
        ("params", (math.nan,), "[model] params: 'nan'"),
        ("mass", math.nan, "[model] mass: 'nan'"),
        ("x_min", math.nan, "[model] x_min: 'nan'"),
        ("x_max", math.nan, "[model] x_max: 'nan'"),
        ("d_x", math.nan, "[diffusion] d_x: 'nan'"),
        ("d_p", math.nan, "[diffusion] d_p: 'nan'"),
        ("hbar", math.nan, "[diffusion] hbar: 'nan'"),
        ("x0", math.nan, "[initial] x: 'nan'"),
        ("x0", math.inf, "[initial] x: 'inf'"),
        ("p0", math.nan, "[initial] p: 'nan'"),
        ("t_final", math.nan, "[numerics] t_final: 'nan'"),
        ("t_final", math.inf, "[numerics] t_final: 'inf'"),
        ("dt_quantum", math.nan, "[numerics] dt_quantum: 'nan'"),
        ("p_min", math.nan, "[numerics] p_min: 'nan'"),
        ("p_max", math.nan, "[numerics] p_max: 'nan'"),
        ("edge_tol", math.nan, "[numerics] edge_tol: 'nan'"),
        ("z_cap", math.nan, "[flags] z_cap: 'nan'"),
        ("blur_cap", math.nan, "[flags] blur_cap: 'nan'"),
        ("margin", math.nan, "[flags] margin: 'nan'"),
    ])
    def test_construction_refuses_non_finite(self, name, value, message):
        # a config built in Python is held to the parser's rule
        cfg = parse_config(HARMONIC_INI)
        with pytest.raises(ValueError,
                           match=re.escape(f"{message} is not finite")):
            dataclasses.replace(cfg, **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("particles", 2.5, "[numerics] particles: expected int, got 2.5"),
        ("n_grid", 256.0, "[numerics] n_grid: expected int, got 256.0"),
        ("snapshots", True, "[numerics] snapshots: expected int, got True"),
        ("seed", 1.5, "[flags] seed: expected int, got 1.5"),
        ("params", [math.nan],
         "[model] params: expected tuple of floats, got [nan]"),
    ], ids=["particles", "n_grid", "snapshots", "seed", "params"])
    def test_construction_refuses_wrong_type(self, name, value, message):
        # unchecked, a list of params would skip the finiteness check and
        # a fractional count would fail inside numpy with no option named
        cfg = parse_config(HARMONIC_INI)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(cfg, **{name: value})

    def test_construction_takes_numpy_scalars(self):
        cfg = dataclasses.replace(parse_config(HARMONIC_INI),
                                  particles=np.int64(7),
                                  mass=np.float64(2.0),
                                  params=(np.float64(1.0),))
        assert cfg.particles == 7 and cfg.mass == 2.0

    def test_optional_fields_round_trip(self):
        text = HARMONIC_INI.replace("[flags]",
                                    "p_min = -4.0\np_max = 4.0\n\n[flags]")
        cfg = parse_config(text)
        assert cfg.p_min == -4.0


class TestHarness:
    def test_comparison_harmonic_small(self, tmp_path):
        cfg = parse_config(HARMONIC_INI)
        rep = run_comparison(cfg)
        assert len(rep.times) == 2
        assert not rep.bound_applicable  # harmonic: budget trivially zero
        assert max(rep.trace_distances) < 1e-4
        # coarse 64x64 classical grid: modest but bounded solver error
        assert max(rep.l1_distances) < 0.2
        assert rep.max_squeeze <= 3.0 + 1e-9
        # the budget keeps the theorem's z; the mixture runs at the cap
        assert rep.z_budget == rep.scales.z == 20.0
        assert rep.z_mixture == 3.0
        emit_plots(rep, str(tmp_path))
        summary = (tmp_path / "summary.txt").read_text()
        assert "z_budget: 20.0\n" in summary
        assert "z_mixture: 3.0\n" in summary

    def test_solvers_compared_at_the_same_times(self, monkeypatch):
        # a Lindblad step of t_final / 109 is an odd step count, so the
        # snapshot at t_final / 2 does not fall on it
        cfg = parse_config(HARMONIC_INI.replace(
            "n_phase = 64", f"n_phase = 128\ndt_quantum = {1.0 / 109!r}"))
        seen = {}

        def spy(name):
            real = getattr(harness, name)

            def call(*args, **kwargs):
                traj = real(*args, **kwargs)
                seen[name] = (args[4], [t for t, _ in traj[1:]])
                return traj
            monkeypatch.setattr(harness, name, call)

        spy("evolve_lindblad")
        spy("evolve_fokker_planck")
        rep = run_comparison(cfg)
        dt_q = seen["evolve_lindblad"][0]
        assert round(cfg.t_final / dt_q) % cfg.snapshots != 0
        assert rep.times == pytest.approx([0.5, 1.0], rel=1e-12)
        for _, times in seen.values():
            assert times == pytest.approx(rep.times, rel=1e-9)

    def test_mixture0_is_the_coherent_ensemble(self):
        cfg = parse_config(HARMONIC_INI.replace("particles = 1",
                                                "particles = 4"))
        exp = harness.Experiment.from_config(cfg)
        ens = exp.mixture0()
        ref = coherent_ensemble([cfg.x0, cfg.p0], exp.scales, cfg.seed,
                                cfg.particles)
        assert ens.m == 4
        for name in ("weights", "alphas", "covs", "blurs"):
            assert np.array_equal(getattr(ens, name), getattr(ref, name))
        assert (ens.hbar, ens.seed) == (ref.hbar, ref.seed)

    def test_one_particle_raster_is_rho0(self):
        # rho0 is the one-particle call of the mixture's density raster
        cfg = parse_config(HARMONIC_INI)
        exp = harness.Experiment.from_config(cfg)
        rho0 = exp.rho0()
        ens = coherent_ensemble([cfg.x0, cfg.p0], exp.scales, cfg.seed)
        grid = mixture_to_density_grid(ens, rho0.x)
        assert np.array_equal(grid.rho, rho0.rho)
        assert trace_distance(grid, rho0) == 0.0

    def test_zero_diffusion_without_cap_rejected(self):
        text = HARMONIC_INI.replace("d_x = 0.05", "d_x = 0.0") \
                           .replace("d_p = 0.05", "d_p = 0.0") \
                           .replace("z_cap = 3.0", "z_cap = none")
        with pytest.raises(ValueError, match="z_cap"):
            run_comparison(parse_config(text))

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(HARMONIC_INI)
        out = []
        for sub in ("a", "b"):
            rep = run_comparison(cfg)
            d = tmp_path / sub
            emit_plots(rep, str(d))
            out.append((d / "comparison.csv").read_bytes())
        assert out[0] == out[1]

    def test_emit_plots_empty_and_single(self, tmp_path):
        sc = compute_scales(parse_config(HARMONIC_INI).build_model(),
                            parse_config(HARMONIC_INI).build_diffusion())
        empty = ComparisonReport(scales=sc, margin=0.1,
                                 bound_applicable=False, times=[],
                                 trace_distances=[], l1_distances=[],
                                 epsilons=[], passes=[], max_squeeze=0.0,
                                 diagnostics={}, z_budget=sc.z,
                                 z_mixture=3.0)
        emit_plots(empty, str(tmp_path / "e"))
        lines = (tmp_path / "e" / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("time,")
        one = ComparisonReport(scales=sc, margin=0.1, bound_applicable=False,
                               times=[1.0], trace_distances=[0.1],
                               l1_distances=[0.2], epsilons=[0.0],
                               passes=[False], max_squeeze=1.0,
                               diagnostics={}, z_budget=sc.z, z_mixture=3.0)
        emit_plots(one, str(tmp_path / "o"))
        lines = (tmp_path / "o" / "comparison.csv").read_text().splitlines()
        assert len(lines) == 2
        assert not one.passed


class TestCLI:
    def run(self, *argv):
        return main(list(argv))

    def test_scales_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert self.run("scales", "--config", cfg,
                        "--out", str(tmp_path)) == 0
        text = (tmp_path / "scales.csv").read_text().splitlines()
        assert text[0] == "tau_H,a_H,s_H,x_H,p_H,D0,z,epsilon_t"
        row = text[1].split(",")
        assert float(row[0]) == 1.0  # tau_H
        assert row[2] == "inf"       # harmonic: s_H flagged infinite
        assert "tau_H" in capsys.readouterr().out

    @pytest.mark.parametrize("potential, params, eps", [
        ("harmonic", "1.0", "0.0"),         # theorem_epsilon: exact
        ("double_well", "0.25, 1.0", "inf"),  # budget_z refuses
    ])
    def test_scales_noiseless_without_cap(self, tmp_path, capsys,
                                          potential, params, eps):
        text = HARMONIC_INI.replace("potential = harmonic",
                                    f"potential = {potential}") \
                           .replace("params = 1.0", f"params = {params}") \
                           .replace("d_x = 0.05", "d_x = 0.0") \
                           .replace("d_p = 0.05", "d_p = 0.0") \
                           .replace("z_cap = 3.0\n", "")
        cfg = write_cfg(tmp_path, text)
        assert self.run("scales", "--config", cfg,
                        "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out.split()
        assert out[out.index("epsilon(t=1.0)") + 1] == eps
        row = (tmp_path / "scales.csv").read_text().splitlines()[1]
        assert row.split(",")[-1] == eps

    def test_evolve_subcommands_write_moments(self, tmp_path):
        cfg = write_cfg(tmp_path)
        z_cap = parse_config(HARMONIC_INI).z_cap
        valid = {"purity": lambda v: float(v) <= 1.0 + 1e-12,
                 "mass": lambda v: abs(float(v) - 1.0) <= MASS_TOL,
                 "max_squeeze": lambda v: float(v) <= z_cap,
                 "spill_count": lambda v: str(int(v)) == v}
        for sub, fname, extra in (
                ("evolve-quantum", "quantum.csv", ["purity"]),
                ("evolve-classical", "classical.csv", ["mass"]),
                ("evolve-langevin", "langevin.csv", []),
                ("evolve-mixture", "mixture.csv",
                 ["max_squeeze", "spill_count"])):
            runs = []
            for out in (tmp_path / "a", tmp_path / "b"):
                assert self.run(sub, "--config", cfg, "--out",
                                str(out)) == 0
                runs.append((out / fname).read_bytes())
            assert runs[0] == runs[1]
            lines = runs[0].decode().splitlines()
            assert lines[0].split(",") == ["time", "mean_x", "mean_p",
                                           "cov_xx", "cov_xp", "cov_pp",
                                           *extra]
            assert len(lines) == 4  # header, t = 0 and two snapshots
            # means of all solvers agree loosely (same dynamics)
            last = lines[-1].split(",")
            assert abs(float(last[1]) - np.cos(1.0)) < 0.05
            for line in lines[1:]:
                for col, v in zip(extra, line.split(",")[6:]):
                    assert valid[col](v), (sub, col, v)

    def test_harmonic_error_csv(self, tmp_path):
        text = HARMONIC_INI.replace("potential = harmonic",
                                    "potential = cubic_harmonic") \
                           .replace("params = 1.0", "params = 0.05") \
                           .replace("x_min = -12.0", "x_min = -40.0") \
                           .replace("x_max = 12.0", "x_max = 40.0") \
                           .replace("x = 1.0", "x = 0.0")
        cfg = write_cfg(tmp_path, text)
        assert self.run("harmonic-error", "--config", cfg, "--out",
                        str(tmp_path)) == 0
        lines = (tmp_path / "harmonic_error.csv").read_text().splitlines()
        assert lines[0].startswith("alpha_x,sigma_xx,bound_quantum")
        assert len(lines) == 5
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[4] <= vals[2] * 1.05  # numeric <= quantum bound
            assert vals[5] <= vals[3] * 1.05  # numeric <= classical bound

    def test_compare_exit_codes_and_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path)
        # harmonic: epsilon = 0, so the formal pass criterion fails
        assert self.run("compare", "--config", cfg, "--out",
                        str(tmp_path)) == 1
        assert (tmp_path / "comparison.csv").exists()

    def test_physical_example(self, tmp_path, capsys):
        assert self.run("physical-example", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "dust_grain_validity_time" in out
        assert (tmp_path / "physical_example.csv").exists()
        # it reads no config, so it takes no --config (and no subcommand
        # takes --seed)
        for extra in (["--seed", "3"], ["--config", write_cfg(tmp_path)]):
            with pytest.raises(SystemExit, match="2"):  # argparse usage
                self.run("physical-example", *extra)

    def test_ini_values_have_no_flags(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for extra in (["--margin", "0.2"], ["--z-cap", "2"],
                      ["--blur-cap", "2"], ["--effective-diffusion"],
                      ["--seed", "3"]):
            with pytest.raises(SystemExit, match="2"):  # argparse usage
                self.run("compare", "--config", cfg, *extra)

    def test_seed_override_changes_langevin(self, tmp_path):
        # [flags] seed is the one entry point of the seed
        runs = []
        for seed in (3, 99):
            cfg = write_cfg(tmp_path, HARMONIC_INI.replace(
                "seed = 3", f"seed = {seed}"), f"s{seed}.ini")
            out = tmp_path / f"s{seed}"
            assert self.run("evolve-langevin", "--config", cfg,
                            "--out", str(out)) == 0
            runs.append((out / "langevin.csv").read_text())
        assert runs[0] != runs[1]

    @pytest.mark.parametrize("make_cfg, fragment", [
        (lambda d: write_cfg(d, HARMONIC_INI.replace("hbar = 1.0",
                                                     "hbar = nan")),
         "[diffusion] hbar: 'nan' is not finite"),
        (lambda d: str(d / "missing.ini"), "No such file"),
    ], ids=["nan", "missing"])
    def test_bad_config_is_one_line(self, tmp_path, capsys, make_cfg,
                                    fragment):
        cfg = make_cfg(tmp_path)
        # 2: argparse's status for a usage error
        assert self.run("scales", "--config", cfg,
                        "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"phasemix: error: {cfg}: ")
        assert fragment in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "r").exists()

    def test_bad_out_is_one_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        assert self.run("scales", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"phasemix: error: {out}: ")
        assert "Traceback" not in err and len(err.splitlines()) == 1


def _readme_blocks(lang):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_matches_the_config_and_the_cli():
    # a renamed or removed option or subcommand fails here until the
    # README follows; the example is acceptance 02's config, so that test
    # runs it
    (ini,) = _readme_blocks("ini")
    assert parse_config(ini) == well_benchmark_config(blur_cap=32.0,
                                                      margin=0.10)
    commands = {line.split()[1] for block in _readme_blocks("sh")
                for line in block.splitlines()
                if line.startswith("phasemix ")}
    assert commands == set(cli.COMMANDS)
