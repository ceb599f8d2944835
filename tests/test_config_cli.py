import os

import numpy as np
import pytest

from phasemix import harness
from phasemix.cli import main
from phasemix.config import (ExperimentConfig, parse_config, serialize_config)
from phasemix.harness import (emit_plots, run_breakdown_demo, run_comparison,
                              ComparisonReport)
from phasemix.scales import compute_scales

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

    def test_round_trip_fixpoint(self):
        cfg = parse_config(HARMONIC_INI)
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

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
    ])
    def test_anchored_errors(self, mangle, fragment):
        with pytest.raises(ValueError, match=fragment.replace("[", "\\[")):
            parse_config(mangle(HARMONIC_INI))

    def test_effective_diffusion_substitution(self):
        base = parse_config(HARMONIC_INI)
        cfg = parse_config(HARMONIC_INI.replace(
            "d_x = 0.05", "d_x = 0.0").replace(
            "[flags]", "[flags]\neffective_diffusion = true"))
        model = cfg.build_model()
        assert base.build_diffusion().d_x == 0.05
        # d_x replaced by d_p / (J2 m)
        assert cfg.build_diffusion(model).d_x == pytest.approx(
            0.05 / (model.sup2 * model.mass))

    def test_optional_fields_round_trip(self):
        text = HARMONIC_INI.replace("[flags]",
                                    "p_min = -4.0\np_max = 4.0\n\n[flags]")
        cfg = parse_config(text)
        assert cfg.p_min == -4.0
        assert parse_config(serialize_config(cfg)) == cfg


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

    def test_solvers_compared_at_the_same_times(self, monkeypatch):
        # a Fokker-Planck step of t_final / 109 is an odd step count, so
        # the snapshot at t_final / 2 does not fall on it
        cfg = parse_config(HARMONIC_INI.replace(
            "n_phase = 64", f"n_phase = 128\ndt_classical = {1.0 / 109!r}"))
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
        dt_fp = seen["evolve_fokker_planck"][0]
        assert round(cfg.t_final / dt_fp) % cfg.snapshots != 0
        assert rep.times == pytest.approx([0.5, 1.0], rel=1e-12)
        for _, times in seen.values():
            assert times == pytest.approx(rep.times, rel=1e-9)
        # the key sets the evolve-langevin step as well
        assert harness.Experiment.from_config(cfg).dt_langevin == dt_fp

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
                                 diagnostics={})
        emit_plots(empty, str(tmp_path / "e"))
        lines = (tmp_path / "e" / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("time,")
        one = ComparisonReport(scales=sc, margin=0.1, bound_applicable=False,
                               times=[1.0], trace_distances=[0.1],
                               l1_distances=[0.2], epsilons=[0.0],
                               passes=[False], max_squeeze=1.0,
                               diagnostics={})
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

    def test_evolve_subcommands_write_moments(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for sub, fname in (("evolve-quantum", "quantum.csv"),
                           ("evolve-classical", "classical.csv"),
                           ("evolve-langevin", "langevin.csv"),
                           ("evolve-mixture", "mixture.csv")):
            assert self.run(sub, "--config", cfg, "--out",
                            str(tmp_path)) == 0
            lines = (tmp_path / fname).read_text().splitlines()
            assert lines[0].startswith("time,mean_x,mean_p,cov_xx")
            assert len(lines) == 4  # t=0 plus two snapshots... plus header
            # means of all solvers agree loosely (same dynamics)
            last = lines[-1].split(",")
            assert abs(float(last[1]) - np.cos(1.0)) < 0.05

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

    def test_seed_override_changes_langevin(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        self.run("evolve-langevin", "--config", cfg, "--out", str(out1))
        self.run("evolve-langevin", "--config", cfg, "--seed", "99",
                 "--out", str(out2))
        assert (out1 / "langevin.csv").read_text() != \
            (out2 / "langevin.csv").read_text()
