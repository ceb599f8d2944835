"""Self-tests of the benchmark; they run no workload.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import inputs
import setup_probe

sys.path.insert(0, setup_probe.SRC)

import phasemix                                    # noqa: E402
from phasemix import fokker_planck                 # noqa: E402
from phasemix.scales import DiffusionSpec, diffusion_threshold  # noqa: E402

import run                                         # noqa: E402
import tracer                                      # noqa: E402
import workloads                                   # noqa: E402


def _current(owner_path, attr):
    owner = tracer.resolve_owner(owner_path)
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


# -- tracer ---------------------------------------------------------------

def test_tracer_restores_every_patched_name():
    before = [_current(o, a) for o, a, _, _ in tracer.PATCHES]
    with tracer.Tracer():
        during = [_current(o, a) for o, a, _, _ in tracer.PATCHES]
    assert all(d is not b for d, b in zip(during, before))
    assert [_current(o, a) for o, a, _, _ in tracer.PATCHES] == before


def test_tracer_restores_names_when_traced_code_raises():
    before = [_current(o, a) for o, a, _, _ in tracer.PATCHES]
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert [_current(o, a) for o, a, _, _ in tracer.PATCHES] == before


def test_spans_nest_and_self_time_excludes_children():
    tr = tracer.Tracer(patches=[])
    with tr.span("run"):
        with tr.span("child"):
            with tr.span("grandchild"):
                pass
    (_, s0, e0, p0), (_, s1, e1, p1), (_, _, _, p2) = tr.spans
    assert (p0, p1, p2) == (-1, 0, 1)
    assert tr.self_time(0) == pytest.approx((e0 - s0) - (e1 - s1))
    assert tr.fired() == {"run", "child", "grandchild"}


def test_traced_call_records_span_and_work_count():
    from phasemix import rng
    with tracer.Tracer() as tr:
        rng.stream_normals(1, 2, 3, (2, 5))
    assert tr.counts["rng.stream_normals.calls"] == 1
    assert tr.counts["rng.normals"] == 10
    assert tr.fired() == {"rng.stream_normals"}


def test_span_coverage_guard_names_spans_that_never_fired():
    wl = workloads.WORKLOADS["langevin_fp"]
    fired = set(wl.spans) - {"rng.stream_normals"}
    assert workloads.missing_spans(wl, fired) == ["rng.stream_normals"]
    assert workloads.missing_spans(wl, wl.spans) == []


def test_every_expected_span_has_a_patch():
    patched = {name for _, _, name, _ in tracer.PATCHES}
    for wl in workloads.WORKLOADS.values():
        assert set(wl.spans) <= patched


# -- envelope shares --------------------------------------------------------

def _random_particles(rng, m):
    alphas = np.column_stack([rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)])
    covs = np.empty((m, 2, 2))
    for k in range(m):
        a = rng.normal(size=(2, 2)) * 0.2
        covs[k] = a @ a.T + 0.01 * np.eye(2)
    return alphas, covs


def test_density_envelope_count_matches_brute_force():
    rng = np.random.default_rng(5)
    x = np.linspace(-3, 3, 64, endpoint=False)
    alphas, covs = _random_particles(rng, 7)
    hbar = 0.05
    u = 0.5 * (x[:, None] + x[None, :])
    v = x[:, None] - x[None, :]
    brute = 0
    for (mx, _), c in zip(alphas, covs):
        spp_c = c[1, 1] - c[0, 1]**2 / c[0, 0]
        expo = (u - mx)**2 / (2 * c[0, 0]) + spp_c * v**2 / (2 * hbar**2)
        brute += int((expo < tracer.ENVELOPE).sum())
    assert tracer.density_envelope_evals(x, alphas, covs, hbar) == brute


def test_phase_envelope_count_matches_brute_force():
    rng = np.random.default_rng(6)
    x = np.linspace(-3, 3, 50)
    p = np.linspace(-2, 2, 70)
    alphas, covs = _random_particles(rng, 7)
    brute = 0
    for (mx, mp), c in zip(alphas, covs):
        inv = np.linalg.inv(c)
        dx = (x - mx)[:, None]
        dp = (p - mp)[None, :]
        q = inv[0, 0] * dx**2 + 2 * inv[0, 1] * dx * dp + inv[1, 1] * dp**2
        brute += int((0.5 * q < tracer.ENVELOPE).sum())
    assert tracer.phase_envelope_evals(x, p, alphas, covs) == brute


# -- checks and determinism -------------------------------------------------

PASSING = {
    "harmonic_exact": {"max_trace_distance": 3.3e-7,
                       "max_l1_distance": 4.0e-5},
    "well_budget": {"worst_budget_ratio": 0.344, "margin": 0.10},
    "well_breakdown": {"free_negativity": 0.443,
                       "diffusive_floor": -2.2e-11},
    "langevin_fp": {"l1_vs_fp": 0.0105},
}

PERTURBED = [
    ("harmonic_exact", "max_trace_distance", 1.2e-3),
    ("harmonic_exact", "max_l1_distance", 1.0e-3),
    ("well_budget", "worst_budget_ratio", 1.1000001),
    ("well_breakdown", "free_negativity", 0.10),
    ("well_breakdown", "diffusive_floor", -0.0101),
    ("langevin_fp", "l1_vs_fp", 0.0501),
]


@pytest.mark.parametrize("name", sorted(PASSING))
def test_acceptance_values_pass_their_checks(name):
    wl = workloads.WORKLOADS[name]
    assert workloads.failed_checks(wl, PASSING[name]) == []
    assert 0.0 < workloads.headroom(wl, PASSING[name]) <= 1.0


@pytest.mark.parametrize("name, key, value", PERTURBED)
def test_each_check_rejects_a_perturbed_result(name, key, value):
    wl = workloads.WORKLOADS[name]
    values = dict(PASSING[name], **{key: value})
    assert [c.name for c in workloads.failed_checks(wl, values)] == [key]
    assert workloads.headroom(wl, values) <= 0.0


class _Scripted:
    """A workload whose calls return scripted values and digests."""

    spans = ()

    def __init__(self, results):
        self.results = iter(results)
        self.checks = workloads.WORKLOADS["langevin_fp"].checks

    def call(self, cfg, out_dir):
        result = next(self.results)
        if isinstance(result, Exception):
            raise result
        return result


def test_calls_count_differing_output_raise_and_failed_check(tmp_path):
    ok = ({"l1_vs_fp": 0.01}, "aa")
    calls = run.Calls(_Scripted([ok, ({"l1_vs_fp": 0.01}, "bb"),
                                 RuntimeError("boom"),
                                 ({"l1_vs_fp": 0.2}, "aa"), ok]),
                      None, str(tmp_path))
    for _ in range(5):
        calls.call()
    assert (calls.attempted, calls.failed) == (5, 3)


# -- inputs -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_one_seed_always_gives_the_same_ini(name):
    assert inputs.make_ini(name, 7) == inputs.make_ini(name, 7)
    cfg = phasemix.parse_config(inputs.make_ini(name, 7))
    assert cfg.seed == 7


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_another_seed_changes_only_the_noise_key(name):
    a = inputs.make_ini(name, 7).splitlines()
    b = inputs.make_ini(name, 8).splitlines()
    assert [(x, y) for x, y in zip(a, b) if x != y] == [("seed = 7",
                                                         "seed = 8")]


def test_double_well_numbers_follow_the_scale_relations():
    # the acceptance suite's derivation: hbar = 1e-3 s_H and
    # D0 = 3 x threshold(0.3, 5 tau_H)
    cfg = phasemix.parse_config(inputs.make_ini("well_budget", 11))
    model = cfg.build_model()
    sc0 = phasemix.compute_scales(model, DiffusionSpec(1.0, 1.0, 1.0))
    hbar = 1e-3 * sc0.s_H
    sc = phasemix.compute_scales(model, DiffusionSpec(1.0, 1.0, hbar))
    d0 = 3.0 * diffusion_threshold(sc, 0.3, 5.0 * sc.tau_H, 1)
    assert inputs.WELL_HBAR == pytest.approx(hbar, rel=1e-12)
    assert inputs.WELL_TAU_H == pytest.approx(sc.tau_H, rel=1e-12)
    assert inputs.WELL_D_X == pytest.approx(d0 * sc.x_H**2 / sc.tau_H,
                                            rel=1e-12)
    assert inputs.WELL_D_P == pytest.approx(d0 * sc.p_H**2 / sc.tau_H,
                                            rel=1e-12)


def test_langevin_caller_dt_is_acceptance_elevens():
    cfg = phasemix.parse_config(inputs.make_ini("langevin_fp", 19))
    model = cfg.build_model()
    diffusion = cfg.build_diffusion(model)
    sc = phasemix.compute_scales(model, diffusion)
    x = -3.0 + 6.0 * (np.arange(cfg.n_phase) + 0.5) / cfg.n_phase
    f0 = fokker_planck.gaussian_phase_field([cfg.x0, cfg.p0], sc.sigma_star,
                                            x, x)
    adv, diff = fokker_planck._cfl_limits(f0, model, diffusion)
    assert workloads.caller_dt(f0, model, diffusion) == pytest.approx(
        0.8 * min(adv, diff), rel=1e-12)


# -- contract ---------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_reports():
    with open(os.path.join(setup_probe.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(inputs.WORKLOADS)


def test_run_refuses_without_the_phasemix_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in os.listdir(here):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(here, name),
                                            "rb").read())
    out = subprocess.run([sys.executable, str(bench / "run.py"),
                          "--workload", "well_budget", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
