import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phasemix.fokker_planck import (
    evolve_fokker_planck,
    gaussian_phase_field,
    l1_distance,
)
from phasemix import mixture
from phasemix.langevin import (
    LangevinEnsemble,
    ensemble_histogram,
    evolve_langevin_ensemble,
    sample_gaussian_ensemble,
)
from phasemix.potentials import DoubleWell, HamiltonianModel, Harmonic
from phasemix.scales import DiffusionSpec, compute_scales

HARMONIC = HamiltonianModel(1.0, Harmonic(1.0), (-8.0, 8.0))
NO_DIFF = DiffusionSpec(0.0, 0.0, 1.0)


def test_sampling_moments_and_reproducibility():
    cov = np.array([[0.4, 0.1], [0.1, 0.3]])
    ens = sample_gaussian_ensemble([0.5, -0.2], cov, 200_000, seed=42)
    mean, got = ens.moments()
    assert np.abs(mean - [0.5, -0.2]).max() < 0.01
    assert np.abs(got - cov).max() < 0.01
    ens2 = sample_gaussian_ensemble([0.5, -0.2], cov, 200_000, seed=42)
    assert np.array_equal(ens.x, ens2.x) and np.array_equal(ens.p, ens2.p)


def test_deterministic_limit_tracks_rk_reference():
    ens = LangevinEnsemble(np.array([1.0]), np.array([0.5]), seed=1)
    dt, t = 1e-4, 2.0
    out = evolve_langevin_ensemble(ens, HARMONIC, NO_DIFF, t, dt)
    ref = solve_ivp(lambda _, y: [y[1], -y[0]], [0, t], [1.0, 0.5],
                    rtol=1e-10).y[:, -1]
    # Euler integration: global error O(dt) * t * scale
    assert abs(out.x[0] - ref[0]) < 50 * dt
    assert abs(out.p[0] - ref[1]) < 50 * dt


def test_harmonic_diffusion_covariance_oracle():
    cov0 = 0.25 * np.eye(2)
    diff = DiffusionSpec(0.04, 0.06, 1.0)
    m = 400_000
    ens = sample_gaussian_ensemble([0.0, 0.0], cov0, m, seed=7)
    t, dt = 1.0, 0.002
    out = evolve_langevin_ensemble(ens, HARMONIC, diff, t, dt)
    d = diff.matrix(1)
    f = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sol = solve_ivp(lambda _, y: (f @ y.reshape(2, 2) + y.reshape(2, 2) @ f.T
                                  + d).ravel(),
                    [0, t], cov0.ravel(), rtol=1e-10).y[:, -1].reshape(2, 2)
    _, got = out.moments()
    # variance-of-variance SE ~ sqrt(2/m) * var; allow 3 SE plus O(dt) bias
    se = np.sqrt(2.0 / m) * np.abs(sol).max()
    assert np.abs(got - sol).max() < 3.0 * se + 2.0 * dt * np.abs(sol).max()


def test_chunked_run_matches_single_shot():
    ens = sample_gaussian_ensemble([0.0, 0.0], 0.2 * np.eye(2), 1000, seed=3)
    diff = DiffusionSpec(0.05, 0.05, 1.0)
    once = evolve_langevin_ensemble(ens, HARMONIC, diff, 1.0, 0.01)
    half = evolve_langevin_ensemble(ens, HARMONIC, diff, 0.5, 0.01)
    full = evolve_langevin_ensemble(half, HARMONIC, diff, 0.5, 0.01)
    assert np.array_equal(once.x, full.x)
    assert np.array_equal(once.p, full.p)
    assert once.steps_taken == full.steps_taken == 100


def test_histogram_mass_and_grid():
    ens = sample_gaussian_ensemble([0.0, 0.0], 0.2 * np.eye(2), 50_000,
                                   seed=9)
    n, box = 64, 6.0
    x = -box + 2 * box * (np.arange(n) + 0.5) / n
    h = ensemble_histogram(ens, x, x)
    assert h.mass() == pytest.approx(1.0, abs=1e-6)
    mean, cov = h.moments()
    assert np.abs(mean).max() < 0.02
    assert abs(cov[0, 0] - 0.2) < 0.01


def test_histogram_l1_shrinks_with_ensemble_size():
    model = HamiltonianModel(1.0, DoubleWell(0.25, 1.0), (-3.0, 3.0))
    diff = DiffusionSpec(0.02, 0.05, 1.0)
    n, box = 64, 3.5
    xg = -box + 2 * box * (np.arange(n) + 0.5) / n
    f0 = gaussian_phase_field([0.0, 0.0], 0.04 * np.eye(2), xg, xg)
    t, dt = 1.0, 0.002
    _, f_ref = evolve_fokker_planck(f0, model, diff, t, dt)[-1]

    def l1_at(m, seed):
        ens = sample_gaussian_ensemble([0.0, 0.0], 0.04 * np.eye(2), m, seed)
        out = evolve_langevin_ensemble(ens, model, diff, t, 0.005)
        return l1_distance(ensemble_histogram(out, xg, xg), f_ref)

    small = np.mean([l1_at(20_000, s) for s in (11, 12, 13)])
    large = np.mean([l1_at(80_000, s) for s in (14, 15, 16)])
    # quadrupling M should halve the statistical L1 error
    assert large < small
    assert 1.4 < small / large < 2.6


def test_shape_validation():
    with pytest.raises(ValueError):
        LangevinEnsemble(np.zeros(3), np.zeros(4), seed=0)


def test_noise_is_not_a_mixture_particles_kick(monkeypatch):
    # mixture particle i spills on stream i; at the same (seed, step) the
    # Langevin noise must not repeat any particle's kick
    seed = 7
    kicks = []
    draw = mixture.stream_normals

    def spy(seed, stream, step, shape):
        xi = draw(seed, stream, step, shape)
        kicks.append(xi)
        return xi

    monkeypatch.setattr(mixture, "stream_normals", spy)
    well = HamiltonianModel(1.0, DoubleWell(0.25, 1.0), (-3.0, 3.0))
    diff = DiffusionSpec(0.3, 0.5, 1.0)
    sc = compute_scales(well, diff)
    ens = mixture.MixtureEnsemble(
        weights=np.full(4, 0.25), alphas=np.tile([0.5, 0.0], (4, 1)),
        covs=np.tile(sc.sigma_star, (4, 1, 1)), blurs=np.zeros((4, 2, 2)),
        scales=sc, z_eff=mixture.effective_z(sc), seed=seed)
    mixture.evolve_mixture(ens, well, diff, 0.001, 0.001, blur_cap=1e-12)
    assert len(kicks) == 4          # every particle spilled at step 1

    # frozen drift and unit noise: one step moves each sample by its noise
    frozen = HamiltonianModel(1e12, Harmonic(1e-10), (-8.0, 8.0))
    ens = LangevinEnsemble(np.zeros(1), np.zeros(1), seed=seed)
    out = evolve_langevin_ensemble(ens, frozen, DiffusionSpec(1.0, 1.0, 1.0),
                                   1.0, 1.0)
    noise = np.array([out.x[0], out.p[0]])
    assert np.all(noise != 0.0)
    for kick in kicks:
        assert not np.allclose(kick, noise)
