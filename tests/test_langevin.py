import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phasemix.fokker_planck import (
    evolve_fokker_planck,
    gaussian_phase_field,
    l1_distance,
)
from phasemix import langevin, mixture
from phasemix.langevin import (
    LangevinEnsemble,
    ensemble_histogram,
    evolve_langevin_ensemble,
    sample_gaussian_ensemble,
)
from phasemix.potentials import DoubleWell, HamiltonianModel, Harmonic
from phasemix.rng import (LANGEVIN_STREAM, stream_generator, stream_normals,
                          stream_signs)
from phasemix.scales import (DiffusionSpec, compute_scales,
                             diffusion_threshold, step_schedule)

HARMONIC = HamiltonianModel(1.0, Harmonic(1.0), (-8.0, 8.0))
NO_DIFF = DiffusionSpec(0.0, 0.0, 1.0)
# one step moves each sample by its kick alone, to within 1e-11
FROZEN = HamiltonianModel(1e12, Harmonic(1e-10), (-8.0, 8.0))


def gaussian_euler_maruyama(ens, model, diffusion, t_final, dt):
    """Euler-Maruyama with standard normal increments: the reference law."""
    n_steps, dt, _ = step_schedule(t_final, dt)
    x = ens.x.copy()
    p = ens.p.copy()
    sx = math.sqrt(diffusion.d_x * dt)
    sp = math.sqrt(diffusion.d_p * dt)
    for k in range(n_steps):
        xi = stream_normals(ens.seed, LANGEVIN_STREAM,
                            ens.steps_taken + 1 + k, (2, x.size))
        grad = np.asarray(model.potential.grad(x))
        x += (p / model.mass) * dt + sx * xi[0]
        p += -grad * dt + sp * xi[1]
    return LangevinEnsemble(x, p, ens.seed, ens.steps_taken + n_steps)


def langevin_reference(ens, model, diffusion, t_final, dt):
    """The weak Euler step on the whole ensemble at once, unsliced."""
    n_steps, dt, _ = step_schedule(t_final, dt)
    x = ens.x.copy()
    p = ens.p.copy()
    m = x.size
    sx = math.sqrt(diffusion.d_x * dt)
    sp = math.sqrt(diffusion.d_p * dt)
    kick = np.empty(m)
    buf = np.empty(m)
    for k in range(n_steps):
        bits = stream_signs(ens.seed, LANGEVIN_STREAM,
                            ens.steps_taken + 1 + k, 2 * m)
        grad = np.asarray(model.potential.grad(x))
        np.multiply(bits[:m], 2.0 * sx, out=kick)
        kick -= sx
        np.divide(p, model.mass, out=buf)
        buf *= dt
        buf += kick
        x += buf
        np.multiply(bits[m:], 2.0 * sp, out=kick)
        kick -= sp
        np.multiply(grad, -dt, out=buf)
        buf += kick
        p += buf
    return LangevinEnsemble(x, p, ens.seed, ens.steps_taken + n_steps)


def acceptance_eleven_well():
    """The double well of acceptance 11: hbar/s_H = 1e-3 and D0 three
    times the threshold for 0.3 at 5 tau_H."""
    well = HamiltonianModel(1.0, DoubleWell(0.25, 1.0), (-3.0, 3.0))
    s_h = compute_scales(well, DiffusionSpec(1.0, 1.0, 1.0)).s_H
    sc = compute_scales(well, DiffusionSpec(1.0, 1.0, 1e-3 * s_h))
    d0 = 3.0 * diffusion_threshold(sc, 0.3, 5.0 * sc.tau_H, 1)
    diff = DiffusionSpec(d0 * sc.x_H**2 / sc.tau_H,
                         d0 * sc.p_H**2 / sc.tau_H, sc.hbar)
    return well, diff, compute_scales(well, diff)


def test_stream_signs_bit_order_and_balance():
    seed, step, n = 5, 3, 150
    raw = np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([0, 0, step, LANGEVIN_STREAM], dtype=np.uint64),
    ).random_raw(3)
    want = [(int(raw[i // 64]) >> (i % 64)) & 1 for i in range(n)]
    assert stream_signs(seed, LANGEVIN_STREAM, step, n).tolist() == want

    m = 500_000
    signs = 2.0 * stream_signs(seed, LANGEVIN_STREAM, 1, 2 * m) - 1.0
    se = 1.0 / math.sqrt(m)
    assert abs(signs[:m].mean()) < 4 * se
    assert abs(signs[m:].mean()) < 4 * se
    assert abs((signs[:m] * signs[m:]).mean()) < 4 * se


def test_slicing_is_bit_identical_to_the_whole_array_step():
    # a partial last slice: M is not a multiple of BLOCK
    well, diff, sc = acceptance_eleven_well()
    m = 2 * langevin.BLOCK + 17
    ens = sample_gaussian_ensemble([0.5, 0.0], sc.sigma_star, m, seed=19)
    ens.steps_taken = 4
    dt = sc.tau_H / 200.0
    got = evolve_langevin_ensemble(ens, well, diff, 10 * dt, dt)
    want = langevin_reference(ens, well, diff, 10 * dt, dt)
    assert np.array_equal(got.x, want.x) and np.array_equal(got.p, want.p)
    assert got.steps_taken == want.steps_taken == 14


def test_increments_are_the_step_blocks_bits():
    # kicks of exactly +-sqrt(D dt): x from bits [0, M) and p from bits
    # [M, 2M) of the (seed, LANGEVIN_STREAM, steps_taken + k) block, also
    # across a slice edge
    seed, dt = 7, 0.25
    diff = DiffusionSpec(1.0, 4.0, 1.0)
    for m in (100, langevin.BLOCK + 3):
        ens = LangevinEnsemble(np.zeros(m), np.zeros(m), seed, steps_taken=2)
        one = evolve_langevin_ensemble(ens, FROZEN, diff, dt, dt)
        assert set(np.abs(one.x)) == {0.5} and set(np.abs(one.p)) == {1.0}
        out = evolve_langevin_ensemble(ens, FROZEN, diff, 3 * dt, dt)
        signs = sum(2.0 * stream_signs(seed, LANGEVIN_STREAM, k, 2 * m) - 1.0
                    for k in (3, 4, 5))
        assert np.allclose(out.x, 0.5 * signs[:m], rtol=0.0, atol=1e-9)
        assert np.allclose(out.p, 1.0 * signs[m:], rtol=0.0, atol=1e-9)


def test_weak_increments_keep_the_gaussian_law():
    # both schemes from the same initial sample: per-particle differences
    # give the standard error of the mean and covariance differences
    well, diff, sc = acceptance_eleven_well()
    m = 200_000
    ens = sample_gaussian_ensemble([0.5, 0.0], sc.sigma_star, m, seed=23)
    dt = sc.tau_H / 200.0
    a = evolve_langevin_ensemble(ens, well, diff, sc.tau_H, dt)
    b = gaussian_euler_maruyama(ens, well, diff, sc.tau_H, dt)
    za, zb = np.vstack([a.x, a.p]), np.vstack([b.x, b.p])
    diffs = list(za - zb)
    ua = za - za.mean(axis=1, keepdims=True)
    ub = zb - zb.mean(axis=1, keepdims=True)
    diffs += [ua[i] * ua[j] - ub[i] * ub[j] for i, j in ((0, 0), (0, 1),
                                                         (1, 1))]
    for d in diffs:
        assert abs(d.mean()) < 4.0 * d.std(ddof=1) / math.sqrt(m)


def test_sampling_moments_and_reproducibility():
    cov = np.array([[0.4, 0.1], [0.1, 0.3]])
    ens = sample_gaussian_ensemble([0.5, -0.2], cov, 200_000, seed=42)
    mean, got = ens.moments()
    assert np.abs(mean - [0.5, -0.2]).max() < 0.01
    assert np.abs(got - cov).max() < 0.01
    ens2 = sample_gaussian_ensemble([0.5, -0.2], cov, 200_000, seed=42)
    assert np.array_equal(ens.x, ens2.x) and np.array_equal(ens.p, ens2.p)
    # the same points as numpy's Cholesky sampler on the same block
    ref = stream_generator(42, LANGEVIN_STREAM, 0).multivariate_normal(
        [0.5, -0.2], cov, size=200_000, method="cholesky")
    assert np.array_equal(np.column_stack([ens.x, ens.p]), ref)


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
    d = diff.matrix()
    f = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sol = solve_ivp(lambda _, y: (f @ y.reshape(2, 2) + y.reshape(2, 2) @ f.T
                                  + d).ravel(),
                    [0, t], cov0.ravel(), rtol=1e-10).y[:, -1].reshape(2, 2)
    _, got = out.moments()
    # variance-of-variance SE ~ sqrt(2/m) * var; allow 3 SE plus O(dt) bias
    se = np.sqrt(2.0 / m) * np.abs(sol).max()
    assert np.abs(got - sol).max() < 3.0 * se + 2.0 * dt * np.abs(sol).max()


@pytest.mark.parametrize("mean, cov, fragment", [
    ([np.nan, 0.0], 0.2 * np.eye(2), "mean must be finite"),
    ([0.0, 0.0], [[np.nan, 0.0], [0.0, 0.2]], "covariance must be finite"),
    ([0.0, 0.0], [[0.2, 0.3], [0.3, 0.2]],
     "covariance must be positive definite"),
    (np.zeros(4), np.eye(4), "mean must be one phase-space point"),
], ids=["nan-mean", "nan-cov", "indefinite-cov", "four-vector"])
def test_sample_refuses_bad_gaussian(mean, cov, fragment):
    # the Gaussian is a GaussianState; unchecked, a nan mean gave nan
    # particles, an indefinite covariance numpy's LinAlgError, and a
    # two-dimensional Gaussian a matmul error naming no input
    with pytest.raises(ValueError, match=fragment):
        sample_gaussian_ensemble(mean, cov, 10, seed=0)


def test_chunked_run_matches_single_shot():
    diff = DiffusionSpec(0.05, 0.05, 1.0)
    for m in (1000, langevin.BLOCK + 1000):
        ens = sample_gaussian_ensemble([0.0, 0.0], 0.2 * np.eye(2), m, seed=3)
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
    # mixture particle i spills on the (seed, i, step) counter block; at the
    # same (seed, step) the Langevin increments must come from another block
    seed = 7
    blocks = {"mixture": [], "langevin": []}

    def spy(owner, name, key):
        draw = getattr(owner, name)

        def recorded(seed, stream, step, shape):
            blocks[key].append((seed, stream, step))
            return draw(seed, stream, step, shape)
        monkeypatch.setattr(owner, name, recorded)

    spy(mixture, "stream_normals", "mixture")
    spy(langevin, "stream_signs", "langevin")
    well = HamiltonianModel(1.0, DoubleWell(0.25, 1.0), (-3.0, 3.0))
    diff = DiffusionSpec(0.3, 0.5, 1.0)
    sc = compute_scales(well, diff)
    ens = mixture.MixtureEnsemble(
        weights=np.full(4, 0.25), alphas=np.tile([0.5, 0.0], (4, 1)),
        covs=np.tile(sc.sigma_star, (4, 1, 1)), blurs=np.zeros((4, 2, 2)),
        hbar=sc.hbar, seed=seed)
    mixture.evolve_mixture(ens, well, diff, 0.001, 0.001, blur_cap=1e-12)
    # every particle spilled at step 1
    assert sorted(blocks["mixture"]) == [(seed, i, 1) for i in range(4)]

    ens = LangevinEnsemble(np.zeros(4), np.zeros(4), seed=seed)
    out = evolve_langevin_ensemble(ens, FROZEN, DiffusionSpec(1.0, 1.0, 1.0),
                                   1.0, 1.0)
    assert blocks["langevin"] == [(seed, LANGEVIN_STREAM, 1)]
    assert np.all(np.abs(out.x) == 1.0) and np.all(np.abs(out.p) == 1.0)
