import numpy as np
import pytest
from scipy.linalg import expm

from gaussian_lemmas import random_pure_cov, split_sdot, symplectic_form
from phasemix import _kernels, mixture
from phasemix.fokker_planck import l1_distance
from phasemix.gaussian import (
    nts_eigenvalues,
    unwhiten,
    whiten,
)
from phasemix.lindblad import (
    evolve_lindblad,
    gaussian_to_grid,
    trace_distance,
    wigner_transform_grid,
)
from phasemix.gaussian import GaussianState
from phasemix.mixture import (
    MixtureEnsemble,
    coherent_ensemble,
    effective_z,
    evolve_mixture,
    m_matrix,
    mixture_to_density_grid,
    mixture_to_phase_field,
)
from phasemix.potentials import (
    Cosine,
    CubicHarmonic,
    DoubleWell,
    HamiltonianModel,
    Harmonic,
    hamiltonian_matrix,
)
from phasemix.scales import DiffusionSpec, compute_scales

HARMONIC = HamiltonianModel(1.0, Harmonic(1.0), (-12.0, 12.0))
WELL = HamiltonianModel(1.0, DoubleWell(0.25, 1.0), (-3.0, 3.0))


def position_grid(n, x_min, x_max):
    """The n-point grid of `gaussian_to_grid`."""
    return x_min + (x_max - x_min) * np.arange(n) / n


def scales_for(model, d_x, d_p, hbar=1.0):
    return compute_scales(model, DiffusionSpec(d_x, d_p, hbar))


def random_nts_cov(scales, z, rng, margin=0.9):
    """Random pure covariance with whitened eigenvalues inside the window."""
    while True:
        cov = random_pure_cov(1, scales.hbar, scales.a_H, rng,
                              scale=rng.uniform(0.05, 0.6))
        lam = np.linalg.eigvalsh(whiten(cov, scales.sigma_star))
        if lam.max() <= margin * z and lam.min() >= 1.0 / (margin * z):
            return cov


def rasterize_density_reference(x, weights, alphas, covs, hbar):
    """Every particle evaluated on the full N x N density matrix."""
    n = x.size
    rho = np.zeros((n, n), dtype=np.complex128)
    u0 = 0.5 * (x[:, None] + x[None, :])
    v = x[:, None] - x[None, :]
    for k in range(weights.size):
        mx, mp = alphas[k]
        sxx, sxp, spp = covs[k, 0, 0], covs[k, 0, 1], covs[k, 1, 1]
        spp_c = spp - sxp**2 / sxx
        u = u0 - mx
        rho += (weights[k] / np.sqrt(2.0 * np.pi * sxx)
                * np.exp(-u**2 / (2.0 * sxx)
                         - spp_c * v**2 / (2.0 * hbar**2)
                         + 1j * (mp + (sxp / sxx) * u) * v / hbar))
    return rho


def rasterize_phase_reference(x, p, weights, alphas, covs):
    """Every particle evaluated on the full x-by-p phase-space grid."""
    vals = np.zeros((x.size, p.size))
    for k in range(weights.size):
        dx = (x - alphas[k, 0])[:, None]
        dp = (p - alphas[k, 1])[None, :]
        sxx, sxp, spp = covs[k, 0, 0], covs[k, 0, 1], covs[k, 1, 1]
        det = sxx * spp - sxp**2
        q = (spp * dx**2 - 2.0 * sxp * dx * dp + sxx * dp**2) / det
        vals += weights[k] / (2.0 * np.pi * np.sqrt(det)) * np.exp(-0.5 * q)
    return vals


def supersampled_phase_reference(x, p, weights, alphas, covs, k):
    """The dense formula on the k-refined grid, then the k x k cell mean."""
    offs = (np.arange(k) + 0.5) / k - 0.5
    xs = (x[:, None] + (x[1] - x[0]) * offs).ravel()
    ps = (p[:, None] + (p[1] - p[0]) * offs).ravel()
    fine = rasterize_phase_reference(xs, ps, weights, alphas, covs)
    return fine.reshape(x.size, k, p.size, k).mean(axis=(1, 3))


class TestEffectiveZ:
    def test_floor(self):
        sc = scales_for(WELL, 2.0, 30.0)
        assert sc.z == 1.0
        assert effective_z(sc) == 1.05

    def test_weak_diffusion_uses_true_z(self):
        sc = scales_for(WELL, 1e-5, 1e-5)
        assert effective_z(sc) == sc.z > 1.05

    def test_no_diffusion_needs_cap(self):
        sc = scales_for(WELL, 0.0, 0.0)
        with pytest.raises(ValueError, match="z_cap"):
            effective_z(sc)
        assert effective_z(sc, z_cap=2.5) == 2.5


class TestMMatrix:
    def test_identity_gives_zero(self):
        sc = scales_for(WELL, 0.1, 0.1)
        assert np.abs(m_matrix(np.eye(2), sc, 2.0)).max() == 0.0

    def test_boundary_eigenvalue(self):
        sc = scales_for(WELL, 0.1, 0.1)
        z = 2.0
        m = m_matrix(np.diag([z, 1.0 / z]), sc, z)
        assert m[0, 0] == pytest.approx(sc.m_rate * z, rel=1e-12)

    def test_inverse_antisymmetry(self):
        sc = scales_for(WELL, 0.1, 0.1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            st = whiten(random_nts_cov(sc, 3.0, rng), sc.sigma_star)
            m1 = m_matrix(st, sc, 3.0)
            m2 = m_matrix(np.linalg.inv(st), sc, 3.0)
            assert np.abs(m1 + m2).max() < 1e-10

    def test_commutes_with_sigma(self):
        sc = scales_for(WELL, 0.1, 0.1)
        rng = np.random.default_rng(3)
        st = whiten(random_nts_cov(sc, 3.0, rng), sc.sigma_star)
        m = m_matrix(st, sc, 3.0)
        assert np.abs(m @ st - st @ m).max() < 1e-10

    def test_z_one_rejected(self):
        sc = scales_for(WELL, 0.1, 0.1)
        with pytest.raises(ValueError):
            m_matrix(np.eye(2), sc, 1.0)

    def test_stack_matches_each_matrix(self):
        sc = scales_for(WELL, 0.1, 0.1)
        rng = np.random.default_rng(4)
        st = np.stack([whiten(random_nts_cov(sc, 3.0, rng), sc.sigma_star)
                       for _ in range(6)])
        batch = m_matrix(st, sc, 3.0)
        for k in range(6):
            ref = sc.m_rate * (st[k] - np.linalg.inv(st[k])) / (1.0 - 3.0**-2)
            assert np.abs(batch[k] - m_matrix(st[k], sc, 3.0)).max() == 0.0
            assert np.abs(batch[k] - ref).max() < 1e-12 * np.abs(ref).max()


MODELS = [
    HARMONIC,
    WELL,
    HamiltonianModel(2.0, Cosine(1.0, 1.0), (-np.pi, np.pi)),
    HamiltonianModel(1.0, CubicHarmonic(0.2), (-1.5, 1.5)),
]


class TestSplitSdot:
    @pytest.mark.parametrize("model", MODELS,
                             ids=lambda m: type(m.potential).__name__)
    def test_identities_on_random_inputs(self, model):
        rng = np.random.default_rng(11)
        diff = DiffusionSpec(0.02, 0.04, 1.0)
        sc = compute_scales(model, diff)
        z = effective_z(sc, z_cap=3.0)
        omega = symplectic_form(1)
        d = diff.matrix()
        for _ in range(250):
            alpha = [rng.uniform(*model.domain), rng.normal()]
            cov = random_nts_cov(sc, z, rng)
            sz, sd = split_sdot(alpha, cov, model, diff, sc, z)
            f = hamiltonian_matrix(model, alpha)
            rhs = f @ cov + cov @ f.T + d
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(sz + sd - rhs).max() < 1e-10 * scale
            # S_D positive semidefinite on the window
            sd_t = whiten(sd, sc.sigma_star)
            assert np.linalg.eigvalsh(sd_t).min() > -1e-9
            # tangency: sigma evolving along S_Z stays pure
            st = whiten(cov, sc.sigma_star)
            sz_t = whiten(sz, sc.sigma_star)
            a = np.linalg.inv(st) @ sz_t
            assert np.abs(a.T + omega.T @ a @ omega).max() < 1e-10

    def test_sigma_star_harmonic_trivial_split(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        z = effective_z(sc, z_cap=2.0)
        sz, sd = split_sdot([0.3, -0.2], sc.sigma_star, HARMONIC, diff, sc, z)
        f = hamiltonian_matrix(HARMONIC, [0.3, -0.2])
        ref = f @ sc.sigma_star + sc.sigma_star @ f.T
        assert np.abs(sz - ref).max() < 1e-12
        assert np.abs(sd - diff.matrix()).max() < 1e-12

    def test_boundary_non_crossing(self):
        rng = np.random.default_rng(4)
        for model in MODELS[1:]:
            diff = DiffusionSpec(0.02, 0.04, 1.0)
            sc = compute_scales(model, diff)
            z = effective_z(sc)
            for _ in range(100):
                # covariance sitting exactly on the lower squeeze boundary
                theta = rng.uniform(0, 2 * np.pi)
                r = np.array([[np.cos(theta), -np.sin(theta)],
                              [np.sin(theta), np.cos(theta)]])
                st = r @ np.diag([1.0 / z, z]) @ r.T
                cov = st * np.outer(np.sqrt(np.diag(sc.sigma_star)),
                                    np.sqrt(np.diag(sc.sigma_star)))
                alpha = [rng.uniform(*model.domain), rng.normal()]
                sz, _ = split_sdot(alpha, cov, model, diff, sc, z)
                lam, vec = np.linalg.eigh(st)
                v = vec[:, 0]
                sz_t = whiten(sz, sc.sigma_star)
                assert v @ sz_t @ v > -1e-10

    def test_non_nts_rejected(self):
        diff = DiffusionSpec(0.02, 0.04, 1.0)
        sc = compute_scales(WELL, diff)
        z = effective_z(sc, z_cap=3.0)
        bad = unwhiten(np.diag([10.0, 0.1]), sc.sigma_star)
        with pytest.raises(ValueError, match="squeezed"):
            split_sdot([0.0, 0.0], bad, WELL, diff, sc, z)


class TestEvolveMixture:
    def test_harmonic_no_diffusion_matches_exponential(self):
        diff = DiffusionSpec(0.0, 0.0, 1.0)
        sc = compute_scales(HARMONIC, diff)
        z = effective_z(sc, z_cap=3.0)
        cov = random_nts_cov(sc, z, np.random.default_rng(8))
        ens = MixtureEnsemble(np.ones(1), np.array([[0.5, 0.1]]), cov[None],
                              np.zeros((1, 2, 2)), sc.hbar, seed=0)
        f = hamiltonian_matrix(HARMONIC, [0.0, 0.0])
        for dt in (0.01, 0.005):
            _, e1 = evolve_mixture(ens, HARMONIC, diff, dt, dt,
                                   z_cap=3.0)[-1]
            exact = expm(f * dt) @ cov @ expm(f.T * dt)
            # projection keeps the det fixed; error per step is O(dt^5)
            assert np.abs(e1.covs[0] - exact).max() < 10.0 * dt**5

    def test_fixed_point_at_sigma_star(self):
        diff = DiffusionSpec(0.0, 0.0, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0)
        _, e1 = evolve_mixture(ens, HARMONIC, diff, 0.01, 0.01,
                               z_cap=3.0)[-1]
        assert np.abs(e1.covs[0] - sc.sigma_star).max() < 1e-14
        assert all(v == 0 for v in e1.diagnostics.values())

    def test_domain_exits_counted(self):
        model = HamiltonianModel(1.0, Harmonic(1.0), (-1.0, 1.0))
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(model, diff)
        ens = coherent_ensemble([0.9, 2.0], sc, seed=0)
        _, eT = evolve_mixture(ens, model, diff, 1.0, 0.01, z_cap=3.0)[-1]
        assert eT.diagnostics["domain_exits"] > 0

    def test_harmonic_matches_lindblad(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([1.0, 0.0], sc, seed=5)
        t = 3.0
        _, eT = evolve_mixture(ens, HARMONIC, diff, t, 0.01, z_cap=3.0)[-1]
        st = GaussianState([1.0, 0.0], sc.sigma_star, 1.0)
        g0 = gaussian_to_grid(st, 256, -12.0, 12.0)
        _, gq = evolve_lindblad(g0, HARMONIC, diff, t, 0.005)[-1]
        gm = mixture_to_density_grid(eT, gq.x)
        assert trace_distance(gq, gm) < 1e-3

    def test_strong_diffusion_pins_covariance(self):
        diff = DiffusionSpec(2.0, 30.0, 1.0)
        sc = compute_scales(WELL, diff)
        assert sc.z == 1.0
        ens = coherent_ensemble([0.7, 0.0], sc, seed=1)
        _, eT = evolve_mixture(ens, WELL, diff, 0.5, 0.001)[-1]
        lam = nts_eigenvalues(eT.covs, sc.sigma_star)
        assert lam.max() <= 1.05 + 1e-9
        assert lam.min() >= 1.0 / 1.05 - 1e-9

    def test_nts_preserved_random_runs(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            model = MODELS[rng.integers(1, len(MODELS))]
            diff = DiffusionSpec(10 ** rng.uniform(-4, -1),
                                 10 ** rng.uniform(-4, -1), 1.0)
            sc = compute_scales(model, diff)
            z = effective_z(sc)
            cov = random_nts_cov(sc, z, rng)
            x0 = rng.uniform(0.3 * model.domain[0], 0.3 * model.domain[1])
            ens = MixtureEnsemble(np.ones(1), np.array([[x0, 0.0]]),
                                  cov[None], np.zeros((1, 2, 2)), sc.hbar,
                                  seed=trial)
            traj = evolve_mixture(ens, model, diff, 20 * 0.3 * sc.tau_H / 20,
                                  0.005 * sc.tau_H)
            _, eT = traj[-1]
            lam = nts_eigenvalues(eT.covs, sc.sigma_star)
            assert lam.max() <= z + 1e-6
            assert lam.min() >= 1.0 / z - 1e-6
            assert eT.diagnostics["max_defect_before"] < 1e-5

    def test_projection_clamps_a_step_past_the_window(self, monkeypatch):
        # an outward S_Z carries sigma~ = diag(1/z, z) in one step to a
        # pair with r = sqrt(l1 / l0) = z + excess, inside WINDOW_TOL; the
        # projection must hand back the pure pair (1/z, z)
        sc = scales_for(WELL, 0.3, 0.5)
        z, dt = effective_z(sc), 0.01 * sc.tau_H
        excess = 0.5 * mixture.WINDOW_TOL
        push = np.diag([0.0, (z + excess) ** 2 / z - z]) / dt

        def outward(alphas, sts, *args):
            zero = np.zeros_like(sts)
            return push + zero, zero, np.zeros_like(alphas), zero
        monkeypatch.setattr(mixture, "_batch_split_sdot", outward)
        ens = coherent_ensemble([0.5, 0.0], sc, seed=0)
        ens.covs = unwhiten(np.diag([1.0 / z, z]), sc.sigma_star)[None]
        _, e1 = evolve_mixture(ens, WELL, DiffusionSpec(0.3, 0.5, 1.0), dt,
                               dt)[-1]
        st = whiten(e1.covs[0], sc.sigma_star)
        assert abs(np.linalg.det(st) - 1.0) <= 1e-15
        assert abs(np.linalg.eigvalsh(st).max() - z) <= 1e-12
        assert e1.diagnostics["max_nts_violation"] == pytest.approx(
            excess, abs=1e-12)

    def test_chunked_run_reproducible(self):
        diff = DiffusionSpec(0.3, 0.5, 1.0)
        sc = compute_scales(WELL, diff)
        ens = coherent_ensemble([0.5, 0.0], sc, seed=21)
        once = evolve_mixture(ens, WELL, diff, 0.4, 0.001,
                              blur_cap=0.05)[-1][1]
        half = evolve_mixture(ens, WELL, diff, 0.2, 0.001,
                              blur_cap=0.05)[-1][1]
        again = evolve_mixture(half, WELL, diff, 0.2, 0.001,
                               blur_cap=0.05)[-1][1]
        assert once.diagnostics["spill_count"] > 0
        assert np.array_equal(once.alphas, again.alphas)
        assert np.array_equal(once.covs, again.covs)
        assert np.array_equal(once.blurs, again.blurs)

    def test_resume_from_any_snapshot_is_exact(self):
        # a whitening round trip is not exact, so a run that carried its
        # state across steps in whitened units would drift by ulps here
        diff = DiffusionSpec(0.3, 0.5, 1.0)
        ens = coherent_ensemble([0.5, 0.0], compute_scales(WELL, diff),
                                seed=21, particles=3)
        traj = evolve_mixture(ens, WELL, diff, 0.4, 0.001, blur_cap=0.05,
                              snapshot_times=[0.1, 0.15, 0.2, 0.25, 0.4])
        once = traj[-1][1]
        assert once.diagnostics["spill_count"] > 0
        for t, half in traj[1:-1]:
            again = evolve_mixture(half, WELL, diff, round(0.4 - t, 12),
                                   0.001, blur_cap=0.05)[-1][1]
            assert np.array_equal(once.alphas, again.alphas)
            assert np.array_equal(once.covs, again.covs)
            assert np.array_equal(once.blurs, again.blurs)

    def test_dt_guard(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(WELL, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0)
        with pytest.raises(ValueError, match="tau_H"):
            evolve_mixture(ens, WELL, diff, 1.0, sc.tau_H)

    @pytest.mark.parametrize("t_final, dt, message", [
        (0.01, -0.001, "step dt"), (0.01, 0.0, "step dt"),
        (0.01, np.nan, "step dt"), (np.nan, 0.001, "t_final")],
        ids=["negative-dt", "zero-dt", "nan-dt", "nan-t_final"])
    def test_bad_step_or_horizon_refused(self, t_final, dt, message):
        # each dt passes the tau_H / 100 guard, and a negative one would
        # otherwise run one step of length t_final
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        ens = coherent_ensemble([0.0, 0.0], compute_scales(WELL, diff), 0)
        with pytest.raises(ValueError, match=f"^{message} must be positive"):
            evolve_mixture(ens, WELL, diff, t_final, dt)

    def test_hbar_mismatch_refused(self):
        sc = scales_for(WELL, 0.3, 0.5)
        ens = coherent_ensemble([0.5, 0.0], sc, seed=0)
        with pytest.raises(ValueError, match="disagree on hbar"):
            evolve_mixture(ens, WELL, DiffusionSpec(0.3, 0.5, 0.5), 0.01,
                           0.001)

    def test_run_takes_its_scales_from_its_diffusion(self):
        # an ensemble started at strong-diffusion scales, run under weak
        # diffusion: the relaxation M and the noise D must both be the
        # weak run's, or S_D loses positivity and so does the blur
        ens = coherent_ensemble([0.5, 0.0], scales_for(WELL, 0.3, 0.5),
                                seed=0)
        _, eT = evolve_mixture(ens, WELL, DiffusionSpec(0.003, 0.005, 1.0),
                               0.5, 0.001)[-1]
        assert eT.diagnostics["spill_count"] == 0
        assert np.linalg.eigvalsh(eT.blurs).min() >= -1e-12

    def test_nan_centre_aborts_at_step_one(self):
        sc = scales_for(WELL, 0.3, 0.5)
        ens = coherent_ensemble([0.5, 0.0], sc, seed=0, particles=2)
        ens.alphas[1, 0] = np.nan
        with pytest.raises(RuntimeError, match="step 1: squeeze window"):
            evolve_mixture(ens, WELL, DiffusionSpec(0.3, 0.5, 1.0), 0.01,
                           0.001)

    def _nan_blur_run(self, ens):
        evolve_mixture(ens, WELL, DiffusionSpec(0.3, 0.5, 1.0), 0.05, 0.001,
                       blur_cap=0.05)

    def test_nan_blur_refused(self):
        sc = scales_for(WELL, 0.3, 0.5)
        ens = coherent_ensemble([0.5, 0.0], sc, seed=0, particles=2)
        ens.blurs[1] = np.nan
        with pytest.raises(ValueError, match="blur is not finite"):
            self._nan_blur_run(ens)

    def test_blur_turning_nan_aborts_at_its_step(self, monkeypatch):
        # particle 1's S_D turns NaN from the first stage of step 3 on
        split, calls = mixture._batch_split_sdot, []

        def poisoned(*args):
            sz, sd, flow, f = split(*args)
            calls.append(None)
            if len(calls) > 8:
                sd[1] = np.nan
            return sz, sd, flow, f
        monkeypatch.setattr(mixture, "_batch_split_sdot", poisoned)
        sc = scales_for(WELL, 0.3, 0.5)
        ens = coherent_ensemble([0.5, 0.0], sc, seed=0, particles=2)
        with pytest.raises(RuntimeError, match="step 3: a particle blur"):
            self._nan_blur_run(ens)


class TestRasterization:
    def _two_particle_ensemble(self, sep=3.0):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        covs = np.stack([sc.sigma_star, sc.sigma_star])
        alphas = np.array([[-sep / 2, 0.0], [sep / 2, 0.0]])
        return MixtureEnsemble(np.array([0.5, 0.5]), alphas, covs,
                               np.zeros((2, 2, 2)), sc.hbar, seed=0)

    def test_single_particle_rank_one(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.4, -0.1], sc, seed=0)
        g = mixture_to_density_grid(ens, position_grid(256, -10.0, 10.0))
        assert g.trace() == pytest.approx(1.0, abs=1e-6)
        assert g.purity() == pytest.approx(1.0, abs=1e-6)

    def test_two_orthogonalish_particles_purity_half(self):
        ens = self._two_particle_ensemble(6.0)
        g = mixture_to_density_grid(ens, position_grid(256, -10.0, 10.0))
        assert g.purity() == pytest.approx(0.5, abs=1e-4)

    def test_degenerate_weight_equals_single(self):
        ens = self._two_particle_ensemble(3.0)
        ens.weights = np.array([1.0, 0.0])
        g = mixture_to_density_grid(ens, position_grid(256, -10.0, 10.0))
        sc = scales_for(HARMONIC, 0.05, 0.05)
        solo = coherent_ensemble([-1.5, 0.0], sc, seed=0)
        gs = mixture_to_density_grid(solo, position_grid(256, -10.0, 10.0))
        assert np.abs(g.rho - gs.rho).max() < 1e-12

    def test_phase_field_mass_and_wigner_consistency(self):
        ens = self._two_particle_ensemble(3.0)
        g = mixture_to_density_grid(ens, position_grid(256, -10.0, 10.0))
        w = wigner_transform_grid(g)
        direct = mixture_to_phase_field(ens, w.x, w.p)
        assert direct.mass() == pytest.approx(1.0, abs=1e-6)
        assert l1_distance(direct, w) < 1e-4

    def test_grid_coverage_failure(self):
        ens = self._two_particle_ensemble(3.0)
        with pytest.raises(ValueError, match="cover"):
            mixture_to_density_grid(ens, position_grid(64, -2.0, 2.0))
        # a NaN trace is refused too
        ens.weights = np.array([0.5, np.nan])
        with pytest.raises(ValueError, match="trace nan"):
            mixture_to_density_grid(ens, position_grid(256, -10.0, 10.0))


class TestCompactKernels:
    """The compact rasterizers against the dense reference formulas."""

    HBAR = 0.02

    def particles(self, seed, m=40):
        """Correlated pure covariances plus random blurs (impure totals);
        centres inside, near both edges and beyond the [-3, 3] grids;
        particle 0 entirely off the grid, particles 1 and 2 weightless."""
        rng = np.random.default_rng(seed)
        covs = np.stack([random_pure_cov(1, self.HBAR, 1.0, rng, scale=0.8)
                         for _ in range(m)])
        assert np.abs(covs[:, 0, 1]).min() > 0.0
        half = rng.normal(size=(m, 2, 2)) * 0.3 * np.sqrt(self.HBAR)
        blurs = half @ np.swapaxes(half, 1, 2)
        blurs[::2] = 0.0
        alphas = np.column_stack([rng.uniform(-3.6, 3.6, m),
                                  rng.uniform(-2.5, 2.5, m)])
        alphas[0] = [40.0, 0.0]
        alphas[3:7, 0] = [-3.1, -2.9, 2.95, 3.2]
        weights = rng.random(m)
        weights[1:3] = 0.0
        return weights / weights.sum(), alphas, covs + blurs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_density_matches_dense_reference(self, seed):
        x = np.linspace(-3.0, 3.0, 180, endpoint=False)
        args = self.particles(seed)
        ref = rasterize_density_reference(x, *args, self.HBAR)
        got = _kernels.rasterize_density(x, *args, self.HBAR)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_phase_matches_dense_reference(self, seed):
        x = np.linspace(-3.0, 3.0, 150)
        p = np.linspace(-2.0, 2.5, 110)
        args = self.particles(seed)
        ref = rasterize_phase_reference(x, p, *args)
        got = _kernels.rasterize_phase(x, p, *args)
        assert np.abs(got - ref).max() <= 1e-14 * ref.max()

    def test_supersampled_phase_field_matches_dense_reference(self):
        weights, alphas, covs = self.particles(4)
        sc = compute_scales(HARMONIC, DiffusionSpec(0.05, 0.05, self.HBAR))
        ens = MixtureEnsemble(weights, alphas, covs, np.zeros_like(covs),
                              sc.hbar, seed=0)
        # particles 3-6 sit on the x edges, so their boxes are clipped
        x = np.linspace(-3.0, 3.0, 64, endpoint=False) + 3.0 / 64
        p = np.linspace(-2.0, 2.0, 48, endpoint=False) + 2.0 / 48
        for k in (1, 2, 3, 5):
            got = mixture_to_phase_field(ens, x, p, supersample=k).values
            ref = supersampled_phase_reference(x, p, ens.weights, ens.alphas,
                                               ens.total_covs(), k)
            assert np.abs(got - ref).max() <= 1e-14 * ref.max()
        # k = 1 samples the cell centres themselves
        assert np.array_equal(
            mixture_to_phase_field(ens, x, p).values,
            _kernels.rasterize_phase(x, p, ens.weights, ens.alphas,
                                     ens.total_covs()))

    def test_row_blocked_phase_raster_matches_dense_and_one_block(
            self, monkeypatch):
        weights, alphas, covs = self.particles(7, m=12)
        covs = covs + 0.15 * np.eye(2)     # boxes span most of the grid
        x = np.linspace(-3.0, 3.0, 360, endpoint=False) + 3.0 / 360
        p = np.linspace(-2.0, 2.5, 240, endpoint=False) + 2.25 / 240
        assert x.size > _kernels.BLOCK // p.size     # > 1 row block at k = 1
        blocked = {}
        for k in (1, 3):
            got = _kernels.rasterize_phase(x, p, weights, alphas, covs,
                                           supersample=k)
            ref = supersampled_phase_reference(x, p, weights, alphas, covs, k)
            assert np.abs(got - ref).max() <= 1e-14 * ref.max()
            blocked[k] = got
        monkeypatch.setattr(_kernels, "BLOCK", 9 * x.size * p.size)
        for k in (1, 3):
            assert np.array_equal(blocked[k], _kernels.rasterize_phase(
                x, p, weights, alphas, covs, supersample=k))

    def test_supersample_below_one_refused(self):
        weights, alphas, covs = self.particles(4)
        x = np.linspace(-3.0, 3.0, 64)
        for k in (0, -2):
            with pytest.raises(ValueError, match="positive integer"):
                _kernels.rasterize_phase(x, x, weights, alphas, covs,
                                         supersample=k)

    def test_supersampling_a_nonuniform_grid_refused(self):
        weights, alphas, covs = self.particles(4)
        x = np.linspace(-3.0, 3.0, 64)
        sc = compute_scales(HARMONIC, DiffusionSpec(0.05, 0.05, self.HBAR))
        ens = MixtureEnsemble(weights, alphas, covs, np.zeros_like(covs),
                              sc.hbar, seed=0)
        bent = x + 0.01 * x**2
        with pytest.raises(ValueError, match="uniform"):
            mixture_to_phase_field(ens, bent, x, supersample=3)
        with pytest.raises(ValueError, match="uniform"):
            mixture_to_phase_field(ens, x, bent, supersample=2)
        # point samples need no cell width
        mixture_to_phase_field(ens, bent, x)

    def test_density_blurred_and_fast_particles_match_dense_reference(self):
        x = np.linspace(-3.0, 3.0, 180, endpoint=False)
        # total covariance [[sxx, sxp], [sxp, spp_c + sxp^2 / sxx]]
        sxx, sxp, spp_c = 0.5, 0.3, 0.8
        cov = np.array([[sxx, sxp], [sxp, spp_c + sxp**2 / sxx]])
        assert spp_c * sxx / self.HBAR**2 == pytest.approx(1e3)
        # a slow centre, then |p| = 40: phase ~ mp sqrt(sxx) / hbar ~ 1400
        for centre in ([0.3, 0.4], [-0.5, -40.0]):
            args = (np.ones(1), np.array([centre]), cov[None])
            ref = rasterize_density_reference(x, *args, self.HBAR)
            got = _kernels.rasterize_density(x, *args, self.HBAR)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_off_grid_and_weightless_particles_add_exactly_zero(self):
        weights, alphas, covs = self.particles(5)
        w = np.where(np.arange(weights.size) < 3, weights, 0.0)
        assert w[0] > 0.0
        x = np.linspace(-3.0, 3.0, 120)
        assert not _kernels.rasterize_density(x, w, alphas, covs,
                                              self.HBAR).any()
        assert not _kernels.rasterize_phase(x, x, w, alphas, covs).any()

    def test_descending_grid_rejected(self):
        weights, alphas, covs = self.particles(6)
        x = np.linspace(3.0, -3.0, 50)
        with pytest.raises(ValueError, match="ascending"):
            _kernels.rasterize_density(x, weights, alphas, covs, self.HBAR)
        with pytest.raises(ValueError, match="ascending"):
            _kernels.rasterize_phase(-x, x, weights, alphas, covs)


class TestValidation:
    def test_bad_weights(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0)
        ens.weights = np.array([0.7])
        with pytest.raises(ValueError, match="weights"):
            ens.validate(sc.sigma_star, effective_z(sc, z_cap=2.0))

    def test_impure_particle(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0)
        ens.covs = 2.0 * ens.covs
        with pytest.raises(ValueError, match="pure"):
            ens.validate(sc.sigma_star, effective_z(sc, z_cap=2.0))

    def test_asymmetric_particle_covariance_refused(self):
        # det = sxx spp - sxp spx ignores sxp = 5e-3 when spx = 0, so a
        # determinant test alone accepts this particle
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0, particles=2)
        ens.covs[1, 0, 1] = 5e-3
        with pytest.raises(ValueError, match="not symmetric"):
            ens.validate(sc.sigma_star, effective_z(sc, z_cap=2.0))

    @pytest.mark.parametrize("excess, inside", [(2e-6, False), (5e-7, True)])
    def test_squeeze_window_boundary(self, excess, inside):
        # validate, split_sdot and a run all let whitened eigenvalues pass
        # the run's z by WINDOW_TOL = 1e-6 and no further
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        z = effective_z(sc, z_cap=2.0)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0)
        lam = z + excess
        ens.covs = unwhiten(np.diag([lam, 1.0 / lam]), sc.sigma_star)[None]

        def split():
            split_sdot([0.0, 0.0], ens.covs[0], HARMONIC, diff, sc, z)

        def run():
            evolve_mixture(ens, HARMONIC, diff, 0.01, 0.01, z_cap=2.0)

        if inside:
            ens.validate(sc.sigma_star, z)
            split()
            run()
        else:
            with pytest.raises(ValueError, match="squeeze window"):
                ens.validate(sc.sigma_star, z)
            with pytest.raises(ValueError, match="squeezed"):
                split()
            with pytest.raises(ValueError, match="squeeze window"):
                run()

    def test_coherent_ensemble_of_three(self):
        sc = compute_scales(HARMONIC, DiffusionSpec(0.05, 0.05, 1.0))
        ens = coherent_ensemble([0.4, -0.1], sc, seed=7, particles=3)
        assert np.array_equal(ens.weights, np.full(3, 1.0 / 3.0))
        assert np.array_equal(ens.alphas, np.tile([0.4, -0.1], (3, 1)))
        assert np.array_equal(ens.covs, np.tile(sc.sigma_star, (3, 1, 1)))
        assert not ens.blurs.any()
        assert ens.hbar == sc.hbar
        ens.validate(sc.sigma_star, effective_z(sc, z_cap=2.0))


    def test_coherent_ensemble_refuses_nan_centre(self):
        sc = compute_scales(HARMONIC, DiffusionSpec(0.05, 0.05, 1.0))
        with pytest.raises(ValueError, match="mean must be finite"):
            coherent_ensemble([np.nan, 0.0], sc, seed=0)

    def test_one_dimensional_alphas_refused(self):
        with pytest.raises(ValueError,
                           match="inconsistent particle array shapes"):
            MixtureEnsemble(weights=[1.0], alphas=[0.5, 0.0],
                            covs=np.eye(2)[None], blurs=np.zeros((1, 2, 2)),
                            hbar=1.0, seed=0)


class TestMoments:
    def test_one_particle_is_its_own_gaussian(self):
        cov = random_pure_cov(1, 1.0, 1.0, np.random.default_rng(5))
        blur = np.array([[0.03, 0.01], [0.01, 0.02]])
        ens = MixtureEnsemble(np.ones(1), np.array([[0.7, -0.2]]), cov[None],
                              blur[None], hbar=1.0, seed=0)
        mean, total = ens.moments()
        assert np.array_equal(mean, [0.7, -0.2])
        assert np.array_equal(total, cov + blur)

    def test_two_particles_law_of_total_covariance(self):
        rng = np.random.default_rng(6)
        w = np.array([0.3, 0.7])
        alphas = np.array([[0.7, -0.2], [-1.1, 0.4]])
        covs = np.stack([random_pure_cov(1, 1.0, 1.0, rng) for _ in w])
        blurs = np.stack([0.02 * np.eye(2), np.diag([0.01, 0.05])])
        ens = MixtureEnsemble(w, alphas, covs, blurs, hbar=1.0, seed=0)
        mean, cov = ens.moments()
        # Cov = E[Cov | particle] + Cov(E[x | particle]); the centres are
        # two points, whose covariance is w1 w2 (a1 - a2)(a1 - a2)^T
        d = alphas[0] - alphas[1]
        within = w[0] * (covs[0] + blurs[0]) + w[1] * (covs[1] + blurs[1])
        assert np.allclose(mean, w[0] * alphas[0] + w[1] * alphas[1],
                           rtol=0.0, atol=1e-15)
        assert np.allclose(cov, within + w[0] * w[1] * np.outer(d, d),
                           rtol=0.0, atol=1e-14)
