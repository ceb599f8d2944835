import numpy as np
import pytest
from scipy.linalg import expm

from phasemix.fokker_planck import l1_distance
from phasemix.gaussian import random_pure_cov, symplectic_form
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
    split_sdot,
    whiten,
    whiten_f,
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


def scales_for(model, d_x, d_p, hbar=1.0):
    return compute_scales(model, DiffusionSpec(d_x, d_p, hbar))


def random_nts_cov(scales, z, rng, margin=0.9):
    """Random pure covariance with whitened eigenvalues inside the window."""
    while True:
        cov = random_pure_cov(1, scales.hbar, scales.a_H, rng,
                              scale=rng.uniform(0.05, 0.6))
        lam = np.linalg.eigvalsh(whiten(cov, scales))
        if lam.max() <= margin * z and lam.min() >= 1.0 / (margin * z):
            return cov


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
            st = whiten(random_nts_cov(sc, 3.0, rng), sc)
            m1 = m_matrix(st, sc, 3.0)
            m2 = m_matrix(np.linalg.inv(st), sc, 3.0)
            assert np.abs(m1 + m2).max() < 1e-10

    def test_commutes_with_sigma(self):
        sc = scales_for(WELL, 0.1, 0.1)
        rng = np.random.default_rng(3)
        st = whiten(random_nts_cov(sc, 3.0, rng), sc)
        m = m_matrix(st, sc, 3.0)
        assert np.abs(m @ st - st @ m).max() < 1e-10

    def test_z_one_rejected(self):
        sc = scales_for(WELL, 0.1, 0.1)
        with pytest.raises(ValueError):
            m_matrix(np.eye(2), sc, 1.0)

    def test_stack_matches_each_matrix(self):
        sc = scales_for(WELL, 0.1, 0.1)
        rng = np.random.default_rng(4)
        st = np.stack([whiten(random_nts_cov(sc, 3.0, rng), sc)
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
        d = diff.matrix(1)
        for _ in range(250):
            alpha = [rng.uniform(*model.domain), rng.normal()]
            cov = random_nts_cov(sc, z, rng)
            sz, sd = split_sdot(alpha, cov, model, diff, sc, z)
            f = hamiltonian_matrix(model, alpha)
            rhs = f @ cov + cov @ f.T + d
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(sz + sd - rhs).max() < 1e-10 * scale
            # S_D positive semidefinite on the window
            sd_t = whiten(sd, sc)
            assert np.linalg.eigvalsh(sd_t).min() > -1e-9
            # tangency: sigma evolving along S_Z stays pure
            st = whiten(cov, sc)
            sz_t = whiten(sz, sc)
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
        assert np.abs(sd - diff.matrix(1)).max() < 1e-12

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
                sz_t = whiten(sz, sc)
                assert v @ sz_t @ v > -1e-10

    def test_non_nts_rejected(self):
        diff = DiffusionSpec(0.02, 0.04, 1.0)
        sc = compute_scales(WELL, diff)
        z = effective_z(sc, z_cap=3.0)
        from phasemix.mixture import unwhiten
        bad = unwhiten(np.diag([10.0, 0.1]), sc)
        with pytest.raises(ValueError, match="squeezed"):
            split_sdot([0.0, 0.0], bad, WELL, diff, sc, z)


class TestEvolveMixture:
    def test_harmonic_no_diffusion_matches_exponential(self):
        diff = DiffusionSpec(0.0, 0.0, 1.0)
        sc = compute_scales(HARMONIC, diff)
        z = effective_z(sc, z_cap=3.0)
        cov = random_nts_cov(sc, z, np.random.default_rng(8))
        ens = MixtureEnsemble(np.ones(1), np.array([[0.5, 0.1]]), cov[None],
                              np.zeros((1, 2, 2)), sc, z, seed=0)
        f = hamiltonian_matrix(HARMONIC, [0.0, 0.0])
        for dt in (0.01, 0.005):
            _, e1 = evolve_mixture(ens, HARMONIC, diff, dt, dt)[-1]
            exact = expm(f * dt) @ cov @ expm(f.T * dt)
            # projection keeps the det fixed; error per step is O(dt^5)
            assert np.abs(e1.covs[0] - exact).max() < 10.0 * dt**5

    def test_fixed_point_at_sigma_star(self):
        diff = DiffusionSpec(0.0, 0.0, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0, z_cap=3.0)
        _, e1 = evolve_mixture(ens, HARMONIC, diff, 0.01, 0.01)[-1]
        assert np.abs(e1.covs[0] - sc.sigma_star).max() < 1e-14
        assert all(v == 0 for v in e1.diagnostics.values())

    def test_domain_exits_counted(self):
        model = HamiltonianModel(1.0, Harmonic(1.0), (-1.0, 1.0))
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(model, diff)
        ens = coherent_ensemble([0.9, 2.0], sc, seed=0, z_cap=3.0)
        _, eT = evolve_mixture(ens, model, diff, 1.0, 0.01)[-1]
        assert eT.diagnostics["domain_exits"] > 0

    def test_harmonic_matches_lindblad(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([1.0, 0.0], sc, seed=5, z_cap=3.0)
        t = 3.0
        _, eT = evolve_mixture(ens, HARMONIC, diff, t, 0.01)[-1]
        st = GaussianState([1.0, 0.0], sc.sigma_star, 1.0)
        g0 = gaussian_to_grid(st, 1.0, 256, -12.0, 12.0)
        _, gq = evolve_lindblad(g0, HARMONIC, diff, t, 0.005)[-1]
        gm = mixture_to_density_grid(eT, 1.0, 256, -12.0, 12.0)
        assert trace_distance(gq, gm) < 1e-3

    def test_strong_diffusion_pins_covariance(self):
        diff = DiffusionSpec(2.0, 30.0, 1.0)
        sc = compute_scales(WELL, diff)
        assert sc.z == 1.0
        ens = coherent_ensemble([0.7, 0.0], sc, seed=1)
        _, eT = evolve_mixture(ens, WELL, diff, 0.5, 0.001)[-1]
        lam = eT.squeeze_eigenvalues()
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
                                  cov[None], np.zeros((1, 2, 2)), sc, z,
                                  seed=trial)
            traj = evolve_mixture(ens, model, diff, 20 * 0.3 * sc.tau_H / 20,
                                  0.005 * sc.tau_H)
            _, eT = traj[-1]
            lam = eT.squeeze_eigenvalues()
            assert lam.max() <= z + 1e-6
            assert lam.min() >= 1.0 / z - 1e-6
            assert eT.diagnostics["max_defect_before"] < 1e-5

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

    def test_dt_guard(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(WELL, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0)
        with pytest.raises(ValueError, match="tau_H"):
            evolve_mixture(ens, WELL, diff, 1.0, sc.tau_H)


class TestRasterization:
    def _two_particle_ensemble(self, sep=3.0):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        z = effective_z(sc, z_cap=2.0)
        covs = np.stack([sc.sigma_star, sc.sigma_star])
        alphas = np.array([[-sep / 2, 0.0], [sep / 2, 0.0]])
        return MixtureEnsemble(np.array([0.5, 0.5]), alphas, covs,
                               np.zeros((2, 2, 2)), sc, z, seed=0)

    def test_single_particle_rank_one(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.4, -0.1], sc, seed=0, z_cap=2.0)
        g = mixture_to_density_grid(ens, 1.0, 256, -10.0, 10.0)
        assert g.trace() == pytest.approx(1.0, abs=1e-6)
        assert g.purity() == pytest.approx(1.0, abs=1e-6)

    def test_two_orthogonalish_particles_purity_half(self):
        ens = self._two_particle_ensemble(6.0)
        g = mixture_to_density_grid(ens, 1.0, 256, -10.0, 10.0)
        assert g.purity() == pytest.approx(0.5, abs=1e-4)

    def test_degenerate_weight_equals_single(self):
        ens = self._two_particle_ensemble(3.0)
        ens.weights = np.array([1.0, 0.0])
        g = mixture_to_density_grid(ens, 1.0, 256, -10.0, 10.0)
        solo = coherent_ensemble([-1.5, 0.0], ens.scales, seed=0, z_cap=2.0)
        gs = mixture_to_density_grid(solo, 1.0, 256, -10.0, 10.0)
        assert np.abs(g.rho - gs.rho).max() < 1e-12

    def test_phase_field_mass_and_wigner_consistency(self):
        ens = self._two_particle_ensemble(3.0)
        g = mixture_to_density_grid(ens, 1.0, 256, -10.0, 10.0)
        w = wigner_transform_grid(g)
        direct = mixture_to_phase_field(ens, w.x, w.p)
        assert direct.mass() == pytest.approx(1.0, abs=1e-6)
        assert l1_distance(direct, w) < 1e-4

    def test_grid_coverage_failure(self):
        ens = self._two_particle_ensemble(3.0)
        with pytest.raises(ValueError, match="cover"):
            mixture_to_density_grid(ens, 1.0, 64, -2.0, 2.0)


class TestValidation:
    def test_bad_weights(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0, z_cap=2.0)
        ens.weights = np.array([0.7])
        with pytest.raises(ValueError, match="weights"):
            ens.validate()

    def test_impure_particle(self):
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        sc = compute_scales(HARMONIC, diff)
        ens = coherent_ensemble([0.0, 0.0], sc, seed=0, z_cap=2.0)
        ens.covs = 2.0 * ens.covs
        with pytest.raises(ValueError, match="pure"):
            ens.validate()
