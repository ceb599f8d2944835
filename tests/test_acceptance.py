"""End-to-end acceptance suite.

Each test verifies one headline guarantee of the package and prints a
single summary line to the terminal (bypassing pytest capture):

    acceptance 01 harmonic exactness: pass -- ...

The tolerances and problem sizes here are part of the package contract;
do not loosen them to make a failing build green.
"""

import math
import time

import numpy as np
import pytest

from gaussian_lemmas import (covariance_eigen_pairs, gaussian_moment,
                             gaussian_moment4, gaussian_moment6,
                             random_pure_cov, sigma_star_d, split_sdot,
                             symplectic_form)
from phasemix.config import ExperimentConfig
from phasemix.fokker_planck import (evolve_fokker_planck,
                                    gaussian_phase_field, l1_distance,
                                    PhaseField)
from phasemix.gaussian import GaussianState, nts_eigenvalues, whiten
from phasemix.harmonic_error import harmonic_error_report
from phasemix.harness import run_breakdown_demo, run_comparison
from phasemix.langevin import (ensemble_histogram, evolve_langevin_ensemble,
                               sample_gaussian_ensemble)
from phasemix.lindblad import (DensityMatrixGrid, gaussian_to_grid,
                               wigner_transform_grid)
from phasemix.mixture import MixtureEnsemble, effective_z, evolve_mixture
from phasemix.potentials import (Cosine, CubicHarmonic, DoubleWell,
                                 HamiltonianModel, hamiltonian_matrix)
from phasemix.scales import (DiffusionSpec, compute_scales,
                             diffusion_threshold, ehrenfest_time,
                             physical_example_time)

HBAR_SI = 1.054571817e-34

WELL = HamiltonianModel(1.0, DoubleWell(0.25, 1.0), (-3.0, 3.0))

ANHARMONIC = [
    lambda: HamiltonianModel(1.0, DoubleWell(0.25, 1.0), (-3.0, 3.0)),
    lambda: HamiltonianModel(1.0, Cosine(1.0, 1.0), (-np.pi, np.pi)),
    lambda: HamiltonianModel(1.0, CubicHarmonic(0.2), (-1.5, 1.5)),
]


@pytest.fixture
def emit(capsys):
    def _emit(line):
        with capsys.disabled():
            print("\n" + line)
    return _emit


def random_nts_cov(scales, z, rng, margin=0.9):
    """Random pure covariance with whitened eigenvalues inside the window.

    Built directly as a rotated diag(e^u, e^-u) in whitened coordinates
    (unit determinant = purity for d = 1), with u <= margin * log(z), so
    the draw stays inside the squeeze window even at the z floor.
    """
    u = rng.uniform(0.0, margin * math.log(z))
    th = rng.uniform(0.0, math.pi)
    c, s = math.cos(th), math.sin(th)
    r = np.array([[c, -s], [s, c]])
    st = r @ np.diag([math.exp(u), math.exp(-u)]) @ r.T
    root = np.sqrt(np.diag(scales.sigma_star))
    return st * np.outer(root, root)


def pure_cov(s, hbar, theta=0.0):
    c, si = math.cos(theta), math.sin(theta)
    r = np.array([[c, -si], [si, c]])
    return r @ np.diag([s, hbar**2 / (4.0 * s)]) @ r.T


def well_benchmark_config(**overrides):
    """Double-well benchmark: hbar/s_H = 1e-3, D0 = 3x threshold(0.3, 5 tau_H).

    Every number is derived from the scale relations so the test checks
    the advertised inequality, not a hand-tuned coincidence.
    """
    sc0 = compute_scales(WELL, DiffusionSpec(1.0, 1.0, 1.0))
    hbar = 1e-3 * sc0.s_H
    sc = compute_scales(WELL, DiffusionSpec(1.0, 1.0, hbar))
    t5 = 5.0 * sc.tau_H
    d0 = 3.0 * diffusion_threshold(sc, 0.3, t5, 1)
    base = dict(
        potential="double_well", params=(0.25, 1.0), mass=1.0,
        x_min=-3.0, x_max=3.0,
        d_x=d0 * sc.x_H**2 / sc.tau_H, d_p=d0 * sc.p_H**2 / sc.tau_H,
        hbar=hbar, x0=0.5, p0=0.0, t_final=t5,
        n_grid=512, n_phase=128, particles=1000, snapshots=5,
        edge_tol=1e-4, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestAcceptance:
    def test_01_harmonic_exactness(self, emit):
        # a single-particle mixture is exact for quadratic dynamics; any
        # measured distance is pure solver error
        cfg = ExperimentConfig(
            potential="harmonic", params=(1.0,), mass=1.0,
            x_min=-6.5, x_max=6.5, d_x=0.05, d_p=0.05, hbar=1.0,
            x0=1.0, p0=0.0, t_final=10.0, dt_quantum=0.004,
            n_grid=256, n_phase=640, p_min=-5.5, p_max=5.5,
            particles=1, snapshots=5, seed=3, z_cap=3.0)
        t0 = time.perf_counter()
        rep = run_comparison(cfg)
        elapsed = time.perf_counter() - t0
        mtd = max(rep.trace_distances)
        ml1 = max(rep.l1_distances)
        ok = mtd < 1e-3 and ml1 < 1e-3 and elapsed < 120.0
        emit(f"acceptance 01 harmonic exactness: {'pass' if ok else 'FAIL'}"
             f" -- max trace {mtd:.2e}, max l1 {ml1:.2e}, {elapsed:.0f} s")
        assert mtd < 1e-3 and ml1 < 1e-3
        assert elapsed < 120.0

    def test_02_error_bound_end_to_end(self, emit):
        # a high spill threshold keeps the center spread deterministic,
        # which minimizes the M = 1000 sampling noise in the raster
        cfg = well_benchmark_config(blur_cap=32.0, margin=0.10)
        t0 = time.perf_counter()
        rep = run_comparison(cfg)
        elapsed = time.perf_counter() - t0
        worst = max(max(td, l1) / eps for td, l1, eps in
                    zip(rep.trace_distances, rep.l1_distances, rep.epsilons))
        ok = rep.passed and elapsed < 1800.0
        emit(f"acceptance 02 error bound end to end: "
             f"{'pass' if ok else 'FAIL'} -- worst distance/budget "
             f"{worst:.3f} (allowed 1.10), {elapsed:.0f} s")
        assert rep.passed, (rep.trace_distances, rep.l1_distances,
                            rep.epsilons)
        assert elapsed < 1800.0

    def test_03_squeeze_window_invariant(self, emit):
        rng = np.random.default_rng(2026)
        worst_lam, worst_defect, worst_viol = 0.0, 0.0, 0.0
        for run in range(1000):
            model = ANHARMONIC[run % 3]()
            hbar = rng.uniform(0.05, 0.5)
            diffusion = DiffusionSpec(rng.uniform(0.05, 1.0),
                                      rng.uniform(0.05, 1.0), hbar)
            sc = compute_scales(model, diffusion)
            # D0 > 0 gives a finite window; capping below the theorem's z
            # would weaken the relaxation that defends the boundary
            z = effective_z(sc)
            covs = np.stack([random_nts_cov(sc, z, rng) for _ in range(2)])
            half = 0.4 * (model.domain[1] - model.domain[0]) / 2.0
            alphas = np.stack([[rng.uniform(-half, half), rng.normal()]
                               for _ in range(2)])
            ens = MixtureEnsemble(
                weights=np.full(2, 0.5), alphas=alphas, covs=covs,
                blurs=np.zeros((2, 2, 2)), hbar=sc.hbar,
                seed=int(rng.integers(1 << 31)))
            # the window relaxation stiffens like 4 m_rate / (1 - z^-2)
            # near the floor; keep the explicit stage stable
            dt = min(sc.tau_H / 120.0,
                     0.25 * (1.0 - z**-2) / sc.m_rate)
            out = evolve_mixture(ens, model, diffusion, 10.0 * dt, dt)
            final = out[-1][1]
            lam = nts_eigenvalues(final.covs, sc.sigma_star)
            worst_lam = max(worst_lam, float(lam.max() - z),
                            float(1.0 / z - lam.min()))
            worst_viol = max(worst_viol,
                             final.diagnostics["max_nts_violation"])
            # symplectic defect of (2/hbar) sigma for d = 1 is |det - 1|
            dets = np.linalg.det(final.covs * (2.0 / hbar))
            worst_defect = max(worst_defect, float(np.abs(dets - 1.0).max()))
        ok = worst_lam <= 1e-6 and worst_viol <= 1e-6 \
            and worst_defect < 1e-8
        emit(f"acceptance 03 squeeze window invariant (1000 runs): "
             f"{'pass' if ok else 'FAIL'} -- worst window excess "
             f"{worst_lam:.2e}, worst symplectic defect {worst_defect:.2e}")
        assert worst_lam <= 1e-6
        assert worst_viol <= 1e-6
        assert worst_defect < 1e-8

    def test_04_splitting_identities(self, emit):
        rng = np.random.default_rng(404)
        omega = symplectic_form(1)
        worst_split, worst_eig, worst_tan = 0.0, 0.0, 0.0
        for run in range(10_000):
            model = ANHARMONIC[run % 3]()
            hbar = rng.uniform(0.05, 0.5)
            diffusion = DiffusionSpec(rng.uniform(0.0, 1.0),
                                      rng.uniform(0.01, 1.0), hbar)
            sc = compute_scales(model, diffusion)
            z = effective_z(sc, z_cap=rng.uniform(1.5, 5.0))
            sigma = random_nts_cov(sc, z, rng)
            half = 0.4 * (model.domain[1] - model.domain[0]) / 2.0
            alpha = np.array([rng.uniform(-half, half), rng.normal()])
            sz, sd = split_sdot(alpha, sigma, model, diffusion, sc, z)
            f = hamiltonian_matrix(model, alpha)
            full = f @ sigma + sigma @ f.T + diffusion.matrix()
            scale = max(np.abs(full).max(), 1.0)
            worst_split = max(worst_split,
                              float(np.abs(sz + sd - full).max()) / scale)
            sd_t = whiten(sd, sc.sigma_star)
            worst_eig = max(worst_eig,
                            -float(np.linalg.eigvalsh(sd_t).min()))
            st = whiten(sigma, sc.sigma_star)
            a = np.linalg.inv(st) @ whiten(sz, sc.sigma_star)
            worst_tan = max(worst_tan,
                            float(np.abs(a.T + omega.T @ a @ omega).max()))
        ok = worst_split <= 1e-10 and worst_eig <= 1e-9 \
            and worst_tan <= 1e-10
        emit(f"acceptance 04 splitting identities (10000 draws): "
             f"{'pass' if ok else 'FAIL'} -- split residual "
             f"{worst_split:.1e}, min eig {-worst_eig:.1e}, tangency "
             f"{worst_tan:.1e}")
        assert worst_split <= 1e-10
        assert worst_eig <= 1e-9
        assert worst_tan <= 1e-10

    def test_05_generator_error_dominance(self, emit):
        rng = np.random.default_rng(55)
        hbar = 0.01
        worst_q, worst_c = 0.0, 0.0
        for run in range(100):
            model = ANHARMONIC[run % 3]()
            lo, hi = model.domain
            s = rng.uniform(0.002, 0.01)
            sig = pure_cov(s, hbar, rng.uniform(0, np.pi))
            half = 0.35 * (hi - lo) / 2.0
            alpha = [rng.uniform(-half, half), rng.normal(scale=0.2)]
            sx = math.sqrt(sig[0, 0])
            sp = math.sqrt(sig[1, 1])
            x = np.linspace(alpha[0] - 8 * sx, alpha[0] + 8 * sx, 384)
            p = np.linspace(alpha[1] - 8 * sp, alpha[1] + 8 * sp, 384)
            rep = harmonic_error_report(alpha, sig, model, hbar, x, p)
            worst_q = max(worst_q, rep.numeric_quantum / rep.bound_quantum)
            worst_c = max(worst_c,
                          rep.numeric_classical / rep.bound_classical)
        ok = worst_q <= 1.05 and worst_c <= 1.05
        emit(f"acceptance 05 generator error dominance (100 draws): "
             f"{'pass' if ok else 'FAIL'} -- worst numeric/bound quantum "
             f"{worst_q:.3f}, classical {worst_c:.3f} (allowed 1.05)")
        assert worst_q <= 1.05
        assert worst_c <= 1.05

    def test_06_moment_formulas_monte_carlo(self, emit):
        rng = np.random.default_rng(606)
        m_samples = 1_000_000
        worst = 0.0
        for k in range(20):
            n = 2 if k % 2 == 0 else 4
            l = rng.normal(size=(n, n))
            cov = l @ l.T + 0.1 * np.eye(n)
            mats = []
            for _ in range(3):
                a = rng.normal(size=(n, n))
                mats.append(0.5 * (a + a.T))
            a, b, c = mats
            chol = np.linalg.cholesky(cov)
            beta = rng.standard_normal((m_samples, n)) @ chol.T
            qa = np.einsum("mi,ij,mj->m", beta, a, beta)
            qb = np.einsum("mi,ij,mj->m", beta, b, beta)
            qc = np.einsum("mi,ij,mj->m", beta, c, beta)
            for sample, exact in [
                    (qa, gaussian_moment(cov, a)),
                    (qa * qb, gaussian_moment4(cov, a, b)),
                    (qa * qb * qc, gaussian_moment6(cov, a, b, c))]:
                se = sample.std(ddof=1) / math.sqrt(m_samples)
                worst = max(worst, abs(sample.mean() - exact) / se)
        ok = worst <= 3.0
        emit(f"acceptance 06 moment formulas vs Monte Carlo (20 x 1e6): "
             f"{'pass' if ok else 'FAIL'} -- worst deviation "
             f"{worst:.2f} standard errors (allowed 3)")
        assert worst <= 3.0

    def test_07_eigen_pairing_and_window_symmetry(self, emit):
        rng = np.random.default_rng(707)
        worst_pair, worst_recip = 0.0, 0.0
        for run in range(1000):
            d = 1 if run % 2 == 0 else 2
            hbar = rng.uniform(0.05, 2.0)
            a_h = rng.uniform(0.2, 5.0)
            cov = random_pure_cov(d, hbar, a_h, rng)
            target = (hbar / 2.0) ** 2
            for lo, hi in covariance_eigen_pairs(cov, hbar, rtol=1e-10):
                worst_pair = max(worst_pair, abs(lo * hi / target - 1.0))
            # whitened pure spectra come in reciprocal pairs, so the
            # upper squeeze bound holds iff the lower one does
            lam = np.sort(nts_eigenvalues(cov, sigma_star_d(a_h, hbar, d)))
            for i in range(d):
                worst_recip = max(worst_recip,
                                  abs(lam[i] * lam[2 * d - 1 - i] - 1.0))
            z = rng.uniform(1.0, 5.0)
            assert (lam.max() <= z) == (lam.min() >= 1.0 / z - 1e-12)
        ok = worst_pair <= 1e-10 and worst_recip <= 1e-9
        emit(f"acceptance 07 eigen pairing (1000 draws): "
             f"{'pass' if ok else 'FAIL'} -- worst pair product error "
             f"{worst_pair:.1e}, worst reciprocal error {worst_recip:.1e}")
        assert worst_pair <= 1e-10
        assert worst_recip <= 1e-9

    def test_08_wigner_grid_properties(self, emit):
        # Gaussian state: transform matches the analytic phase-space density
        cov = np.array([[0.8, 0.2], [0.2, (0.25 + 0.04) / 0.8]])
        g = gaussian_to_grid(GaussianState([0.5, -0.2], cov, 1.0),
                             256, -12.0, 12.0)
        w = wigner_transform_grid(g)
        ref = gaussian_phase_field([0.5, -0.2], cov, w.x, w.p)
        gauss_err = float(np.abs(w.values - ref.values).max())

        # phase-space average of V equals the position-basis expectation
        v = WELL.potential.value
        lhs = float((np.diag(g.rho).real * v(g.x)).sum() * g.dx)
        rhs = float((w.values * v(w.x)[:, None]).sum() * w.cell_area)
        weyl_err = abs(lhs - rhs)

        # superposed packets produce interference negativity
        x = np.linspace(-12, 12, 256, endpoint=False)
        dx = x[1] - x[0]
        psi = (np.exp(-(x - 2.0) ** 2)
               + np.exp(-(x + 2.0) ** 2)).astype(complex)
        psi /= np.sqrt((np.abs(psi) ** 2).sum() * dx)
        cat = wigner_transform_grid(
            DensityMatrixGrid(x, np.outer(psi, psi.conj()), 1.0))
        neg_ratio = -cat.values.min() / cat.values.max()

        ok = gauss_err < 1e-4 and weyl_err < 1e-6 and neg_ratio > 0.1
        emit(f"acceptance 08 phase-space transform properties: "
             f"{'pass' if ok else 'FAIL'} -- gaussian error "
             f"{gauss_err:.1e}, trace-formula error {weyl_err:.1e}, "
             f"negativity/peak {neg_ratio:.2f}")
        assert gauss_err < 1e-4
        assert weyl_err < 1e-6
        assert neg_ratio > 0.1

    def test_09_physical_timescales(self, emit):
        t78 = ehrenfest_time(1.0, 1.0, HBAR_SI)
        root = math.sqrt(1.0 / HBAR_SI)
        dust = physical_example_time(1e-11, 1.0, 1.0, 1e25, HBAR_SI)
        ok = (abs(t78 - 78.0) < 1.0
              and abs(t78 - math.log(1.0 / HBAR_SI)) < 1e-9
              and 10**16.5 <= root <= 10**17.5
              and 10**13.5 <= dust <= 10**15.5)
        emit(f"acceptance 09 physical timescales: "
             f"{'pass' if ok else 'FAIL'} -- spreading {t78:.1f} s, "
             f"sqrt(action/hbar) {root:.2e} s, dust grain {dust:.2e} s")
        assert abs(t78 - 78.0) < 1.0
        assert abs(t78 - math.log(1.0 / HBAR_SI)) < 1e-9
        assert 10**16.5 <= root <= 10**17.5
        assert 10**13.5 <= dust <= 10**15.5

    def test_10_breakdown_demonstration(self, emit):
        sc = compute_scales(WELL, DiffusionSpec(1.0, 1.0, 1.0))
        cfg = well_benchmark_config(t_final=8.0 * sc.tau_H, snapshots=8)
        rep = run_breakdown_demo(cfg)
        after = [i for i, t in enumerate(rep.times)
                 if t > rep.ehrenfest_estimate]
        assert after, "window must extend past the spreading-time estimate"
        free_ratio = max(-rep.free_min[i] / rep.free_peak[i] for i in after)
        noisy_ratio = min(rep.diffusive_min[i] / rep.diffusive_peak[i]
                          for i in range(len(rep.times)))
        ok = free_ratio > 0.10 and noisy_ratio >= -0.01
        emit(f"acceptance 10 breakdown demonstration: "
             f"{'pass' if ok else 'FAIL'} -- noiseless negativity/peak "
             f"{free_ratio:.3f} (> 0.10), diffusive floor {noisy_ratio:.4f}"
             f" (>= -0.01)")
        assert free_ratio > 0.10
        assert noisy_ratio >= -0.01

    def test_11_langevin_fokker_planck_agreement(self, emit):
        cfg = well_benchmark_config()
        model = cfg.build_model()
        diffusion = cfg.build_diffusion(model)
        sc = compute_scales(model, diffusion)
        t3 = 3.0 * sc.tau_H
        ens = sample_gaussian_ensemble([cfg.x0, cfg.p0], sc.sigma_star,
                                       1_000_000, seed=19)
        ens = evolve_langevin_ensemble(ens, model, diffusion, t3,
                                       sc.tau_H / 200.0)

        n_fine, n_coarse = 256, 64
        factor = n_fine // n_coarse
        x_fine = -3.0 + 6.0 * (np.arange(n_fine) + 0.5) / n_fine
        p_fine = -3.0 + 6.0 * (np.arange(n_fine) + 0.5) / n_fine
        f0 = gaussian_phase_field([cfg.x0, cfg.p0], sc.sigma_star,
                                  x_fine, p_fine)
        from phasemix.fokker_planck import _cfl_limits
        adv, diff = _cfl_limits(f0, model, diffusion)
        traj = evolve_fokker_planck(f0, model, diffusion, t3,
                                    0.8 * min(adv, diff))
        fine = traj[-1][1]

        x64 = -3.0 + 6.0 * (np.arange(n_coarse) + 0.5) / n_coarse
        p64 = -3.0 + 6.0 * (np.arange(n_coarse) + 0.5) / n_coarse
        coarse_vals = fine.values.reshape(n_coarse, factor, n_coarse,
                                          factor).mean(axis=(1, 3))
        fp64 = PhaseField(x64, p64, coarse_vals)
        hist = ensemble_histogram(ens, x64, p64)
        l1 = l1_distance(fp64, hist)
        ok = l1 <= 0.05
        emit(f"acceptance 11 langevin vs fokker-planck (M=1e6, 64x64): "
             f"{'pass' if ok else 'FAIL'} -- l1 distance {l1:.4f} "
             f"(allowed 0.05)")
        assert l1 <= 0.05
