import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phasemix import _kernels
from phasemix.gaussian import GaussianState, sigma_star
from phasemix.lindblad import (
    DensityMatrixGrid,
    apply_lindbladian,
    evolve_lindblad,
    gaussian_to_grid,
    trace_distance,
    wigner_transform_grid,
)
from phasemix.fokker_planck import gaussian_phase_field
from phasemix.potentials import HamiltonianModel, Harmonic, hamiltonian_matrix
from phasemix.scales import DiffusionSpec

HARMONIC = HamiltonianModel(1.0, Harmonic(1.0), (-12.0, 12.0))
NO_DIFF = DiffusionSpec(0.0, 0.0, 1.0)


def coherent_grid(mean=(0.0, 0.0), n=256, box=12.0, a_H=1.0, hbar=1.0):
    st = GaussianState(np.asarray(mean, float), sigma_star(a_H, hbar), hbar)
    return gaussian_to_grid(st, 1.0, n, -box, box)


class TestGaussianToGrid:
    def test_coherent_variances(self):
        g = coherent_grid()
        mean, cov = g.moments()
        assert np.abs(mean).max() < 1e-8
        assert cov[0, 0] == pytest.approx(0.5, rel=1e-3)
        assert cov[1, 1] == pytest.approx(0.5, rel=1e-3)

    def test_displaced_coherent_means(self):
        g = coherent_grid(mean=(1.3, -0.7))
        mean, _ = g.moments()
        assert mean[0] == pytest.approx(1.3, abs=1e-6)
        assert mean[1] == pytest.approx(-0.7, abs=1e-6)

    def test_squeezed_position_variance(self):
        st = GaussianState([0.0, 0.0], np.diag([1.0, 0.25]), 1.0)
        g = gaussian_to_grid(st, 1.0, 256, -12.0, 12.0)
        _, cov = g.moments()
        assert cov[0, 0] == pytest.approx(1.0, rel=1e-3)
        assert cov[1, 1] == pytest.approx(0.25, rel=1e-3)

    def test_cross_covariance(self):
        cov = np.array([[1.0, 0.3], [0.3, (0.25 + 0.09) / 1.0]])
        g = gaussian_to_grid(GaussianState([0.0, 0.0], cov, 1.0),
                             1.0, 256, -12.0, 12.0)
        _, gcov = g.moments()
        assert gcov[0, 1] == pytest.approx(0.3, rel=5e-3)

    def test_rank_one(self):
        g = coherent_grid()
        ev = np.linalg.eigvalsh(g.rho * g.dx)
        assert ev[-1] == pytest.approx(1.0, abs=1e-8)
        assert np.abs(ev[:-1]).max() < 1e-8

    def test_impure_rejected(self):
        st = GaussianState([0.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(ValueError, match="not pure"):
            gaussian_to_grid(st, 1.0, 128, -10.0, 10.0)

    def test_grid_too_small(self):
        st = GaussianState([0.0, 0.0], sigma_star(1.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="grid too small"):
            gaussian_to_grid(st, 1.0, 128, -2.0, 2.0)


def density_kernel(st, x):
    """The mixture rasterizer's kernel for the single Gaussian `st`."""
    return _kernels.rasterize_density(x, np.array([1.0]), st.mean[None],
                                      st.cov[None], st.hbar)


class TestMixedKernel:
    def test_pure_case_matches_outer_product(self):
        st = GaussianState([0.4, -0.2],
                           np.array([[1.0, 0.3], [0.3, 0.34]]), 1.0)
        g = gaussian_to_grid(st, 1.0, 256, -12.0, 12.0)
        kern = density_kernel(st, g.x)
        assert np.abs(kern - g.rho).max() < 1e-8

    def test_mixed_kernel_moments_and_purity(self):
        cov = np.array([[1.0, 0.1], [0.1, 0.8]])  # mixed: det > (1/2)^2
        st = GaussianState([0.5, 0.3], cov, 1.0)
        x = np.linspace(-12, 12, 256, endpoint=False)
        g = DensityMatrixGrid(x, density_kernel(st, x), 1.0, 1.0)
        assert g.trace() == pytest.approx(1.0, abs=1e-9)
        mean, gcov = g.moments()
        assert np.allclose(mean, st.mean, atol=1e-6)
        assert np.allclose(gcov, cov, rtol=2e-3, atol=1e-4)
        # Gaussian purity: tr rho^2 = (hbar/2)^d / sqrt(det cov)
        assert g.purity() == pytest.approx(0.5 / np.sqrt(np.linalg.det(cov)),
                                           rel=1e-6)
        assert g.min_eigenvalue() > -1e-10


class TestGenerator:
    def test_eigenstate_zero_derivative(self):
        # the matched coherent state is the harmonic ground state
        g = coherent_grid()
        deriv = apply_lindbladian(g, HARMONIC, NO_DIFF)
        assert np.abs(deriv).max() < 1e-6

    def test_ehrenfest_mean_velocity(self):
        g = coherent_grid(mean=(0.8, 0.6))
        deriv = apply_lindbladian(g, HARMONIC, NO_DIFF)
        dmean_x = float((np.diag(deriv).real * g.x).sum() * g.dx)
        assert dmean_x == pytest.approx(0.6 / 1.0, abs=1e-6)

    def test_hermitian_traceless(self):
        g = coherent_grid(mean=(1.0, -0.5))
        deriv = apply_lindbladian(g, HARMONIC, DiffusionSpec(0.04, 0.07, 1.0))
        assert np.abs(deriv - deriv.conj().T).max() < 1e-10
        assert abs(np.trace(deriv).real * g.dx) < 1e-10

    def test_generator_consistency_short_time(self):
        g = coherent_grid(mean=(1.0, 0.0))
        dt = 1e-3
        # one split step agrees with the generator to first order
        t, g1 = evolve_lindblad(g, HARMONIC, NO_DIFF, dt, dt)[-1]
        pred = g.rho + dt * apply_lindbladian(g, HARMONIC, NO_DIFF)
        assert np.abs(g1.rho - pred).max() < 5.0 * dt**2


class TestDecoherenceRate:
    def test_cat_coherence_decay(self):
        # superposition of +-x0; coherence at (x0, -x0) decays at
        # D_p (2 x0)^2 / (2 hbar^2) under the position dissipator.  Use a
        # heavy particle and weak potential so unitary motion is frozen.
        hbar, x0, d_p, t = 1.0, 1.5, 0.2, 0.05
        model = HamiltonianModel(1e6, Harmonic(1e-6), (-12.0, 12.0))
        x = np.linspace(-12, 12, 256, endpoint=False)
        dx = x[1] - x[0]
        psi = (np.exp(-(x - x0) ** 2) + np.exp(-(x + x0) ** 2)).astype(complex)
        psi /= np.sqrt((np.abs(psi) ** 2).sum() * dx)
        g0 = DensityMatrixGrid(x, np.outer(psi, psi.conj()), hbar, 1e6)
        diff = DiffusionSpec(0.0, d_p, hbar)
        _, gt = evolve_lindblad(g0, model, diff, t, t / 50)[-1]
        i = np.argmin(np.abs(x - x0))
        j = np.argmin(np.abs(x + x0))
        ratio = abs(gt.rho[i, j]) / abs(g0.rho[i, j])
        expected = np.exp(-d_p * (2 * x0) ** 2 * t / (2 * hbar**2))
        assert ratio == pytest.approx(expected, rel=1e-3)


def _cov_ode_solution(cov0, diffusion, t):
    f = hamiltonian_matrix(HARMONIC, [0.0, 0.0])
    d = diffusion.matrix(1)

    def rhs(_, y):
        s = y.reshape(2, 2)
        return (f @ s + s @ f.T + d).ravel()

    sol = solve_ivp(rhs, [0.0, t], np.asarray(cov0, float).ravel(),
                    rtol=1e-11, atol=1e-13)
    return sol.y[:, -1].reshape(2, 2)


class TestEvolution:
    def test_harmonic_circle_split(self):
        g0 = coherent_grid(mean=(1.0, 0.0))
        period = 2.0 * np.pi
        traj = evolve_lindblad(g0, HARMONIC, NO_DIFF, period, period / 4000,
                               snapshot_times=[period / 4, period])
        (_, gq), (_, gf) = traj[1], traj[2]
        mq, _ = gq.moments()
        mf, _ = gf.moments()
        assert np.abs(mq - [0.0, -1.0]).max() < 1e-4
        assert np.abs(mf - [1.0, 0.0]).max() < 1e-4

    def test_harmonic_covariance_ode_oracle(self):
        cov0 = np.array([[1.0, 0.3], [0.3, 0.34]])
        g0 = gaussian_to_grid(GaussianState([0.5, 0.2], cov0, 1.0),
                              1.0, 256, -12.0, 12.0)
        diff = DiffusionSpec(0.03, 0.05, 1.0)
        t = 0.7
        _, gt = evolve_lindblad(g0, HARMONIC, diff, t, 0.002)[-1]
        _, cov_t = gt.moments()
        assert np.abs(cov_t - _cov_ode_solution(cov0, diff, t)).max() < 1e-4

    def test_dt_convergence(self):
        g0 = coherent_grid(mean=(1.0, 0.0))
        diff = DiffusionSpec(0.02, 0.05, 1.0)
        t = 1.0
        ends = {}
        for dt in (0.01, 0.005, 0.0025):
            ends[dt] = evolve_lindblad(g0, HARMONIC, diff, t, dt)[-1][1]
        d1 = trace_distance(ends[0.01], ends[0.0025])
        d2 = trace_distance(ends[0.005], ends[0.0025])
        assert d1 < 1e-4
        # order >= 2: halving dt cuts the error by ~4
        assert d1 / max(d2, 1e-300) > 3.0

    def test_invariants_along_trajectory(self):
        g0 = coherent_grid(mean=(1.0, 0.0))
        diff = DiffusionSpec(0.02, 0.05, 1.0)
        traj = evolve_lindblad(g0, HARMONIC, diff, 2.0, 0.005,
                               snapshot_times=[0.5, 1.0, 2.0])
        for _, g in traj:
            assert g.hermiticity_defect() < 1e-10
            assert abs(g.trace() - 1.0) < 1e-8
            assert g.min_eigenvalue() > -1e-6

    def test_escape_aborts_with_step(self):
        g0 = coherent_grid(mean=(7.0, 6.0), box=12.0)
        with pytest.raises(RuntimeError, match=r"step \d+"):
            evolve_lindblad(g0, HamiltonianModel(1.0, Harmonic(1e-4),
                                                 (-12.0, 12.0)),
                            NO_DIFF, 1.0, 0.01)


class TestWigner:
    def test_gaussian_matches_analytic(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.34]])
        g = gaussian_to_grid(GaussianState([0.5, -0.2], cov, 1.0),
                             1.0, 256, -12.0, 12.0)
        w = wigner_transform_grid(g)
        ref = gaussian_phase_field([0.5, -0.2], cov, w.x, w.p)
        assert np.abs(w.values - ref.values).max() < 1e-4
        assert w.mass() == pytest.approx(1.0, abs=1e-6)

    def test_p_marginal_reproduces_diagonal(self):
        g = coherent_grid(mean=(0.7, 0.4))
        w = wigner_transform_grid(g)
        assert np.abs(w.values.sum(axis=1) * w.dp
                      - g.position_density()).max() < 1e-6

    def test_cat_state_negativity(self):
        x = np.linspace(-12, 12, 256, endpoint=False)
        dx = x[1] - x[0]
        psi = (np.exp(-(x - 2.0) ** 2) + np.exp(-(x + 2.0) ** 2)
               ).astype(complex)
        psi /= np.sqrt((np.abs(psi) ** 2).sum() * dx)
        g = DensityMatrixGrid(x, np.outer(psi, psi.conj()), 1.0, 1.0)
        w = wigner_transform_grid(g)
        assert w.values.min() < -0.1 * w.values.max()
        # fringes live at the midpoint between the two packets
        mid = np.argmin(np.abs(x))
        assert np.abs(w.values[mid]).max() > 0.1 * w.values.max()

    def test_weyl_trace_formula(self):
        cov = np.array([[0.8, 0.2], [0.2, (0.25 + 0.04) / 0.8]])
        g = gaussian_to_grid(GaussianState([0.3, 0.1], cov, 1.0),
                             1.0, 256, -12.0, 12.0)
        w = wigner_transform_grid(g)
        v = HARMONIC.potential.value
        lhs = float((np.diag(g.rho).real * v(g.x)).sum() * g.dx)
        rhs = float((w.values * v(w.x)[:, None]).sum() * w.cell_area)
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestTraceDistance:
    def test_identical_zero(self):
        g = coherent_grid()
        assert trace_distance(g, g) == 0.0

    def test_orthogonal_pure_two(self):
        g1 = coherent_grid(mean=(4.0, 0.0))
        g2 = coherent_grid(mean=(-4.0, 0.0))
        assert trace_distance(g1, g2) == pytest.approx(2.0, abs=1e-6)

    def test_pure_state_overlap_formula(self):
        # coherent states: |<a|b>|^2 = exp(-|delta|^2 / (2 hbar a_H-units))
        g1 = coherent_grid(mean=(0.0, 0.0))
        g2 = coherent_grid(mean=(0.8, 0.6))
        # overlap of two coherent states with sigma* = I/2, hbar = 1:
        # |<a|b>|^2 = exp(-(dx^2 + dp^2)/2)
        ov2 = np.exp(-(0.8**2 + 0.6**2) / 2.0)
        expected = 2.0 * np.sqrt(1.0 - ov2)
        assert trace_distance(g1, g2) == pytest.approx(expected, abs=1e-8)

    def test_triangle_and_unitary_invariance(self):
        g1 = coherent_grid(mean=(0.5, 0.0))
        g2 = coherent_grid(mean=(-0.5, 0.3))
        g3 = coherent_grid(mean=(0.0, -0.4))
        d12 = trace_distance(g1, g2)
        d13 = trace_distance(g1, g3)
        d23 = trace_distance(g2, g3)
        assert d12 <= d13 + d23 + 1e-12
        # harmonic evolution is a quantum channel; distance non-increasing,
        # and for the unitary part exactly preserved
        t = 0.9
        e1 = evolve_lindblad(g1, HARMONIC, NO_DIFF, t, 0.002)[-1][1]
        e2 = evolve_lindblad(g2, HARMONIC, NO_DIFF, t, 0.002)[-1][1]
        assert trace_distance(e1, e2) == pytest.approx(d12, abs=1e-5)

    def test_measurement_probability_contract(self):
        rng = np.random.default_rng(17)
        g1 = coherent_grid(mean=(0.4, 0.0))
        g2 = coherent_grid(mean=(-0.4, 0.2))
        td = trace_distance(g1, g2)
        n = g1.n
        for _ in range(20):
            vecs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            q, _ = np.linalg.qr(vecs)
            proj = q @ q.conj().T
            p1 = float(np.trace(proj @ g1.rho).real * g1.dx)
            p2 = float(np.trace(proj @ g2.rho).real * g2.dx)
            assert abs(p1 - p2) <= td + 1e-10

    def test_grid_mismatch(self):
        g1 = coherent_grid(n=256)
        g2 = coherent_grid(n=128)
        with pytest.raises(ValueError):
            trace_distance(g1, g2)
