import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import zpotrf

from phasemix import _kernels, lindblad
from phasemix.config import parse_config
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
from phasemix.harness import Experiment
from phasemix.potentials import HamiltonianModel, Harmonic, hamiltonian_matrix
from phasemix.scales import DiffusionSpec, step_schedule

HARMONIC = HamiltonianModel(1.0, Harmonic(1.0), (-12.0, 12.0))
NO_DIFF = DiffusionSpec(0.0, 0.0, 1.0)


def wavefunction_reference(x, mean, cov, hbar):
    """psi psi^+ of the pure Gaussian on the uniform grid x, with psi
    normalized on the grid to sum(|psi|^2) dx = 1."""
    u = x - mean[0]
    psi = np.exp(-u**2 * (1.0 - 2.0j * cov[0, 1] / hbar) / (4.0 * cov[0, 0])
                 + 1j * mean[1] * u / hbar)
    psi /= np.sqrt((np.abs(psi) ** 2).sum() * (x[1] - x[0]))
    return np.outer(psi, psi.conj())


def assert_matches_wavefunction(g, mean, cov):
    ref = wavefunction_reference(g.x, mean, cov, g.hbar)
    assert np.abs(g.rho - ref).max() <= 1e-14 * np.abs(ref).max()


def test_grid_refuses_nan_hbar():
    x = np.linspace(-1.0, 1.0, 4)
    with pytest.raises(ValueError, match="hbar must be positive"):
        DensityMatrixGrid(x, np.eye(4), np.nan)


def test_grid_refuses_inf_hbar():
    x = np.linspace(-1.0, 1.0, 4)
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        DensityMatrixGrid(x, np.eye(4), np.inf)


def coherent_grid(mean=(0.0, 0.0), n=256, box=12.0, a_H=1.0, hbar=1.0):
    st = GaussianState(np.asarray(mean, float), sigma_star(a_H, hbar), hbar)
    return gaussian_to_grid(st, n, -box, box)


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
        g = gaussian_to_grid(st, 256, -12.0, 12.0)
        _, cov = g.moments()
        assert cov[0, 0] == pytest.approx(1.0, rel=1e-3)
        assert cov[1, 1] == pytest.approx(0.25, rel=1e-3)

    def test_cross_covariance(self):
        cov = np.array([[1.0, 0.3], [0.3, (0.25 + 0.09) / 1.0]])
        g = gaussian_to_grid(GaussianState([0.0, 0.0], cov, 1.0),
                             256, -12.0, 12.0)
        _, gcov = g.moments()
        assert gcov[0, 1] == pytest.approx(0.3, rel=5e-3)

    def test_correlated_state_matches_wavefunction(self):
        cov = np.array([[0.8, -0.35], [-0.35, (0.25 + 0.35**2) / 0.8]])
        st = GaussianState([0.7, 1.9], cov, 1.0)
        assert_matches_wavefunction(gaussian_to_grid(st, 256, -12.0, 12.0),
                                    st.mean, st.cov)

    @pytest.mark.parametrize("name", ["harmonic_exact", "well_budget",
                                      "well_breakdown"])
    def test_benchmark_rho0_matches_wavefunction(self, name):
        exp = benchmark_experiment(name)
        assert_matches_wavefunction(exp.rho0(), [exp.cfg.x0, exp.cfg.p0],
                                    exp.scales.sigma_star)

    def test_rank_one(self):
        g = coherent_grid()
        ev = np.linalg.eigvalsh(g.rho * g.dx)
        assert ev[-1] == pytest.approx(1.0, abs=1e-8)
        assert np.abs(ev[:-1]).max() < 1e-8

    def test_impure_rejected(self):
        st = GaussianState([0.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(ValueError, match="not pure"):
            gaussian_to_grid(st, 128, -10.0, 10.0)

    def test_grid_too_small(self):
        st = GaussianState([0.0, 0.0], sigma_star(1.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="grid too small"):
            gaussian_to_grid(st, 128, -2.0, 2.0)


def density_kernel(st, x):
    """The mixture rasterizer's kernel for the single Gaussian `st`."""
    return _kernels.rasterize_density(x, np.array([1.0]), st.mean[None],
                                      st.cov[None], st.hbar)


class TestMixedKernel:
    def test_pure_case_matches_outer_product(self):
        st = GaussianState([0.4, -0.2],
                           np.array([[1.0, 0.3], [0.3, 0.34]]), 1.0)
        x = np.linspace(-12.0, 12.0, 256, endpoint=False)
        ref = wavefunction_reference(x, st.mean, st.cov, st.hbar)
        assert (np.abs(density_kernel(st, x) - ref).max()
                <= 1e-14 * np.abs(ref).max())

    def test_mixed_kernel_moments_and_purity(self):
        cov = np.array([[1.0, 0.1], [0.1, 0.8]])  # mixed: det > (1/2)^2
        st = GaussianState([0.5, 0.3], cov, 1.0)
        x = np.linspace(-12, 12, 256, endpoint=False)
        g = DensityMatrixGrid(x, density_kernel(st, x), 1.0)
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
        g0 = DensityMatrixGrid(x, np.outer(psi, psi.conj()), hbar)
        diff = DiffusionSpec(0.0, d_p, hbar)
        _, gt = evolve_lindblad(g0, model, diff, t, t / 50)[-1]
        i = np.argmin(np.abs(x - x0))
        j = np.argmin(np.abs(x + x0))
        ratio = abs(gt.rho[i, j]) / abs(g0.rho[i, j])
        expected = np.exp(-d_p * (2 * x0) ** 2 * t / (2 * hbar**2))
        assert ratio == pytest.approx(expected, rel=1e-3)


def _cov_ode_solution(cov0, diffusion, t):
    f = hamiltonian_matrix(HARMONIC, [0.0, 0.0])
    d = diffusion.matrix()

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
                              256, -12.0, 12.0)
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

    @pytest.mark.parametrize("diff",
                             [NO_DIFF, DiffusionSpec(0.01, 0.01, 1.0)],
                             ids=["wavefunction", "density"])
    def test_kinetic_term_uses_model_mass(self, diff):
        # k = 1, m = 4: <x>(t) = x0 cos(t / 2) on both paths; the mean of
        # a linear model does not feel diffusion
        model = HamiltonianModel(4.0, Harmonic(1.0), (-12.0, 12.0))
        g0 = coherent_grid(mean=(0.5, 0.0))
        _, gt = evolve_lindblad(g0, model, diff, 1.0, 0.01)[-1]
        mean, _ = gt.moments()
        assert mean[0] == pytest.approx(0.5 * np.cos(0.5), abs=1e-5)

    @pytest.mark.parametrize("d", [0.0, 0.01], ids=["wavefunction", "density"])
    def test_hbar_mismatch_rejected(self, d):
        with pytest.raises(ValueError, match="disagree on hbar"):
            evolve_lindblad(coherent_grid(), HARMONIC,
                            DiffusionSpec(d, d, 0.5), 1.0, 0.01)


@pytest.fixture(scope="module")
def unitary_512():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.normal(size=(512, 512))
                        + 1j * rng.normal(size=(512, 512)))
    return q


def spectral_grid(u, lam_min):
    """512-point grid state whose rho dx = u diag(lam) u^+ has smallest
    eigenvalue lam_min and trace 1; Hermitian exactly."""
    x = np.linspace(-12.0, 12.0, 512, endpoint=False)
    dx = x[1] - x[0]
    lam = np.random.default_rng(10).uniform(0.5, 1.5, 512)
    lam *= (1.0 - lam_min) / lam[1:].sum()
    lam[0] = lam_min
    rho = (u * lam) @ u.conj().T / dx
    return DensityMatrixGrid(x, 0.5 * (rho + rho.conj().T), 1.0)


def decohered_grid(lam_min=0.0):
    """512-point grid state rho(x, x') = d(x) exp(-2 (x - x')^2) d*(x'),
    a Schur product of PSD kernels, whose far coherences are subnormal;
    with lam_min < 0 the diagonal is shifted so that rho dx has smallest
    eigenvalue lam_min and trace 1.  Hermitian exactly."""
    x = np.linspace(-12.0, 12.0, 512, endpoint=False)
    dx = x[1] - x[0]
    d = np.exp(-0.5 * x**2 + 1.3j * x)
    rho = d[:, None] * np.exp(-2.0 * (x[:, None] - x[None, :]) ** 2) \
        * d.conj()[None, :]
    rho /= np.trace(rho).real * dx
    if lam_min < 0.0:
        s = -lam_min / (1.0 - lam_min * x.size)
        rho = (rho - s / dx * np.eye(x.size)) / (1.0 - s * x.size)
    return DensityMatrixGrid(x, 0.5 * (rho + rho.conj().T), 1.0)


def subnormal_parts(a):
    parts = np.abs(np.stack([a.real, a.imag]))
    return np.count_nonzero((parts > 0.0) & (parts < np.finfo(float).tiny))


class TestPositivityCheck:
    def test_rejects_eigenvalue_below_tolerance(self, unitary_512):
        g = spectral_grid(unitary_512, -3e-6)
        assert g.min_eigenvalue() == pytest.approx(-3e-6, rel=1e-6)
        with pytest.raises(RuntimeError, match=r"lost positivity: min "
                                               r"eigenvalue -3e-06$"):
            g.check_invariants()

    def test_accepts_eigenvalue_within_tolerance(self, unitary_512):
        g = spectral_grid(unitary_512, -5e-7)
        assert g.min_eigenvalue() == pytest.approx(-5e-7, rel=1e-6)
        g.check_invariants()

    def test_accepts_rank_one(self, unitary_512):
        x = np.linspace(-12.0, 12.0, 512, endpoint=False)
        psi = unitary_512[:, 3] / np.sqrt(x[1] - x[0])
        DensityMatrixGrid(x, np.outer(psi, psi.conj()), 1.0).check_invariants()

    @pytest.mark.parametrize("lam_min", [-3e-6, 1e-4])
    def test_leaves_rho_untouched(self, unitary_512, lam_min):
        g = spectral_grid(unitary_512, lam_min)
        before = g.rho.copy()
        try:
            g.check_invariants()
        except RuntimeError:
            pass
        assert g.rho.tobytes() == before.tobytes()

    def test_pass_path_computes_no_eigenvalues(self, unitary_512,
                                               monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("eigvalsh on the pass path")

        g = spectral_grid(unitary_512, 1e-4)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        g.check_invariants()

    def test_subnormal_coherences_flushed_in_the_copy(self, monkeypatch):
        factored = []

        def spy(a, **kwargs):
            factored.append(subnormal_parts(a))
            return zpotrf(a, **kwargs)

        monkeypatch.setattr(lindblad, "zpotrf", spy)
        good, bad = decohered_grid(), decohered_grid(-3e-6)
        assert bad.min_eigenvalue() == pytest.approx(-3e-6, rel=1e-6)
        before = [good.rho.copy(), bad.rho.copy()]
        assert min(subnormal_parts(b) for b in before) > 4000
        good.check_invariants()
        with pytest.raises(RuntimeError, match=r"lost positivity: min "
                                               r"eigenvalue -3e-06$"):
            bad.check_invariants()
        assert factored == [0, 0]
        for g, b in zip((good, bad), before):
            assert g.rho.tobytes() == b.tobytes()

    @pytest.mark.parametrize("i, j", [(2, 5), (3, 3)])
    def test_nan_entry_fails_the_checks(self, i, j):
        # an off-diagonal pair or a diagonal entry; every comparison with
        # NaN is False, so a check written as "defect > tol" would pass it
        x = np.linspace(-1.0, 1.0, 8, endpoint=False)
        rho = np.eye(8, dtype=complex) / (8 * (x[1] - x[0]))
        rho[i, j] = rho[j, i] = np.nan
        with pytest.raises(RuntimeError):
            DensityMatrixGrid(x, rho, 1.0).check_invariants()

    def test_indefinite_noiseless_run_aborts_at_first_snapshot(self):
        # trace 1 but eigenvalues near 1.5 and -0.5; not rank-1, so the
        # noiseless run takes the density path and its checks
        g1 = coherent_grid(mean=(2.0, 0.0))
        g2 = coherent_grid(mean=(-2.0, 0.0))
        rho0 = DensityMatrixGrid(g1.x, 1.5 * g1.rho - 0.5 * g2.rho, 1.0)
        assert lindblad._pure_column(rho0, NO_DIFF) is None
        _, _, snap_steps = step_schedule(1.0, 0.01, [0.5, 1.0])
        with pytest.raises(RuntimeError,
                           match=rf"^step {min(snap_steps)}: density matrix "
                                 r"lost positivity"):
            evolve_lindblad(rho0, HARMONIC, NO_DIFF, 1.0, 0.01,
                            snapshot_times=[0.5, 1.0])


def random_grid(n, seed, defect=0.0):
    """n-point grid state with a random Hermitian rho, plus `defect`
    added to rho[-1, -2]."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a + a.conj().T
    rho[-1, -2] += defect
    return DensityMatrixGrid(np.linspace(-3.0, 3.0, n, endpoint=False),
                             rho, 1.0)


@pytest.mark.parametrize("n", [512, 100, 63])
def test_hermiticity_defect_is_the_dense_max(n):
    # the largest defect and its mirror sit in the last row block, a
    # partial one at n = 100 and n = 63; a smaller one in the first
    g = random_grid(n, n, defect=1e-3 + 2e-3j)
    g.rho[5, 7] += 1e-13
    dense = float(np.abs(g.rho - g.rho.conj().T).max())
    assert dense == pytest.approx(abs(1e-3 + 2e-3j))
    assert g.hermiticity_defect() == dense


def wigner_reference(grid):
    """The Wigner transform with g[i, j] = rho[i+j, i-j] gathered through
    clipped index arrays and the output ordered by argsort(p)."""
    n = grid.n
    rho = grid.rho
    idx = np.arange(n)
    j = np.fft.fftfreq(n, 1.0 / n).astype(int)[None, :]
    a = idx[:, None] + j
    b = idx[:, None] - j
    valid = (a >= 0) & (a < n) & (b >= 0) & (b < n)
    g = np.where(valid, rho[np.clip(a, 0, n - 1), np.clip(b, 0, n - 1)], 0.0)
    w = sfft.fft(g, axis=1).real * (grid.dx / (np.pi * grid.hbar))
    p = np.pi * grid.hbar / (n * grid.dx) * np.fft.fftfreq(n, 1.0 / n)
    order = np.argsort(p)
    return p[order], np.ascontiguousarray(w[:, order])


class TestWigner:
    @pytest.mark.parametrize("n", [512, 64, 63])
    def test_diagonal_gather_matches_reference(self, n):
        g = random_grid(n, 100 + n)
        w = wigner_transform_grid(g)
        p, values = wigner_reference(g)
        assert w.p.tobytes() == p.tobytes()
        assert w.values.tobytes() == values.tobytes()

    def test_gaussian_matches_analytic(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.34]])
        g = gaussian_to_grid(GaussianState([0.5, -0.2], cov, 1.0),
                             256, -12.0, 12.0)
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
        g = DensityMatrixGrid(x, np.outer(psi, psi.conj()), 1.0)
        w = wigner_transform_grid(g)
        assert w.values.min() < -0.1 * w.values.max()
        # fringes live at the midpoint between the two packets
        mid = np.argmin(np.abs(x))
        assert np.abs(w.values[mid]).max() > 0.1 * w.values.max()

    def test_weyl_trace_formula(self):
        cov = np.array([[0.8, 0.2], [0.2, (0.25 + 0.04) / 0.8]])
        g = gaussian_to_grid(GaussianState([0.3, 0.1], cov, 1.0),
                             256, -12.0, 12.0)
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


def evolve_density_reference(rho0, model, diffusion, t_final, dt,
                             snapshot_times=None):
    """The density split loop with the ket/bra momentum pair taken as
    fft(ifft(., axis=1), axis=0) and undone by fft(ifft(., axis=0),
    axis=1); returns the snapshot matrices, t = 0 first, unchecked."""
    n_steps, dt, snap_steps = step_schedule(t_final, dt, snapshot_times)
    p = rho0.momentum
    mom = (-1j * (p[:, None] ** 2 - p[None, :] ** 2)
           / (2.0 * model.mass * rho0.hbar)
           - diffusion.d_x * (p[:, None] - p[None, :]) ** 2
           / (2.0 * rho0.hbar**2))
    half_pos = np.exp(lindblad._position_factor(rho0, model, diffusion)
                      * 0.5 * dt)
    full_mom = np.exp(mom * dt)
    rho = rho0.rho
    out = [rho.copy()]
    for i in range(1, n_steps + 1):
        rho_hat = sfft.fft(sfft.ifft(half_pos * rho, axis=1), axis=0)
        rho = half_pos * sfft.fft(sfft.ifft(full_mom * rho_hat, axis=0),
                                  axis=1)
        if i in snap_steps:
            out.append(rho)
    return out


def assert_matches_reference(traj, ref):
    assert len(traj) == len(ref)
    for (_, g), r in zip(traj, ref):
        assert np.abs(g.rho - r).max() <= 1e-12


def benchmark_experiment(name):
    """The experiment of a perfbench workload at its default seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return Experiment.from_config(
        parse_config(inputs.make_ini(name, inputs.default_seed(name))))


class TestPathsMatchReference:
    def test_wavefunction_path_harmonic_circle(self):
        g0 = coherent_grid(mean=(1.0, 0.0))
        period = 2.0 * np.pi
        args = (g0, HARMONIC, NO_DIFF, period, period / 4000)
        snaps = [period / 4, period]
        assert_matches_reference(
            evolve_lindblad(*args, snapshot_times=snaps),
            evolve_density_reference(*args, snapshot_times=snaps))

    def test_wavefunction_path_well_breakdown(self):
        exp = benchmark_experiment("well_breakdown")
        cfg = exp.cfg
        args = (exp.rho0(), exp.model, DiffusionSpec(0.0, 0.0, cfg.hbar),
                cfg.t_final, exp.dt_quantum)
        traj = evolve_lindblad(*args, snapshot_times=exp.snapshot_times,
                               edge_tol=cfg.edge_tol)
        assert_matches_reference(
            traj, evolve_density_reference(
                *args, snapshot_times=exp.snapshot_times))

    def test_raster_rho0_takes_the_wavefunction_path(self):
        exp = benchmark_experiment("well_breakdown")
        noiseless = DiffusionSpec(0.0, 0.0, exp.cfg.hbar)
        assert lindblad._pure_column(exp.rho0(), noiseless) is not None

    def test_fft2_density_step_with_diffusion(self):
        g0 = coherent_grid(mean=(1.0, -0.5))
        rho0 = g0.rho.copy()
        args = (g0, HARMONIC, DiffusionSpec(0.02, 0.05, 1.0), 1.0, 0.01)
        # comparing every snapshot after the run also shows that the
        # in-place step never overwrites a stored one, nor rho0
        assert_matches_reference(
            evolve_lindblad(*args, snapshot_times=[0.5, 1.0]),
            evolve_density_reference(*args, snapshot_times=[0.5, 1.0]))
        assert np.array_equal(g0.rho, rho0)

    def test_rank_two_noiseless_is_the_weighted_sum(self):
        # a mixed rho0 must take the density path even without diffusion;
        # the channel is linear, so it equals the weighted pure runs
        g1 = coherent_grid(mean=(1.0, 0.0))
        g2 = coherent_grid(mean=(-1.5, 0.5))
        w1, w2 = 0.3, 0.7
        mixed = DensityMatrixGrid(g1.x, w1 * g1.rho + w2 * g2.rho, 1.0)
        assert lindblad._pure_column(g1, NO_DIFF) is not None
        assert lindblad._pure_column(mixed, NO_DIFF) is None
        run = [evolve_lindblad(g, HARMONIC, NO_DIFF, 1.0, 0.01,
                               snapshot_times=[0.5, 1.0])
               for g in (mixed, g1, g2)]
        for (_, gm), (_, e1), (_, e2) in zip(*run):
            assert np.abs(gm.rho - (w1 * e1.rho + w2 * e2.rho)).max() \
                <= 1e-12


DIFFUSIVE = DiffusionSpec(0.02, 0.05, 1.0)


class TestRealDensityStep:
    """The density path steps s = Re rho + Im rho with real transforms;
    odd n has no Nyquist column, so the gather of rfft2(s)^T differs."""

    @pytest.mark.parametrize("n", [64, 63])
    @pytest.mark.parametrize("diff", [DIFFUSIVE, NO_DIFF],
                             ids=["diffusive", "noiseless-mixed"])
    def test_matches_reference(self, n, diff):
        g1 = coherent_grid(mean=(1.0, -0.5), n=n)
        g2 = coherent_grid(mean=(-1.5, 0.5), n=n)
        g0 = DensityMatrixGrid(g1.x, 0.3 * g1.rho + 0.7 * g2.rho, 1.0)
        args = (g0, HARMONIC, diff, 1.0, 0.01)
        snaps = [0.25, 0.5, 1.0]
        traj = evolve_lindblad(*args, snapshot_times=snaps)
        assert_matches_reference(
            traj, evolve_density_reference(*args, snapshot_times=snaps))
        assert [g.hermiticity_defect() for _, g in traj[1:]] == [0.0] * 3

    @pytest.mark.parametrize("n", [64, 63])
    def test_steps_on_a_random_hermitian_rho(self, n):
        # a random rho fills every frequency, the Nyquist row and column
        # included, which a smooth state leaves at round-off
        g = random_grid(n, n)
        s = g.rho.real + g.rho.imag
        dt = 0.01
        mom = np.exp(lindblad._momentum_factor(g, HARMONIC, DIFFUSIVE) * dt)
        mix = lindblad._momentum_mix(g, HARMONIC, DIFFUSIVE, dt)
        buffers = np.empty_like(mix[0]), np.empty_like(mix[0])
        step = np.empty_like(s)
        lindblad._momentum_step(s, mix, buffers, out=step)
        assert np.abs(lindblad._hermitian(step)
                      - sfft.ifft2(mom * sfft.fft2(g.rho))).max() \
            <= 1e-12 * np.abs(g.rho).max()
        pos = np.exp(lindblad._position_factor(g, HARMONIC, DIFFUSIVE) * dt)
        lindblad._position_step(s, pos, out=step)
        assert np.abs(lindblad._hermitian(step) - pos * g.rho).max() \
            <= 1e-12 * np.abs(g.rho).max()

    @pytest.mark.parametrize("n", [64, 63])
    def test_resume_from_any_snapshot_is_exact(self, n):
        # dt = 2^-7 divides every remaining time exactly, so a resumed run
        # takes the unbroken run's step.  Each snapshot segment starts
        # from s rebuilt from the snapshot and applies the half position
        # factor at both ends, so the resumed run's segments are the
        # remaining ones
        g0 = coherent_grid(mean=(1.0, -0.5), n=n)
        dt = 2.0**-7
        snaps = [0.25, 0.5, 0.75, 1.0]
        traj = evolve_lindblad(g0, HARMONIC, DIFFUSIVE, 1.0, dt,
                               snapshot_times=snaps)
        for k, (t, g) in enumerate(traj[1:-1], start=1):
            again = evolve_lindblad(g, HARMONIC, DIFFUSIVE, 1.0 - t, dt,
                                    snapshot_times=[u - t for u in snaps
                                                    if u > t])
            assert [u + t for u, _ in again] == [u for u, _ in traj[k:]]
            for (_, a), (_, b) in zip(again, traj[k:]):
                assert np.array_equal(a.rho, b.rho)

    @pytest.mark.parametrize("diff", [DIFFUSIVE, NO_DIFF],
                             ids=["diffusive", "noiseless"])
    def test_non_hermitian_rho0_refused(self, diff):
        # s keeps only a Hermitian rho, so the defect would be dropped
        with pytest.raises(ValueError,
                           match=r"^rho0 is not Hermitian: defect 0\.001 "):
            evolve_lindblad(random_grid(64, 5, defect=1e-3), HARMONIC, diff,
                            0.1, 0.01)
