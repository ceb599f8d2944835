import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from gaussian_lemmas import gaussian_pdf
from phasemix import _kernels
from phasemix.fokker_planck import (
    PhaseField,
    _cfl_limits,
    evolve_fokker_planck,
    gaussian_phase_field,
    l1_distance,
)
from phasemix.potentials import HamiltonianModel, Harmonic, hamiltonian_matrix
from phasemix.scales import DiffusionSpec

HARMONIC = HamiltonianModel(1.0, Harmonic(1.0), (-8.0, 8.0))
NO_DIFF = DiffusionSpec(0.0, 0.0, 1.0)


def grid(n=256, box=6.0):
    x = -box + 2.0 * box * (np.arange(n) + 0.5) / n
    return x, x.copy()


class TestPhaseField:
    def test_mass_and_marginals(self):
        x, p = grid(128)
        f = gaussian_phase_field([0.5, -0.3], 0.2 * np.eye(2), x, p)
        assert f.mass() == pytest.approx(1.0, abs=1e-9)
        f.assert_probability()

    def test_moments(self):
        x, p = grid(256)
        cov = np.array([[0.3, 0.08], [0.08, 0.2]])
        f = gaussian_phase_field([0.4, -0.2], cov, x, p)
        mean, got = f.moments()
        assert np.allclose(mean, [0.4, -0.2], atol=1e-6)
        assert np.allclose(got, cov, rtol=1e-4, atol=1e-7)

    def test_correlated_gaussian_matches_dense_pdf(self):
        x = np.linspace(-3.0, 3.5, 150)
        p = np.linspace(-2.5, 2.0, 120)
        mean = np.array([0.4, -0.3])
        cov = np.array([[0.5, 0.35], [0.35, 0.4]])
        xx, pp = np.meshgrid(x - mean[0], p - mean[1], indexing="ij")
        ref = gaussian_pdf(np.stack([xx, pp], axis=-1), cov)
        got = gaussian_phase_field(mean, cov, x, p).values
        assert np.abs(got - ref).max() <= 1e-14 * ref.max()

    @pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]],
                                     [[1.0, 1.0], [1.0, 1.0]],
                                     [[-1.0, 0.0], [0.0, -1.0]],
                                     [[1.0, 0.2], [0.1, 1.0]],
                                     [[np.nan, 0.0], [0.0, 1.0]]])
    def test_covariance_not_positive_definite_refused(self, cov):
        # a NaN entry is named as such, not as an asymmetry
        x, p = grid(32)
        message = ("symmetric|positive definite" if np.isfinite(cov).all()
                   else "^covariance must be finite$")
        with pytest.raises(ValueError, match=message):
            gaussian_phase_field([0.0, 0.0], cov, x, p)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PhaseField(np.arange(4.0), np.arange(5.0), np.zeros((5, 4)))

    def test_probability_violations(self):
        x, p = grid(64)
        f = PhaseField(x, p, np.full((64, 64), 1e-9))
        with pytest.raises(ValueError, match="mass"):
            f.assert_probability()
        # a NaN cell fails the checks, which a NaN comparison would pass
        x, p = grid(32)
        f = gaussian_phase_field([0.0, 0.0], 0.25 * np.eye(2), x, p)
        f.values[3, 3] = np.nan
        with pytest.raises(ValueError):
            f.assert_probability()


class TestL1Distance:
    def test_identical_zero(self):
        x, p = grid(64)
        f = gaussian_phase_field([0, 0], 0.3 * np.eye(2), x, p)
        assert l1_distance(f, f) == 0.0

    def test_disjoint_is_two(self):
        x, p = grid(256, box=8.0)
        f1 = gaussian_phase_field([4.0, 0.0], 0.1 * np.eye(2), x, p)
        f2 = gaussian_phase_field([-4.0, 0.0], 0.1 * np.eye(2), x, p)
        assert l1_distance(f1, f2) == pytest.approx(2.0, abs=1e-6)

    def test_grid_mismatch(self):
        x1, p1 = grid(64)
        x2, p2 = grid(128)
        f1 = gaussian_phase_field([0, 0], 0.3 * np.eye(2), x1, p1)
        f2 = gaussian_phase_field([0, 0], 0.3 * np.eye(2), x2, p2)
        with pytest.raises(ValueError):
            l1_distance(f1, f2)


def muscl_reference(vals, speeds, h, dt):
    """Column-wise MUSCL/van Leer step along axis 0 with zero-gradient
    ghost cells, written out whole-array; valid for |speeds dt / h| <= 1."""
    n = vals.shape[0]
    u = np.concatenate([vals[:1], vals[:1], vals, vals[-1:], vals[-1:]])
    d = np.diff(u, axis=0)
    dl, dr = d[:-1], d[1:]
    prod = dl * dr
    s = np.where(prod > 0.0, 2.0 * prod / (dl + dr + 1e-300), 0.0)
    c = speeds * dt / h
    f_pos = speeds * (u[1:n + 2] + 0.5 * (1.0 - c) * s[:n + 1])
    f_neg = speeds * (u[2:n + 3] - 0.5 * (1.0 + c) * s[1:n + 2])
    f = np.where(speeds >= 0.0, f_pos, f_neg)
    return vals - (dt / h) * (f[1:] - f[:-1])


def edge_shift(vals, k):
    """Shift every column by k cells along axis 0, the edge value flowing
    in."""
    idx = np.clip(np.arange(vals.shape[0]) - k, 0, vals.shape[0] - 1)
    return vals[idx]


def whole_run_reference(vals, speeds, h, dt):
    """Advection along axis 0 one run of lines (equal shift and sign) at a
    time: the edge shift in place, then `_muscl` on the whole run."""
    out = vals.copy()
    courant = speeds * (dt / h)
    shift = np.trunc(courant)
    frac = courant - shift
    key = np.stack([shift, frac >= 0.0])
    cuts = np.flatnonzero((key[:, 1:] != key[:, :-1]).any(axis=0)) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, speeds.size]):
        run = out[:, lo:hi]
        run[:] = edge_shift(run, int(shift[lo]))
        c = frac[lo:hi]
        if c.any():
            left = bool(c[0] >= 0.0)
            a = 0.5 * (1.0 - c) if left else -0.5 * (1.0 + c)
            _kernels._muscl(run, c, a, left)
    return out


class TestKernels:
    def field(self, n=40, m=30):
        rng = np.random.default_rng(5)
        return rng.random((n, m)) * (rng.random((n, m)) > 0.3)

    def test_below_courant_one_matches_muscl_reference(self):
        v = self.field()
        speeds = np.linspace(-0.9, 0.9, 30)
        speeds[10] = 0.0
        got = v.copy()
        _kernels.advect_x(got, speeds, 0.5, 0.5)
        assert np.abs(got - muscl_reference(v, speeds, 0.5, 0.5)).max() \
            < 1e-15
        speeds = np.linspace(0.9, -0.9, 40)
        got = v.copy()
        _kernels.advect_p(got, speeds, 0.5, 0.5)
        ref = muscl_reference(v.T, speeds, 0.5, 0.5).T
        assert np.abs(got - ref).max() < 1e-15

    def test_integer_courant_is_an_exact_shift(self):
        v = self.field()
        speeds = np.array([3.0, -2.0, 0.0, 45.0, -45.0] * 6)
        got = v.copy()
        _kernels.advect_x(got, speeds, 1.0, 1.0)
        for j, k in enumerate(speeds.astype(int)):
            ref = edge_shift(v[:, j:j + 1], k)[:, 0]
            assert np.array_equal(got[:, j], ref)

    def test_courant_above_one_is_shift_then_muscl(self):
        v = self.field()
        speeds = np.linspace(-3.7, 3.7, 30)
        got = v.copy()
        _kernels.advect_x(got, speeds, 1.0, 1.0)
        shift = np.trunc(speeds)
        for j, k in enumerate(shift.astype(int)):
            col = edge_shift(v[:, j:j + 1], k)
            ref = muscl_reference(col, speeds[j:j + 1] - shift[j], 1.0, 1.0)
            assert np.abs(got[:, j] - ref[:, 0]).max() < 1e-15
        assert got.min() >= 0.0

    def assert_blocked_equals_whole_run(self, n, speeds, widths):
        """advect_x and advect_p on n-cell lines equal the whole-run loop
        bit for bit; the first blocks hold `widths` lines."""
        blocks = _kernels._courant_runs(speeds, 1.0, 1.0, n)
        assert [sl.stop - sl.start for sl, *_ in blocks[:len(widths)]] \
            == widths
        v = self.field(n, speeds.size)
        ref = whole_run_reference(v, speeds, 1.0, 1.0)
        got = v.copy()
        _kernels.advect_x(got, speeds, 1.0, 1.0)
        assert np.array_equal(got, ref)
        got = v.T.copy()
        _kernels.advect_p(got, speeds, 1.0, 1.0)
        assert np.array_equal(got.T, ref)

    def test_blocked_advection_equals_whole_run_loop(self):
        # runs longer than a block of 8 lines, a partial last block, a run
        # at rest, zero speeds inside a moving run, |Courant| up to 3.7,
        # integer shifts and shifts of at least the line length
        n = _kernels.BLOCK // 8
        ramp = np.where(np.arange(12) % 3 == 0, 0.0, np.linspace(0.1, 0.9, 12))
        speeds = np.concatenate([
            np.linspace(-3.7, -3.1, 19), np.zeros(10),
            np.linspace(-0.9, -0.1, 12), ramp, np.full(9, 2.0),
            np.linspace(3.05, 3.7, 11), [n + 0.5, -n - 0.5, n, 0.25]])
        self.assert_blocked_equals_whole_run(n, speeds, [8, 8, 3])

    def test_lines_longer_than_a_block_advect_one_at_a_time(self):
        speeds = np.array([-3.7, 0.0, 0.0, 1.5, 2.0, 1e5 + 0.5, -0.25])
        self.assert_blocked_equals_whole_run(_kernels.BLOCK + 5, speeds,
                                             [1] * 7)

    def test_diffuse_is_the_neumann_heat_flow(self):
        n, m, rx, rp = 6, 5, 0.7, 2.3

        def laplacian(k):
            lap = np.diag(np.full(k - 1, 1.0), 1) + np.diag(
                np.full(k - 1, 1.0), -1) - 2.0 * np.eye(k)
            lap[0, 0] = lap[-1, -1] = -1.0
            return lap

        gen = rx * np.kron(laplacian(n), np.eye(m)) \
            + rp * np.kron(np.eye(n), laplacian(m))
        v = self.field(n, m)
        got = v.copy()
        _kernels.diffuse(got, rx, rp)
        ref = (expm(gen) @ v.ravel()).reshape(n, m)
        assert np.abs(got - ref).max() < 1e-13
        assert got.sum() == pytest.approx(v.sum(), rel=1e-13)


class TestCFL:
    def test_advection_beyond_courant_one_rotates_rigidly(self):
        # dt = 1 is 64 x the advection CFL step.  One Strang step of the
        # harmonic flow at dt = 1 is the linear map M = P(1/2) X(1) P(1/2),
        # trace 1 and det 1: a rotation by pi/3 in its own coordinates,
        # so M^3 = -I and M^6 = I
        x, p = grid(128)
        f = gaussian_phase_field([1.5, 0.0], 0.3 * np.eye(2), x, p)
        assert 1.0 > 60.0 * _cfl_limits(f, HARMONIC, NO_DIFF)[0]
        traj = evolve_fokker_planck(f, HARMONIC, NO_DIFF, 6.0, 1.0,
                                    snapshot_times=[1.0, 3.0, 6.0])
        assert [t for t, _ in traj] == [0.0, 1.0, 3.0, 6.0]
        m = np.array([[0.5, 1.0], [-0.75, 0.5]])
        for (t, ff), power in zip(traj[1:], (1, 3, 6)):
            assert abs(ff.mass() - 1.0) < 1e-9
            assert ff.values.min() >= -1e-12
            mp = np.linalg.matrix_power(m, power)
            mean, cov = ff.moments()
            assert np.abs(mean - mp @ [1.5, 0.0]).max() < 0.01
            assert np.abs(cov - 0.3 * mp @ mp.T).max() < 0.02
        assert l1_distance(traj[-1][1], f) < 0.05

    def test_diffusion_beyond_explicit_limit_grows_variance(self):
        # dt = 0.05 is about 6 x the explicit diffusion step on this grid
        x, p = grid(128)
        f = gaussian_phase_field([0, 0], 0.3 * np.eye(2), x, p)
        heavy = HamiltonianModel(1e12, Harmonic(1e-10), (-8.0, 8.0))
        diff = DiffusionSpec(1.0, 1.0, 1.0)
        assert 0.05 > 5.0 * _cfl_limits(f, heavy, diff)[1]
        _, ff = evolve_fokker_planck(f, heavy, diff, 1.0, 0.05)[-1]
        _, cov = ff.moments()
        assert cov[0, 0] == pytest.approx(0.3 + 1.0, rel=0.01)
        assert cov[1, 1] == pytest.approx(0.3 + 1.0, rel=0.01)
        assert abs(ff.mass() - 1.0) < 1e-9
        assert ff.values.min() >= 0.0

    def test_effective_step_never_exceeds_requested(self, monkeypatch):
        # t_final / dt = 10.4 just under the advection limit: rounding to
        # 10 steps would run at Courant number 1.04
        x, p = grid(128)
        f = gaussian_phase_field([0, 0], 0.3 * np.eye(2), x, p)
        dt = 0.999 * _cfl_limits(f, HARMONIC, NO_DIFF)[0]
        half_steps = []
        advect_x = _kernels.advect_x

        def spy(vals, speeds, h, dt):
            half_steps.append(dt)
            advect_x(vals, speeds, h, dt)

        monkeypatch.setattr(_kernels, "advect_x", spy)
        evolve_fokker_planck(f, HARMONIC, NO_DIFF, 10.4 * dt, dt)
        assert len(half_steps) == 2 * 11
        assert 2.0 * max(half_steps) <= dt


class TestSolver:
    def test_harmonic_rigid_rotation(self):
        x, p = grid(256, box=5.0)
        f0 = gaussian_phase_field([1.5, 0.0], 0.35 * np.eye(2), x, p)
        period = 2.0 * np.pi
        traj = evolve_fokker_planck(f0, HARMONIC, NO_DIFF, period, 0.006,
                                    snapshot_times=[period / 4, period])
        _, fq = traj[1]
        mean_q, _ = fq.moments()
        assert np.abs(mean_q - [0.0, -1.5]).max() < 0.01
        _, ff = traj[2]
        assert l1_distance(ff, f0) < 0.01
        assert abs(ff.mass() - 1.0) < 1e-6

    def test_matched_gaussian_stationary(self):
        x, p = grid(256)
        f0 = gaussian_phase_field([0.0, 0.0], 0.25 * np.eye(2), x, p)
        period = 2.0 * np.pi
        _, ff = evolve_fokker_planck(f0, HARMONIC, NO_DIFF, period, 0.004)[-1]
        assert l1_distance(ff, f0) < 0.01

    def test_free_streaming_shear(self):
        x, p = grid(256)
        weak = HamiltonianModel(1.0, Harmonic(1e-9), (-8.0, 8.0))
        f0 = gaussian_phase_field([0.0, 0.0], 0.2 * np.eye(2), x, p)
        t = 1.0
        _, ff = evolve_fokker_planck(f0, weak, NO_DIFF, t, 0.004)[-1]
        # characteristics: f(x, p, t) = f0(x - p t / m, p)
        xx, pp = np.meshgrid(x, p, indexing="ij")
        shift = np.stack([xx - pp * t, pp], axis=-1)
        ref = PhaseField(x, p, gaussian_pdf(shift, 0.2 * np.eye(2)))
        assert l1_distance(ff, ref) < 0.01

    def test_pure_diffusion_variance_growth(self):
        x, p = grid(128, box=4.0)
        frozen = HamiltonianModel(1e12, Harmonic(1e-10), (-8.0, 8.0))
        diff = DiffusionSpec(0.05, 0.08, 1.0)
        f0 = gaussian_phase_field([0.0, 0.0], 0.25 * np.eye(2), x, p)
        t = 1.0
        _, ff = evolve_fokker_planck(f0, frozen, diff, t, 0.005)[-1]
        _, cov = ff.moments()
        assert cov[0, 0] == pytest.approx(0.25 + 0.05 * t, rel=0.01)
        assert cov[1, 1] == pytest.approx(0.25 + 0.08 * t, rel=0.01)

    def test_harmonic_diffusion_covariance_oracle(self):
        x, p = grid(256)
        cov0 = np.array([[0.3, 0.05], [0.05, 0.25]])
        diff = DiffusionSpec(0.03, 0.05, 1.0)
        f0 = gaussian_phase_field([0.5, 0.0], cov0, x, p)
        t = 0.8
        _, ff = evolve_fokker_planck(f0, HARMONIC, diff, t, 0.004)[-1]
        fmat = hamiltonian_matrix(HARMONIC, [0.0, 0.0])
        d = diff.matrix()
        sol = solve_ivp(
            lambda _, y: (fmat @ y.reshape(2, 2)
                          + y.reshape(2, 2) @ fmat.T + d).ravel(),
            [0, t], cov0.ravel(), rtol=1e-10).y[:, -1].reshape(2, 2)
        _, cov_t = ff.moments()
        assert np.abs(cov_t - sol).max() < 0.01 * np.abs(sol).max()

    def test_equal_diffusion_at_explicit_limit_stays_bounded(self):
        # rx = rp = 0.36, 0.8 x the per-axis explicit limit: a two-axis
        # forward-Euler update needs rx + rp <= 1/2 and grew without
        # bound here while the mass still read 1
        x, p = grid(128, box=4.0)
        frozen = HamiltonianModel(1e12, Harmonic(1e-10), (-8.0, 8.0))
        diff = DiffusionSpec(0.05, 0.05, 1.0)
        f0 = gaussian_phase_field([0.0, 0.0], 0.25 * np.eye(2), x, p)
        dt = 0.056
        assert 0.5 * 0.05 * dt / f0.dx**2 == pytest.approx(0.3584)
        assert dt == pytest.approx(0.8 * _cfl_limits(f0, frozen, diff)[1],
                                   rel=0.01)
        t = 6.0
        _, ff = evolve_fokker_planck(f0, frozen, diff, t, dt)[-1]
        assert ff.values.min() >= 0.0
        assert ff.values.max() <= f0.values.max()
        _, cov = ff.moments()
        assert cov[0, 0] == pytest.approx(0.25 + 0.05 * t, rel=0.01)
        assert cov[1, 1] == pytest.approx(0.25 + 0.05 * t, rel=0.01)

    def test_mass_leak_aborts(self):
        x, p = grid(128, box=2.0)
        f0 = gaussian_phase_field([0.0, 1.0], 0.2 * np.eye(2), x, p)
        weak = HamiltonianModel(1.0, Harmonic(1e-9), (-8.0, 8.0))
        with pytest.raises(RuntimeError, match="leak"):
            evolve_fokker_planck(f0, weak, NO_DIFF, 3.0, 0.005)

    def test_nan_cell_aborts_at_step_one(self):
        x, p = grid(32)
        f0 = gaussian_phase_field([0.0, 0.0], 0.25 * np.eye(2), x, p)
        f0.values[5, 7] = np.nan
        with pytest.raises(RuntimeError, match="step 1: boundary mass leak"):
            evolve_fokker_planck(f0, HARMONIC, NO_DIFF, 0.1, 0.01)

    @pytest.mark.parametrize("poisoned, aborted", [(3, 3), (4, 5)])
    def test_undershoot_aborts_at_the_next_snapshot(self, monkeypatch,
                                                    poisoned, aborted):
        # the field's minimum is read at snapshots (steps 3, 5 and 10)
        diffuse, calls = _kernels.diffuse, []

        def poison(vals, rx, rp):
            diffuse(vals, rx, rp)
            calls.append(None)
            if len(calls) == poisoned:
                vals[4, 28] = -1e-5     # far from the packet, inside the box
        monkeypatch.setattr(_kernels, "diffuse", poison)
        x, p = grid(32)
        f0 = gaussian_phase_field([0.0, 0.0], 0.25 * np.eye(2), x, p)
        with pytest.raises(RuntimeError,
                           match=f"step {aborted}: field undershoots to"):
            evolve_fokker_planck(f0, HARMONIC, NO_DIFF, 0.1, 0.01,
                                 snapshot_times=[0.03, 0.05, 0.1])

    def test_positivity_tolerance(self):
        x, p = grid(256)
        f0 = gaussian_phase_field([2.0, 0.0], 0.25 * np.eye(2), x, p)
        _, ff = evolve_fokker_planck(f0, HARMONIC, NO_DIFF, 1.0, 0.004)[-1]
        assert ff.values.min() >= -1e-9
