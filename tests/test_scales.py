import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasemix.potentials import (
    Cosine,
    DoubleWell,
    HamiltonianModel,
    Harmonic,
)
from phasemix.scales import (
    DiffusionSpec,
    ThresholdError,
    compute_scales,
    diffusion_threshold,
    ehrenfest_time,
    physical_example_time,
    step_schedule,
    theorem_epsilon,
)

HBAR_SI = 1.055e-34


def _model_harmonic():
    return HamiltonianModel(1.0, Harmonic(1.0), (-10.0, 10.0))


def _model_pendulum():
    return HamiltonianModel(1.0, Cosine(1.0, 1.0), (-np.pi, np.pi))


def _model_quartic():
    # V = x^4/4 on |x|<=2: sup|V''| = 12, sup|V'''| = 12
    return HamiltonianModel(1.0, DoubleWell(0.25, 0.0), (-2.0, 2.0))


class TestComputeScales:
    def test_harmonic_flags(self):
        rep = compute_scales(_model_harmonic(), DiffusionSpec(0.0, 0.1, 1.0))
        assert rep.tau_H == 1.0 and rep.a_H == 1.0
        assert rep.harmonic and math.isinf(rep.s_H)
        assert rep.d0 == 0.0

    def test_pendulum_unit_scales(self):
        rep = compute_scales(_model_pendulum(), DiffusionSpec(0.0, 0.0, 0.01))
        assert rep.tau_H == pytest.approx(1.0)
        assert rep.a_H == pytest.approx(1.0)
        assert rep.s_H == pytest.approx(1.0)
        assert rep.x_H == pytest.approx(1.0)
        assert rep.p_H == pytest.approx(1.0)
        assert rep.d0 == 0.0
        assert rep.z_infinite

    def test_quartic_scales(self):
        rep = compute_scales(_model_quartic(), DiffusionSpec(0.1, 0.1, 1.0))
        assert rep.tau_H == pytest.approx(12.0 ** -0.5, rel=1e-14)
        assert rep.a_H == pytest.approx(12.0 ** 0.5, rel=1e-14)
        # 12^(5/2)/144 = sqrt(12)
        assert rep.s_H == pytest.approx(math.sqrt(12.0), rel=1e-14)

    def test_sigma_star_diagonal(self):
        rep = compute_scales(_model_quartic(), DiffusionSpec(0.1, 0.1, 1.0))
        assert rep.sigma_star[0, 0] == pytest.approx(0.5 / rep.a_H)
        assert rep.sigma_star[1, 1] == pytest.approx(0.5 * rep.a_H)

    def test_d0_is_min_of_two_rates(self):
        model = _model_quartic()
        rep = compute_scales(model, DiffusionSpec(0.3, 0.2, 1.0))
        rate_x = 0.3 / (rep.x_H**2 / rep.tau_H)
        rate_p = 0.2 / (rep.p_H**2 / rep.tau_H)
        assert rep.d0 == pytest.approx(min(rate_x, rate_p), rel=1e-12)

    def test_z_definition(self):
        model = _model_quartic()
        weak = compute_scales(model, DiffusionSpec(1e-6, 1e-6, 1.0))
        assert weak.z == pytest.approx((weak.hbar / weak.s_H) / weak.d0,
                                       rel=1e-12)
        strong = compute_scales(model, DiffusionSpec(100.0, 100.0, 1.0))
        assert strong.z == 1.0

    def test_m_rate_finite_for_harmonic(self):
        rep = compute_scales(_model_harmonic(), DiffusionSpec(0.2, 0.3, 1.0))
        assert rep.m_rate == pytest.approx(min(0.2 * rep.a_H, 0.3 / rep.a_H))

    @given(m=st.floats(0.1, 10.0), a=st.floats(0.1, 2.0),
           dx=st.floats(1e-6, 1.0), dp=st.floats(1e-6, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, m, a, dx, dp):
        model = HamiltonianModel(m, DoubleWell(a, 1.0), (-2.0, 2.0))
        rep = compute_scales(model, DiffusionSpec(dx, dp, 1.0))
        assert rep.tau_H * rep.a_H == pytest.approx(m, rel=1e-12)
        assert rep.s_H == pytest.approx(
            rep.a_H**3 / (rep.tau_H**2 * model.sup3**2), rel=1e-12)
        assert rep.x_H * rep.p_H == pytest.approx(rep.s_H, rel=1e-12)
        assert rep.z >= 1.0


class TestTheoremEpsilon:
    def _report(self, hbar_over_s, d0):
        model = _model_pendulum()
        # pendulum has s_H = 1, so hbar = hbar_over_s directly; pick D_x
        # huge so that D_p alone fixes the drive and D0 = D_p
        rep = compute_scales(model, DiffusionSpec(1e9, d0, hbar_over_s))
        assert rep.d0 == pytest.approx(d0, rel=1e-12)
        return rep

    def test_substitution_at_strong_diffusion(self):
        rep = self._report(1e-4, 1e-2)
        assert rep.z == 1.0
        assert theorem_epsilon(rep, rep.tau_H) == pytest.approx(1e-2,
                                                                   rel=1e-12)

    def test_weak_diffusion_scaling(self):
        # halving D0 below hbar/s_H scales epsilon by 2^(3/2)
        e1 = theorem_epsilon(self._report(1e-4, 0.5e-4), 1.0)
        e2 = theorem_epsilon(self._report(1e-4, 0.25e-4), 1.0)
        assert e2 / e1 == pytest.approx(2.0**1.5, rel=1e-10)

    def test_zero_time(self):
        assert theorem_epsilon(self._report(1e-4, 1e-2), 0.0) == 0.0

    def test_harmonic_exact(self):
        rep = compute_scales(_model_harmonic(), DiffusionSpec(0.1, 0.1, 1.0))
        assert theorem_epsilon(rep, 5.0) == 0.0

    def test_no_diffusion_requires_cap(self):
        rep = compute_scales(_model_pendulum(), DiffusionSpec(0.0, 0.0, 1e-4))
        with pytest.raises(ValueError, match="z_cap"):
            theorem_epsilon(rep, 1.0)
        assert theorem_epsilon(rep, 1.0, z_cap=4.0) == pytest.approx(
            1e-2 * 8.0, rel=1e-12)

    @given(t1=st.floats(0.0, 10.0), t2=st.floats(0.0, 10.0),
           d01=st.floats(1e-8, 1.0), d02=st.floats(1e-8, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_t_and_d0(self, t1, t2, d01, d02):
        lo_t, hi_t = sorted([t1, t2])
        lo_d, hi_d = sorted([d01, d02])
        rep = self._report(1e-4, hi_d)
        assert (theorem_epsilon(rep, lo_t)
                <= theorem_epsilon(rep, hi_t) + 1e-15)
        assert (theorem_epsilon(self._report(1e-4, hi_d), 1.0)
                <= theorem_epsilon(self._report(1e-4, lo_d), 1.0) + 1e-15)


class TestThreshold:
    def _rep(self, hbar_over_s=1e-4):
        return compute_scales(_model_pendulum(),
                              DiffusionSpec(1e9, 1e-3, hbar_over_s))

    def test_round_trip(self):
        rep = self._rep()
        for eps in (0.3, 0.08, 0.051):
            d0_min = diffusion_threshold(rep, eps, 5.0 * rep.tau_H, 1)
            # re-evaluate the bound at exactly that diffusion strength
            rep2 = compute_scales(_model_pendulum(),
                                  DiffusionSpec(1e9, d0_min, rep.hbar))
            assert theorem_epsilon(rep2, 5.0 * rep.tau_H) == pytest.approx(
                eps, rel=1e-10)

    def test_floor_gives_hbar_over_s(self):
        rep = self._rep()
        floor = 1.0 * math.sqrt(rep.hbar / rep.s_H)
        assert diffusion_threshold(rep, floor, rep.tau_H, 1) == pytest.approx(
            rep.hbar / rep.s_H, rel=1e-12)

    def test_below_floor_rejected_with_floor(self):
        rep = self._rep()
        floor = math.sqrt(rep.hbar / rep.s_H)
        with pytest.raises(ThresholdError) as exc:
            diffusion_threshold(rep, 0.5 * floor, rep.tau_H, 1)
        assert exc.value.floor == pytest.approx(floor, rel=1e-12)

    def test_hbar_power_scaling(self):
        d1 = diffusion_threshold(self._rep(1e-4), 0.3, 1.0, 1)
        d2 = diffusion_threshold(self._rep(1e-6), 0.3, 1.0, 1)
        assert d1 / d2 == pytest.approx(100.0 ** (4.0 / 3.0), rel=1e-10)

    def test_time_power_scaling(self):
        rep = self._rep()
        d1 = diffusion_threshold(rep, 0.3, 1.0, 1)
        d2 = diffusion_threshold(rep, 0.3, 2.0, 1)
        assert d2 / d1 == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_harmonic_rejected(self):
        rep = compute_scales(_model_harmonic(), DiffusionSpec(0.1, 0.1, 1.0))
        with pytest.raises(ValueError, match="harmonic"):
            diffusion_threshold(rep, 0.1, 1.0, 1)


class TestHeadlineTimes:
    def test_ehrenfest_minute(self):
        t = ehrenfest_time(1.0, 1.0, 1.055e-34)
        assert abs(t - 78.0) < 1.0

    def test_sqrt_extension_order(self):
        t = math.sqrt(1.0 / 1.055e-34) / 1.0
        assert 1e16 < t < 1e18

    def test_log_e_exact(self):
        assert ehrenfest_time(2.0, math.e * 1.0e-30, 1.0e-30) == pytest.approx(0.5)

    def test_no_semiclassical_regime(self):
        with pytest.raises(ValueError):
            ehrenfest_time(1.0, 1e-35, 1e-34)

    def test_dust_grain_order(self):
        t = physical_example_time(1e-11, 1.0, 1.0, 1e25, 1.055e-34)
        assert 10**13.5 < t < 10**15.5
        # "three million years" order: 1e6-1e7 yr
        years = t / 3.15e7
        assert 1e5 < years < 1e8

    def test_rate_exponent(self):
        base = physical_example_time(1e-11, 1.0, 1.0, 1e25, 1.055e-34)
        assert physical_example_time(1e-11, 1.0, 1.0, 1e27, 1.055e-34) \
            == pytest.approx(1000.0 * base, rel=1e-12)

    def test_length_exponent(self):
        base = physical_example_time(1e-11, 1.0, 1.0, 1e25, 1.055e-34)
        assert physical_example_time(1e-11, 1.0, 0.1, 1e25, 1.055e-34) \
            == pytest.approx(base * 10.0**-4.5, rel=1e-12)


def test_diffusion_spec_validation():
    with pytest.raises(ValueError):
        DiffusionSpec(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        DiffusionSpec(0.1, 0.1, 0.0)
    mat = DiffusionSpec(0.25, 0.5, 1.0).matrix()
    assert np.array_equal(mat, np.diag([0.25, 0.5]))


@pytest.mark.parametrize("args", [(np.nan, 0.1, 1.0), (0.1, np.nan, 1.0),
                                  (0.1, 0.1, np.nan)])
def test_diffusion_spec_refuses_nan(args):
    with pytest.raises(ValueError):
        DiffusionSpec(*args)


def _well_scales():
    return compute_scales(HamiltonianModel(1.0, DoubleWell(1.0, 1.0),
                                           (-2.0, 2.0)),
                          DiffusionSpec(0.01, 0.01, 0.1))


@pytest.mark.parametrize("call, message", [
    (lambda: theorem_epsilon(_well_scales(), math.nan), "time"),
    (lambda: diffusion_threshold(_well_scales(), math.nan, 1.0, 1), "epsilon"),
    (lambda: diffusion_threshold(_well_scales(), 1.0, math.nan, 1), "time"),
    # a negative t used to come back as a complex number
    (lambda: diffusion_threshold(_well_scales(), 1.0, -1.0, 1), "time"),
    (lambda: ehrenfest_time(math.nan, 1.0, 0.1), "positive"),
    (lambda: physical_example_time(math.nan, 1.0, 1.0, 1.0, 1.0), "mass"),
    # GaussianState refuses an infinite hbar; so does the diffusion
    (lambda: DiffusionSpec(math.inf, 0.0, 1.0), "finite"),
    (lambda: DiffusionSpec(0.0, math.inf, 1.0), "finite"),
    (lambda: DiffusionSpec(0.0, 0.0, math.inf), "finite"),
], ids=["theorem_epsilon-t", "diffusion_threshold-epsilon",
        "diffusion_threshold-t", "diffusion_threshold-negative-t",
        "ehrenfest_time-lyapunov",
        "physical_example_time-mass", "DiffusionSpec-d_x",
        "DiffusionSpec-d_p", "DiffusionSpec-hbar"])
def test_scales_refuse_non_finite(call, message):
    # each range test is written `not x >= 0` / `not x > 0`, so that a NaN
    # fails it instead of coming back as a NaN result
    with pytest.raises(ValueError, match=message):
        call()


def test_diffusion_spec_hbar_has_no_default():
    # hbar sets every scale, so a missing one must not default to 1
    with pytest.raises(TypeError, match="hbar"):
        DiffusionSpec(0.1, 0.1)


class TestStepSchedule:
    def test_lands_on_every_snapshot_without_enlarging_dt(self):
        # 10 / 0.0185 = 540.5; 545 is the first count divisible by 5
        snaps = [2.0, 4.0, 6.0, 8.0, 10.0]
        n, dt, steps = step_schedule(10.0, 0.0185, snaps)
        assert n == 545
        assert dt == 10.0 / 545 <= 0.0185
        assert steps == {109, 218, 327, 436, 545}
        assert all(abs(k * dt - t) <= 1e-12 for k, t in
                   zip(sorted(steps), snaps))

    def test_whole_ratio_kept_despite_round_off(self):
        # 0.08 / 0.004 evaluates to 20.000000000000004
        assert step_schedule(0.08, 0.004)[:2] == (20, 0.004)
        assert step_schedule(1.0, 3.0) == (1, 1.0, {1})

    @pytest.mark.parametrize("dt", [-0.1, 0.0, math.nan])
    def test_step_not_positive_refused(self, dt):
        # unchecked, a negative dt would run one step of length t_final,
        # 0 would divide by zero and NaN would fail inside math.ceil
        with pytest.raises(ValueError, match="^step dt must be positive"):
            step_schedule(1.0, dt)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_not_positive_and_finite_refused(self, t_final):
        with pytest.raises(ValueError,
                           match="^t_final must be positive and finite"):
            step_schedule(t_final, 0.1)

    def test_unreachable_snapshot_rejected(self):
        with pytest.raises(ValueError, match="lands"):
            step_schedule(1.0, 0.1, [0.3333])
        with pytest.raises(ValueError, match="snapshot times"):
            step_schedule(1.0, 0.1, [0.5, 1.5])

    @pytest.mark.parametrize("snaps", [[math.nan, 0.5], [0.5, math.nan]],
                             ids=["nan-first", "nan-last"])
    def test_nan_snapshot_refused(self, snaps):
        # each time is tested before sorting; `sorted` does not order a NaN
        with pytest.raises(ValueError,
                           match=r"^snapshot times must lie in \[0, 1.0\]"):
            step_schedule(1.0, 0.1, snaps)
