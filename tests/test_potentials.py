import numpy as np
import pytest

from gaussian_lemmas import symplectic_form
from phasemix.harmonic_error import _taylor_residual
from phasemix.potentials import (
    Cosine,
    CubicHarmonic,
    DoubleWell,
    HamiltonianModel,
    Harmonic,
    hamiltonian_matrix,
    make_potential,
)

ALL_MODELS = [
    HamiltonianModel(1.0, Harmonic(1.0), (-10.0, 10.0)),
    HamiltonianModel(1.0, DoubleWell(1.0, 1.0), (-2.0, 2.0)),
    HamiltonianModel(2.0, Cosine(1.0, 1.0), (-np.pi, np.pi)),
    HamiltonianModel(1.0, CubicHarmonic(0.2), (-1.5, 1.5)),
]


def _fd(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2 * h)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m.potential).__name__)
def test_derivatives_match_finite_differences(model):
    pot = model.potential
    xs = np.linspace(model.domain[0] * 0.9, model.domain[1] * 0.9, 37)
    assert np.allclose(pot.grad(xs), _fd(pot.value, xs), atol=1e-8, rtol=1e-6)
    assert np.allclose(pot.hess(xs), _fd(pot.grad, xs), atol=1e-8, rtol=1e-6)
    assert np.allclose(pot.third(xs), _fd(pot.hess, xs), atol=1e-7, rtol=1e-6)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m.potential).__name__)
def test_sup_bounds_match_dense_sampling(model):
    pot = model.potential
    xs = np.linspace(*model.domain, 20001)
    assert model.sup2 >= np.abs(pot.hess(xs)).max() * (1 - 1e-9)
    assert model.sup2 <= np.abs(pot.hess(xs)).max() * 1.01
    dense3 = np.abs(pot.third(xs)).max()
    assert model.sup3 >= dense3 * (1 - 1e-9)
    if dense3 > 0:
        assert model.sup3 <= dense3 * 1.01


class TestExpansion:
    # `_taylor_residual` returns V - V_quad and V' - V_quad' for the
    # second-order Taylor expansion V_quad about a base point
    def test_quadratic_potential_reproduced_everywhere(self):
        model = ALL_MODELS[0]
        xs = np.linspace(-9, 9, 50)
        dv, dg = _taylor_residual(model, 2.5, xs)
        assert np.abs(dv).max() <= 1e-12
        assert np.abs(dg).max() <= 1e-12

    def test_quartic_expansion_values(self):
        # V = x^4 (DoubleWell with b=0 is a*x^4); use a=0.25 for x^4/4.
        # About 1, V_quad = 1/4 + (x-1) + 3/2 (x-1)^2, so with d = x - 1 the
        # residuals are d^3 + d^4/4 and 3 d^2 + d^3; three points pin the
        # value, gradient and hessian of the expansion
        model = HamiltonianModel(1.0, DoubleWell(0.25, 0.0), (-2.0, 2.0))
        dv, dg = _taylor_residual(model, 1.0, np.array([0.0, 1.0, 2.0]))
        assert dv == pytest.approx([-0.75, 0.0, 1.25], abs=1e-12)
        assert dg == pytest.approx([2.0, 0.0, 4.0], abs=1e-12)

    def test_cosine_expansion_at_origin(self):
        # V = -cos x about 0: V_quad = -1 + x^2/2
        model = ALL_MODELS[2]
        xs = np.array([-np.pi / 2, np.pi / 2, np.pi])
        dv, dg = _taylor_residual(model, 0.0, xs)
        assert dv == pytest.approx(1.0 - xs**2 / 2.0 - np.cos(xs), abs=1e-12)
        assert dg == pytest.approx(np.sin(xs) - xs, abs=1e-12)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="outside domain"):
            _taylor_residual(ALL_MODELS[1], 5.0, np.zeros(3))


class TestRemainder:
    # sup|V'''| |dx|^3 / 6 bounds the quadratic-expansion error
    def test_quadratic_zero(self):
        assert ALL_MODELS[0].sup3 == 0.0

    def test_quartic_dominates(self):
        model = HamiltonianModel(1.0, DoubleWell(0.25, 0.0), (-2.0, 2.0))
        # remainder of x^4/4 about 0 at dx=1 is 1/4; bound is 12/6 = 2
        assert model.sup3 / 6.0 == pytest.approx(2.0)

    @pytest.mark.parametrize("model", ALL_MODELS[1:],
                             ids=lambda m: type(m.potential).__name__)
    def test_dominates_true_remainder(self, model):
        rng = np.random.default_rng(5)
        lo, hi = model.domain
        for _ in range(10_000):
            a = rng.uniform(lo, hi)
            dx = rng.uniform(lo - a, hi - a)
            true = abs(float(_taylor_residual(model, a, a + dx)[0]))
            bound = model.sup3 * abs(dx) ** 3 / 6.0
            assert true <= bound * (1 + 1e-9) + 1e-12


class TestFlowAndF:
    def test_harmonic_matrix_and_whitened_norm(self):
        model = ALL_MODELS[0]
        f = hamiltonian_matrix(model, [1.0, 0.0])
        assert np.allclose(f, [[0.0, 1.0], [-1.0, 0.0]])
        # whitened by sigma*^(1/2): operator norm is exactly 1/tau_H = 1
        w = np.diag([1.0, 1.0])  # a_H = 1 here
        assert np.linalg.norm(w @ f @ np.linalg.inv(w), 2) == pytest.approx(1.0)

    def test_quartic_at_origin_kinetic_block_only(self):
        model = HamiltonianModel(1.0, DoubleWell(0.25, 0.0), (-2.0, 2.0))
        f = hamiltonian_matrix(model, [0.0, 0.5])
        assert f[1, 0] == 0.0
        assert f[0, 1] == 1.0

    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: type(m.potential).__name__)
    def test_f_is_hamiltonian_matrix(self, model):
        omega = symplectic_form(1)
        rng = np.random.default_rng(9)
        alphas = np.column_stack([rng.uniform(*model.domain, 50),
                                  rng.normal(size=50)])
        for alpha in alphas:
            f = hamiltonian_matrix(model, alpha)
            assert np.abs(f.T @ omega + omega @ f).max() < 1e-14
        # a stack of centres gives the per-centre matrices bit for bit
        stack = hamiltonian_matrix(model, alphas.reshape(5, 10, 2))
        assert np.array_equal(stack.reshape(50, 2, 2),
                              [hamiltonian_matrix(model, a) for a in alphas])

    @pytest.mark.parametrize("model", ALL_MODELS,
                             ids=lambda m: type(m.potential).__name__)
    def test_whitened_norm_bounded_by_inverse_tau(self, model):
        a_H = np.sqrt(model.mass * model.sup2)
        tau = np.sqrt(model.mass / model.sup2)
        w = np.diag([np.sqrt(a_H), 1 / np.sqrt(a_H)])
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.uniform(*model.domain)
            f = hamiltonian_matrix(model, [x, 0.0])
            norm = np.linalg.norm(w @ f @ np.linalg.inv(w), 2)
            assert norm <= (1.0 / tau) * (1 + 1e-12)


def test_make_potential_by_name():
    pot = make_potential("double_well", (0.5, 1.5))
    assert isinstance(pot, DoubleWell)
    with pytest.raises(ValueError, match="unknown potential"):
        make_potential("morse", (1.0,))


def test_model_invariants():
    with pytest.raises(ValueError):
        HamiltonianModel(-1.0, Harmonic(1.0), (-1, 1))
    with pytest.raises(ValueError):
        HamiltonianModel(1.0, Harmonic(1.0), (1, -1))
    # the domain sets the sup norms, so it has no default
    with pytest.raises(TypeError, match="domain"):
        HamiltonianModel(1.0, Harmonic(1.0))


def test_model_refuses_nan():
    with pytest.raises(ValueError, match="mass must be positive"):
        HamiltonianModel(np.nan, Harmonic(1.0), (-1, 1))
    with pytest.raises(ValueError, match="V''"):
        HamiltonianModel(1.0, Harmonic(np.nan), (-1, 1))


def test_potential_parameters_have_no_defaults():
    # make_potential passes every parameter, so none has a default
    for make in (Harmonic, lambda: DoubleWell(1.0), lambda: Cosine(1.0),
                 CubicHarmonic):
        with pytest.raises(TypeError, match="missing"):
            make()
