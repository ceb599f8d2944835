"""Built-in potentials, local quadratic expansions and linearized flow.

All built-ins are one dimensional with closed-form derivatives; the set
covers zero, constant and spatially varying third derivatives.  Potentials
are declared in configs by name plus a parameter list:

    harmonic k            -> V = k x^2 / 2
    double_well a b       -> V = a (x^2 - b^2)^2
    cosine v0 k           -> V = -v0 cos(k x)
    cubic_harmonic eps    -> V = x^2 / 2 + eps x^3
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Potential",
    "Harmonic",
    "DoubleWell",
    "Cosine",
    "CubicHarmonic",
    "make_potential",
    "POTENTIALS",
    "HamiltonianModel",
    "QuadraticExpansion",
    "harmonic_expansion",
    "taylor_remainder_bound",
    "flow_vector",
    "hamiltonian_matrix",
]


class Potential:
    """Interface: value/gradient/Hessian/third derivative plus sup bounds."""

    params: tuple

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError

    def third(self, x):
        raise NotImplementedError

    def sup_hess(self, lo: float, hi: float) -> float:
        """sup |V''| over [lo, hi] (analytic)."""
        raise NotImplementedError

    def sup_third(self, lo: float, hi: float) -> float:
        """sup |V'''| over [lo, hi] (analytic)."""
        raise NotImplementedError


@dataclass
class Harmonic(Potential):
    k: float = 1.0

    @property
    def params(self):
        return (self.k,)

    def value(self, x):
        return 0.5 * self.k * np.asarray(x) ** 2

    def grad(self, x):
        return self.k * np.asarray(x)

    def hess(self, x):
        return self.k * np.ones_like(np.asarray(x, dtype=float))

    def third(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def sup_hess(self, lo, hi):
        return abs(self.k)

    def sup_third(self, lo, hi):
        return 0.0


@dataclass
class DoubleWell(Potential):
    """Quartic double well a (x^2 - b^2)^2 with minima at +-b."""

    a: float = 1.0
    b: float = 1.0

    @property
    def params(self):
        return (self.a, self.b)

    def value(self, x):
        x = np.asarray(x)
        return self.a * (x**2 - self.b**2) ** 2

    def grad(self, x):
        x = np.asarray(x)
        return 4.0 * self.a * x * (x**2 - self.b**2)

    def hess(self, x):
        x = np.asarray(x)
        return 4.0 * self.a * (3.0 * x**2 - self.b**2)

    def third(self, x):
        return 24.0 * self.a * np.asarray(x, dtype=float)

    def sup_hess(self, lo, hi):
        edge = max(lo**2, hi**2)
        candidates = [abs(4.0 * self.a * (3.0 * edge - self.b**2))]
        if lo <= 0.0 <= hi:
            candidates.append(abs(4.0 * self.a * self.b**2))
        return max(candidates)

    def sup_third(self, lo, hi):
        return 24.0 * abs(self.a) * max(abs(lo), abs(hi))


@dataclass
class Cosine(Potential):
    """Pendulum-type potential -v0 cos(k x)."""

    v0: float = 1.0
    k: float = 1.0

    @property
    def params(self):
        return (self.v0, self.k)

    def value(self, x):
        return -self.v0 * np.cos(self.k * np.asarray(x))

    def grad(self, x):
        return self.v0 * self.k * np.sin(self.k * np.asarray(x))

    def hess(self, x):
        return self.v0 * self.k**2 * np.cos(self.k * np.asarray(x))

    def third(self, x):
        return -self.v0 * self.k**3 * np.sin(self.k * np.asarray(x))

    def sup_hess(self, lo, hi):
        return abs(self.v0) * self.k**2 * _trig_sup(np.cos, self.k, lo, hi)

    def sup_third(self, lo, hi):
        return abs(self.v0) * self.k**3 * _trig_sup(np.sin, self.k, lo, hi)


def _trig_sup(fn, k, lo, hi):
    """sup |fn(k x)| over [lo, hi], exact via extremum counting."""
    a, b = k * lo, k * hi
    # |cos| attains 1 at multiples of pi, |sin| at half-odd multiples
    offset = 0.0 if fn is np.cos else 0.5 * np.pi
    n_lo = np.ceil((a - offset) / np.pi)
    if offset + n_lo * np.pi <= b:
        return 1.0
    return max(abs(fn(a)), abs(fn(b)))


@dataclass
class CubicHarmonic(Potential):
    """Cubic-perturbed harmonic well x^2/2 + eps x^3."""

    eps: float = 0.1

    @property
    def params(self):
        return (self.eps,)

    def value(self, x):
        x = np.asarray(x)
        return 0.5 * x**2 + self.eps * x**3

    def grad(self, x):
        x = np.asarray(x)
        return x + 3.0 * self.eps * x**2

    def hess(self, x):
        return 1.0 + 6.0 * self.eps * np.asarray(x)

    def third(self, x):
        return 6.0 * self.eps * np.ones_like(np.asarray(x, dtype=float))

    def sup_hess(self, lo, hi):
        return max(abs(1.0 + 6.0 * self.eps * lo), abs(1.0 + 6.0 * self.eps * hi))

    def sup_third(self, lo, hi):
        return 6.0 * abs(self.eps)


POTENTIALS = {
    "harmonic": Harmonic,
    "double_well": DoubleWell,
    "cosine": Cosine,
    "cubic_harmonic": CubicHarmonic,
}


def make_potential(name: str, params) -> Potential:
    try:
        cls = POTENTIALS[name]
    except KeyError:
        raise ValueError(f"unknown potential '{name}'; choose from "
                         f"{sorted(POTENTIALS)}") from None
    return cls(*params)


@dataclass
class HamiltonianModel:
    """Mass plus potential with sup-derivative bounds over a declared box.

    Sup norms are taken over the user-declared interval [domain[0],
    domain[1]], not over all of space: the polynomial test potentials have
    unbounded derivatives globally, while the bounds only need to hold on
    the region the dynamics explore.  Domain exits during dynamics are
    warned about (`flow_vector`) or counted (`evolve_mixture`), not
    failures.
    """

    mass: float
    potential: Potential
    domain: tuple = (-1.0, 1.0)
    sup2: float = field(init=False)
    sup3: float = field(init=False)

    def __post_init__(self):
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not (hi > lo):
            raise ValueError("domain must be a nonempty interval")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        self.domain = (lo, hi)
        self.sup2 = float(self.potential.sup_hess(lo, hi))
        self.sup3 = float(self.potential.sup_third(lo, hi))
        if self.sup2 <= 0:
            raise ValueError("sup |V''| over the domain must be positive")

    def in_domain(self, x) -> bool:
        x = np.asarray(x)
        return bool((x >= self.domain[0]).all() and (x <= self.domain[1]).all())


@dataclass
class QuadraticExpansion:
    """Local quadratic approximation of the potential about base_point."""

    base_point: float
    value: float
    gradient: float
    hessian: float

    def __call__(self, x):
        dx = np.asarray(x) - self.base_point
        return self.value + self.gradient * dx + 0.5 * self.hessian * dx**2


def harmonic_expansion(model: HamiltonianModel, a_x: float) -> QuadraticExpansion:
    """Second-order Taylor expansion of V about a_x (inside the domain)."""
    if not model.in_domain(a_x):
        raise ValueError(f"expansion point {a_x} outside domain {model.domain}")
    pot = model.potential
    return QuadraticExpansion(
        base_point=float(a_x),
        value=float(pot.value(a_x)),
        gradient=float(pot.grad(a_x)),
        hessian=float(pot.hess(a_x)),
    )


def taylor_remainder_bound(model: HamiltonianModel, dx) -> float:
    """Upper bound sup|V'''| |dx|^3 / 6 on the quadratic-expansion error."""
    r = float(np.linalg.norm(np.atleast_1d(dx)))
    return model.sup3 * r**3 / 6.0


def flow_vector(model: HamiltonianModel, alpha) -> np.ndarray:
    """Diffusionless phase-space flow (p/m, -grad V) at alpha = (x, p).

    Evaluation outside the declared domain proceeds by extension but emits
    a warning, since the sup-derivative bounds no longer cover the point.
    """
    alpha = np.asarray(alpha, dtype=float)
    d = alpha.size // 2
    x, p = alpha[:d], alpha[d:]
    if not model.in_domain(x):
        import warnings

        warnings.warn(f"flow evaluated outside declared domain {model.domain}; "
                      "sup-derivative bounds unverified here")
    return np.concatenate([p / model.mass, -np.atleast_1d(model.potential.grad(x))])


def hamiltonian_matrix(model: HamiltonianModel, alpha) -> np.ndarray:
    """Linearized flow generator F = [[0, I/m], [-V''(x), 0]] at alpha.

    F is the Jacobian of the flow vector, so that means obey da/dt = F a
    near a fixed point and covariances obey ds/dt = F s + s F^T + D; both
    are validated against the grid solver in the harmonic case.  F
    satisfies F^T Omega + Omega F = 0, and the whitened version has
    operator norm at most 1/tau_H whenever the local Hessian obeys the sup
    bound.
    """
    alpha = np.asarray(alpha, dtype=float)
    d = alpha.size // 2
    hess = np.atleast_1d(model.potential.hess(alpha[:d])) * np.eye(d)
    f = np.zeros((2 * d, 2 * d))
    f[:d, d:] = np.eye(d) / model.mass
    f[d:, :d] = -hess
    return f

