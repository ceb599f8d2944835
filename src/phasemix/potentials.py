"""Built-in potentials, the Hamiltonian model and its linearized flow.

All built-ins are one dimensional with closed-form derivatives; the set
covers zero, constant and spatially varying third derivatives.  Potentials
are declared in configs by name plus a parameter list:

    harmonic k            -> V = k x^2 / 2
    double_well a b       -> V = a (x^2 - b^2)^2
    cosine v0 k           -> V = -v0 cos(k x)
    cubic_harmonic eps    -> V = x^2 / 2 + eps x^3

Each is a dataclass of its parameters, all required, with six methods:
`value`, `grad`, `hess` and `third` give V and its first three
derivatives, elementwise on an array of x; `sup_hess(lo, hi)` and
`sup_third(lo, hi)` give sup |V''| and sup |V'''| over [lo, hi], in
closed form.  The pipeline calls all but `third`, which is the tests'
reference for `sup_third`.
"""

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "Harmonic",
    "DoubleWell",
    "Cosine",
    "CubicHarmonic",
    "make_potential",
    "POTENTIALS",
    "HamiltonianModel",
    "hamiltonian_matrix",
]


@dataclass
class Harmonic:
    k: float

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
class DoubleWell:
    """Quartic double well a (x^2 - b^2)^2 with minima at +-b."""

    a: float
    b: float

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
class Cosine:
    """Pendulum-type potential -v0 cos(k x)."""

    v0: float
    k: float

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
class CubicHarmonic:
    """Cubic-perturbed harmonic well x^2/2 + eps x^3."""

    eps: float

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


def make_potential(name: str, params
                   ) -> Harmonic | DoubleWell | Cosine | CubicHarmonic:
    try:
        cls = POTENTIALS[name]
    except KeyError:
        raise ValueError(f"unknown potential '{name}'; choose from "
                         f"{sorted(POTENTIALS)}") from None
    names = [f.name for f in fields(cls)]
    if len(params) != len(names):
        raise ValueError(f"potential '{name}' takes exactly {len(names)} "
                         f"params ({', '.join(names)}); got {len(params)}")
    return cls(*params)


@dataclass
class HamiltonianModel:
    """Mass plus potential with sup-derivative bounds over a declared box.

    Sup norms are taken over the user-declared interval [domain[0],
    domain[1]], not over all of space: the polynomial test potentials have
    unbounded derivatives globally, while the bounds only need to hold on
    the region the dynamics explore.  Domain exits during dynamics are
    counted (`evolve_mixture`), not failures.
    """

    mass: float
    potential: Harmonic | DoubleWell | Cosine | CubicHarmonic
    domain: tuple
    sup2: float = field(init=False)
    sup3: float = field(init=False)

    def __post_init__(self):
        lo, hi = float(self.domain[0]), float(self.domain[1])
        if not (hi > lo):
            raise ValueError("domain must be a nonempty interval")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        self.domain = (lo, hi)
        self.sup2 = float(self.potential.sup_hess(lo, hi))
        self.sup3 = float(self.potential.sup_third(lo, hi))
        if not self.sup2 > 0:
            raise ValueError("sup |V''| over the domain must be positive")


def hamiltonian_matrix(model: HamiltonianModel, alpha) -> np.ndarray:
    """Linearized flow generator F = [[0, 1/m], [-V''(x), 0]] at alpha.

    F is the Jacobian of the flow (p/m, -V'(x)), so that means obey
    da/dt = F a near a fixed point and covariances obey
    ds/dt = F s + s F^T + D; both are validated against the grid solver
    in the harmonic case.  F satisfies F^T Omega + Omega F = 0, and the
    whitened version has operator norm at most 1/tau_H whenever the local
    Hessian obeys the sup bound.  Takes one centre (x, p) or a stack
    (..., 2) and returns (..., 2, 2).
    """
    alpha = np.asarray(alpha, dtype=float)
    f = np.zeros(alpha.shape[:-1] + (2, 2))
    f[..., 0, 1] = 1.0 / model.mass
    f[..., 1, 0] = -model.potential.hess(alpha[..., 0])
    return f
