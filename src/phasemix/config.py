"""Experiment configuration: INI parsing and validation.

A configuration fully describes one experiment: the model ([model]), the
noise ([diffusion]), the initial coherent state ([initial]), the solver
grids and step sizes ([numerics]), and run flags ([flags]).  Each option
is declared once, as an `ExperimentConfig` field: its annotation sets how
the INI text is read, and a field without a default is a required option.
The annotations name five value kinds: str, int, float, a float or None
(`none`, `auto` or an empty value) and a tuple of floats; no option is a
boolean.
Parsing either produces a fully validated `ExperimentConfig` or raises a
ValueError naming the section and option at fault.  The checks run when
an `ExperimentConfig` is built, so one built in Python meets the same
rules: first, a value whose type does not fit its annotation is refused
as `[numerics] particles: expected int, got 2.5` (an int field takes an
integral number, a float field a real one, neither a bool; `params` takes
a tuple of reals; an Optional field also takes None); then a number that
is not finite (nan, inf), also inside `params`, is refused as
`[section] option: 'nan' is not finite`.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real
from typing import Optional, Tuple, Union, get_args, get_origin

from .potentials import HamiltonianModel, make_potential
from .scales import DiffusionSpec

__all__ = ["ExperimentConfig", "parse_config", "load_config"]


@dataclass
class ExperimentConfig:
    """Validated experiment description (see module docstring)."""

    # [model]
    potential: str
    params: Tuple[float, ...]
    mass: float
    x_min: float
    x_max: float
    # [diffusion]
    d_x: float
    d_p: float
    hbar: float
    # [initial]
    x0: float
    p0: float
    # [numerics]
    t_final: float
    # the Lindblad step; unset, tau_H/100
    dt_quantum: Optional[float] = None
    n_grid: int = 256
    n_phase: int = 128
    p_min: Optional[float] = None
    p_max: Optional[float] = None
    particles: int = 100
    samples: int = 100_000
    snapshots: int = 5
    edge_tol: float = 1e-6
    # [flags]
    seed: int = 0
    z_cap: Optional[float] = None
    blur_cap: Optional[float] = None
    margin: float = 0.10

    def __post_init__(self):
        # every option must fit its annotation and no number may be nan
        # or inf (float() reads both); checked first, so the range checks
        # below never see a nan
        for section, names in _SECTIONS.items():
            for name in names:
                value, kind = getattr(self, name), _FIELDS[name].type
                option = f"[{section}] {_OPTION.get(name, name)}"
                if not _fits(value, kind):
                    raise ValueError(f"{option}: expected {_KIND_NAME[kind]},"
                                     f" got {value!r}")
                for v in value if isinstance(value, tuple) else (value,):
                    if isinstance(v, Real) and not math.isfinite(v):
                        raise ValueError(f"{option}: '{v}' is not finite")
        if self.x_min >= self.x_max:
            raise ValueError("[model] x_min must be below x_max")
        if self.mass <= 0:
            raise ValueError("[model] mass must be positive")
        if self.d_x < 0 or self.d_p < 0:
            raise ValueError("[diffusion] d_x and d_p must be nonnegative")
        if self.hbar <= 0:
            raise ValueError("[diffusion] hbar must be positive")
        if self.t_final <= 0:
            raise ValueError("[numerics] t_final must be positive")
        if self.dt_quantum is not None and self.dt_quantum <= 0:
            raise ValueError("[numerics] dt_quantum must be positive")
        if self.n_grid < 16 or self.n_phase < 16:
            raise ValueError("[numerics] grids need at least 16 points")
        if (self.p_min is None) != (self.p_max is None):
            raise ValueError("[numerics] p_min and p_max must be given "
                             "together")
        if self.p_min is not None and self.p_min >= self.p_max:
            raise ValueError("[numerics] p_min must be below p_max")
        if self.particles < 1 or self.snapshots < 1:
            raise ValueError("[numerics] particles and snapshots must be at "
                             "least 1")
        # the Langevin moments take the sample covariance (ddof = 1)
        if self.samples < 2:
            raise ValueError("[numerics] samples must be at least 2")
        if self.edge_tol <= 0:
            raise ValueError("[numerics] edge_tol must be positive")
        if self.z_cap is not None and self.z_cap <= 1.0:
            raise ValueError("[flags] z_cap must exceed 1")
        if self.blur_cap is not None and self.blur_cap <= 0.0:
            raise ValueError("[flags] blur_cap must be positive")
        if self.margin < 0:
            raise ValueError("[flags] margin must be nonnegative")
        # validates the potential name/params eagerly
        self.build_model()

    def build_model(self) -> HamiltonianModel:
        return HamiltonianModel(self.mass,
                                make_potential(self.potential, self.params),
                                (self.x_min, self.x_max))

    def build_diffusion(self, model: Optional[HamiltonianModel] = None
                        ) -> DiffusionSpec:
        """The [diffusion] constants.  `model` is ignored; it stays because
        the benchmark's callers pass one."""
        return DiffusionSpec(self.d_x, self.d_p, self.hbar)


# INI sections in file order, each naming its ExperimentConfig fields in
# dataclass order; [initial] x and p fill x0 and p0
_SECTIONS = {
    "model": ("potential", "params", "mass", "x_min", "x_max"),
    "diffusion": ("d_x", "d_p", "hbar"),
    "initial": ("x0", "p0"),
    "numerics": ("t_final", "dt_quantum", "n_grid", "n_phase", "p_min",
                 "p_max", "particles", "samples", "snapshots", "edge_tol"),
    "flags": ("seed", "z_cap", "blur_cap", "margin"),
}
_OPTION = {"x0": "x", "p0": "p"}
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
assert [n for ns in _SECTIONS.values() for n in ns] == list(_FIELDS)
_KIND_NAME = {str: "str", int: "int", float: "float",
              Optional[float]: "float or None",
              Tuple[float, ...]: "tuple of floats"}


def _fits(value, kind) -> bool:
    """Whether `value` has the type of a field annotated `kind`; numpy
    scalars fit, a bool is no number."""
    if get_origin(kind) is Union:               # Optional[float]
        return value is None or _fits(value, get_args(kind)[0])
    if get_origin(kind) is tuple:
        return isinstance(value, tuple) and all(_fits(v, float)
                                                for v in value)
    if kind in (int, float):
        number = Integral if kind is int else Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, kind)


def _convert(section, option, raw, kind):
    if get_origin(kind) is Union:               # Optional[float]
        if raw.lower() in ("none", "auto", ""):
            return None
        kind = get_args(kind)[0]
    try:
        if get_origin(kind) is tuple:
            return tuple(float(v) for v in raw.replace(",", " ").split())
        return kind(raw)
    except ValueError:
        raise ValueError(f"[{section}] {option}: cannot parse {raw!r} as "
                         f"{getattr(kind, '__name__', kind)}") from None


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"config syntax error: {exc}") from None

    # unknown names first: a misspelt section must not read as a missing one
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"[{section}]: unknown section")
        options = [_OPTION.get(n, n) for n in _SECTIONS[section]]
        for option in parser.options(section):
            if option not in options:
                raise ValueError(f"[{section}] {option}: unknown option")
    kwargs = {}
    for section, names in _SECTIONS.items():
        for name in names:
            option = _OPTION.get(name, name)
            f = _FIELDS[name]
            if parser.has_option(section, option):
                kwargs[name] = _convert(section, option,
                                        parser.get(section, option), f.type)
            elif f.default is MISSING:
                raise ValueError(f"[{section}] {option}: required option "
                                 "missing")
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

