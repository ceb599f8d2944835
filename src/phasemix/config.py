"""Experiment configuration: INI parsing, validation, and round-tripping.

A configuration fully describes one experiment: the model ([model]), the
noise ([diffusion]), the initial coherent state ([initial]), the solver
grids and step sizes ([numerics]), and run flags ([flags]).  Parsing
either produces a fully validated `ExperimentConfig` or raises a
ValueError naming the section and option at fault; serializing and
re-parsing is a fixpoint.
"""

import configparser
import io
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .potentials import HamiltonianModel, make_potential
from .scales import DiffusionSpec

__all__ = ["ExperimentConfig", "parse_config", "load_config",
           "serialize_config"]


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
    dt_quantum: Optional[float] = None
    # the step of both classical solvers; unset, Fokker-Planck takes
    # tau_H/100 and evolve-langevin tau_H/200
    dt_classical: Optional[float] = None
    dt_mixture: Optional[float] = None
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
    effective_diffusion: bool = False
    margin: float = 0.10
    out: Optional[str] = None

    def __post_init__(self):
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
        for name in ("dt_quantum", "dt_classical", "dt_mixture"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"[numerics] {name} must be positive")
        if self.n_grid < 16 or self.n_phase < 16:
            raise ValueError("[numerics] grids need at least 16 points")
        if (self.p_min is None) != (self.p_max is None):
            raise ValueError("[numerics] p_min and p_max must be given "
                             "together")
        if self.p_min is not None and self.p_min >= self.p_max:
            raise ValueError("[numerics] p_min must be below p_max")
        if self.particles < 1 or self.samples < 1 or self.snapshots < 1:
            raise ValueError("[numerics] particles, samples, and snapshots "
                             "must be at least 1")
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
        """Diffusion constants, applying the opt-in substitution.

        With `effective_diffusion` set, a vanishing position coupling is
        replaced by the dimensional estimate d_x = d_p / (J2 m), the
        heuristic for baths that only localize in position.
        """
        d_x = self.d_x
        if self.effective_diffusion:
            model = model or self.build_model()
            d_x = max(d_x, self.d_p / (model.sup2 * model.mass))
        return DiffusionSpec(d_x, self.d_p, self.hbar)


_SCHEMA = {
    "model": {"potential": str, "params": "floats", "mass": float,
              "x_min": float, "x_max": float},
    "diffusion": {"d_x": float, "d_p": float, "hbar": float},
    "initial": {"x": float, "p": float},
    "numerics": {"t_final": float, "dt_quantum": "opt_float",
                 "dt_classical": "opt_float", "dt_mixture": "opt_float",
                 "n_grid": int, "n_phase": int, "p_min": "opt_float",
                 "p_max": "opt_float", "particles": int, "samples": int,
                 "snapshots": int, "edge_tol": float},
    "flags": {"seed": int, "z_cap": "opt_float", "blur_cap": "opt_float",
              "effective_diffusion": bool, "margin": float, "out": "opt_str"},
}

_REQUIRED = {("model", "potential"), ("model", "mass"), ("model", "x_min"),
             ("model", "x_max"), ("diffusion", "d_x"), ("diffusion", "d_p"),
             ("diffusion", "hbar"), ("initial", "x"), ("initial", "p"),
             ("numerics", "t_final")}

_RENAME = {("initial", "x"): "x0", ("initial", "p"): "p0"}


def _convert(section, option, raw, kind):
    try:
        if kind is str:
            return raw
        if kind == "opt_str":
            return None if raw.lower() in ("none", "auto", "") else raw
        if kind == "floats":
            return tuple(float(v) for v in raw.replace(",", " ").split())
        if kind == "opt_float":
            return None if raw.lower() in ("none", "auto", "") else float(raw)
        if kind is bool:
            if raw.lower() in ("true", "yes", "on", "1"):
                return True
            if raw.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
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

    kwargs = {}
    for section, options in _SCHEMA.items():
        present = parser.has_section(section)
        for option, kind in options.items():
            if present and parser.has_option(section, option):
                name = _RENAME.get((section, option), option)
                kwargs[name] = _convert(section, option,
                                        parser.get(section, option), kind)
            elif (section, option) in _REQUIRED:
                raise ValueError(f"[{section}] {option}: required option "
                                 "missing")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"[{section}]: unknown section")
        for option in parser.options(section):
            if option not in _SCHEMA[section]:
                raise ValueError(f"[{section}] {option}: unknown option")
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    out = io.StringIO()
    for section, options in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for option in options:
            name = _RENAME.get((section, option), option)
            out.write(f"{option} = {_format(getattr(cfg, name))}\n")
        out.write("\n")
    return out.getvalue()
