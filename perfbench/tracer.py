"""Spans and counts around the calls into each phasemix layer.

A `Tracer` replaces, for the length of a `with` block, the names that the
pipeline looks up when it calls (see `PATCHES`) with wrappers that record a
span per call: name, start, end and the span that was open when it began.
Hooks read work counts from each call's arguments and results.  Spans stay
in memory; `run.py` writes them out when the run ends.  Every patched name
is put back on exit, even when the traced code raises.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np


def _n_steps(t_final, dt) -> int:
    # the rounding every phasemix solver applies to t_final / dt
    return max(int(round(t_final / dt)), 1)


def _on_lindblad(tr, a, result):
    n = _n_steps(a["t_final"], a["dt"])
    tr.counts["lindblad.steps"] += n
    if a["diffusion"].d_x == 0.0 and a["diffusion"].d_p == 0.0:
        tr.counts["lindblad.noiseless_steps"] += n


def _on_fokker_planck(tr, a, result):
    n = _n_steps(a["t_final"], a["dt"])
    tr.counts["fokker_planck.steps"] += n
    tr.notes["fokker_planck.dt"] = a["t_final"] / n


def _on_scales(tr, a, result):
    tr.notes["tau_H"] = result.tau_H


def _on_mixture(tr, a, result):
    ens = a["ens"]
    n = _n_steps(a["t_final"], a["dt"])
    tr.counts["mixture.steps"] += n
    tr.counts["mixture.particle_steps"] += n * ens.m
    tr.counts["mixture.spill_count"] += (
        result[-1][1].diagnostics["spill_count"]
        - ens.diagnostics.get("spill_count", 0))


def _on_advect(tr, a, result):
    tr.counts["kernels.advect.calls"] += 1
    # computed minimum traffic: read and write the field once, read speeds
    tr.counts["kernels.advect.bytes"] += 2 * a["vals"].nbytes \
        + a["speeds"].nbytes


def _on_rasterize_density(tr, a, result):
    x = a["x"]
    tr.counts["kernels.rasterize_density.evals"] += x.size**2 \
        * a["weights"].size
    tr.deferred["density"].append((x.copy(), a["alphas"].copy(),
                                   a["covs"].copy(), a["hbar"]))


def _on_rasterize_phase(tr, a, result):
    tr.counts["kernels.rasterize_phase.evals"] += a["x"].size \
        * a["p"].size * a["weights"].size
    tr.deferred["phase"].append((a["x"].copy(), a["p"].copy(),
                                 a["alphas"].copy(), a["covs"].copy()))


def _on_normals(tr, a, result):
    tr.counts["rng.stream_normals.calls"] += 1
    tr.counts["rng.normals"] += result.size


def _on_langevin(tr, a, result):
    n = _n_steps(a["t_final"], a["dt"])
    tr.counts["langevin.particle_steps"] += n * a["ens"].m


# (owner, attribute, span, hook).  The harness imports its solvers by name,
# so its own bindings are patched; `mixture` and `langevin` hold their own
# copies of `stream_normals`.
PATCHES = [
    ("phasemix", "load_config", "config.load", None),
    ("phasemix", "compute_scales", "scales.compute", _on_scales),
    ("phasemix.harness", "compute_scales", "scales.compute", _on_scales),
    ("phasemix.harness", "gaussian_to_grid", "lindblad.gaussian_to_grid",
     None),
    ("phasemix.harness", "evolve_lindblad", "lindblad.evolve", _on_lindblad),
    ("phasemix.lindblad.DensityMatrixGrid", "check_invariants",
     "lindblad.invariants", None),
    ("phasemix.harness", "trace_distance", "lindblad.trace_distance", None),
    ("phasemix.harness", "wigner_transform_grid", "lindblad.wigner", None),
    ("phasemix.harness", "evolve_fokker_planck", "fokker_planck.evolve",
     _on_fokker_planck),
    ("phasemix.harness", "l1_distance", "fokker_planck.l1_distance", None),
    ("phasemix.harness", "evolve_mixture", "mixture.evolve", _on_mixture),
    ("phasemix.harness", "mixture_to_density_grid", "mixture.to_density",
     None),
    ("phasemix.harness", "mixture_to_phase_field", "mixture.to_phase", None),
    ("phasemix.harness", "emit_plots", "harness.emit", None),
    ("phasemix._kernels", "advect_x", "kernels.advect", _on_advect),
    ("phasemix._kernels", "advect_p", "kernels.advect", _on_advect),
    ("phasemix._kernels", "diffuse", "kernels.diffuse", None),
    ("phasemix._kernels", "rasterize_density", "kernels.rasterize_density",
     _on_rasterize_density),
    ("phasemix._kernels", "rasterize_phase", "kernels.rasterize_phase",
     _on_rasterize_phase),
    ("phasemix.rng", "stream_normals", "rng.stream_normals", _on_normals),
    ("phasemix.mixture", "stream_normals", "rng.stream_normals", _on_normals),
    ("phasemix.langevin", "stream_normals", "rng.stream_normals",
     _on_normals),
    ("phasemix.langevin", "sample_gaussian_ensemble", "langevin.sample",
     None),
    ("phasemix.langevin", "evolve_langevin_ensemble", "langevin.evolve",
     _on_langevin),
    ("phasemix.langevin", "ensemble_histogram", "langevin.histogram", None),
    ("phasemix.fokker_planck", "gaussian_phase_field",
     "fokker_planck.gaussian_field", None),
    ("phasemix.fokker_planck", "evolve_fokker_planck", "fokker_planck.evolve",
     _on_fokker_planck),
    ("phasemix.fokker_planck", "l1_distance", "fokker_planck.l1_distance",
     None),
]


def resolve_owner(path: str):
    """Module or class named by a dotted path such as `pkg.mod.Class`."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.notes = {}
        self.deferred = defaultdict(list)
        self._stack = []
        self._saved = []

    def span(self, name):
        return _Span(self, name)

    def __enter__(self):
        try:
            for owner_path, attr, name, hook in self.patches:
                owner = resolve_owner(owner_path)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, hook):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result
        return traced

    def busy(self, name) -> float:
        """Total seconds inside spans called `name`."""
        return sum(end - start for n, start, end, _ in self.spans
                   if n == name)

    def fired(self):
        return {s[0] for s in self.spans}

    def self_time(self, index) -> float:
        """Span duration minus the part its child spans cover."""
        name, start, end, _ = self.spans[index]
        return (end - start) - sum(e - s for _, s, e, parent in self.spans
                                   if parent == index)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append([self.name, time.perf_counter(), None, parent])
        tr._stack.append(len(tr.spans) - 1)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[tr._stack.pop()][2] = time.perf_counter()
        return False


def _count_below(grid, a, b, c) -> int:
    """Points of the sorted `grid` where a y^2 + b y + c < 0 (a > 0)."""
    disc = b * b - 4.0 * a * c
    ok = disc > 0.0
    root = np.sqrt(np.where(ok, disc, 0.0))
    lo = (-b - root) / (2.0 * a)
    hi = (-b + root) / (2.0 * a)
    inside = np.searchsorted(grid, hi, "left") \
        - np.searchsorted(grid, lo, "right")
    return int(np.where(ok, inside, 0).sum())


ENVELOPE = 36.0   # exponent below which a Gaussian term is under e^-36


def density_envelope_evals(x, alphas, covs, hbar) -> int:
    """Density-matrix cells (i, j) where a particle's envelope exceeds
    e^-36, summed over particles: the exponent is u^2/(2 sxx) +
    spp_c v^2/(2 hbar^2) with u = (x_i + x_j)/2 - mx and v = x_i - x_j,
    a convex quadratic in x_j for each (particle, i)."""
    sxx = covs[:, 0, 0][:, None]
    spp_c = (covs[:, 1, 1] - covs[:, 0, 1]**2 / covs[:, 0, 0])[:, None]
    xi = x[None, :]
    s = xi - 2.0 * alphas[:, 0][:, None]      # u = (s + x_j) / 2
    k = spp_c / (2.0 * hbar**2)
    a = 1.0 / (8.0 * sxx) + k
    b = s / (4.0 * sxx) - 2.0 * k * xi
    c = s**2 / (8.0 * sxx) + k * xi**2 - ENVELOPE
    return _count_below(x, a, b, c)


def phase_envelope_evals(x, p, alphas, covs) -> int:
    """Phase-space points where a particle's Gaussian exceeds e^-36 of its
    peak, summed over particles: q(dx, dp) < 72, quadratic in p per x."""
    sxx = covs[:, 0, 0][:, None]
    sxp = covs[:, 0, 1][:, None]
    spp = covs[:, 1, 1][:, None]
    det = sxx * spp - sxp**2
    dx = x[None, :] - alphas[:, 0][:, None]
    mp = alphas[:, 1][:, None]
    # q = (spp dx^2 - 2 sxp dx dp + sxx dp^2) / det with dp = p - mp
    a = sxx / det
    b1 = -2.0 * sxp * dx / det
    c1 = spp * dx**2 / det - 2.0 * ENVELOPE
    b = b1 - 2.0 * a * mp
    c = c1 - b1 * mp + a * mp**2
    return _count_below(p, a, b, c)
