"""Quantum-classical correspondence laboratory.

Three solvers for the same open-system dynamics — a grid Lindblad master
equation (`lindblad`), a phase-space Fokker-Planck equation
(`fokker_planck`, with a Langevin particle twin in `langevin`), and a
Gaussian-mixture trajectory (`mixture`) that interpolates between them —
plus the characteristic scales and error budgets that relate them
(`scales`, `harmonic_error`) and an experiment harness (`config`,
`harness`, `cli`).
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config, parse_config
from .fokker_planck import (PhaseField, evolve_fokker_planck,
                            gaussian_phase_field, l1_distance)
from .gaussian import GaussianState
from .harness import run_breakdown_demo, run_comparison
from .langevin import (LangevinEnsemble, ensemble_histogram,
                       evolve_langevin_ensemble, sample_gaussian_ensemble)
from .lindblad import (DensityMatrixGrid, evolve_lindblad, gaussian_to_grid,
                       trace_distance, wigner_transform_grid)
from .mixture import (MixtureEnsemble, coherent_ensemble, evolve_mixture,
                      mixture_to_density_grid, mixture_to_phase_field)
from .potentials import HamiltonianModel, POTENTIALS, make_potential
from .scales import (DiffusionSpec, ScaleReport, compute_scales,
                     diffusion_threshold, theorem_epsilon)

__all__ = [
    "__version__",
    "ExperimentConfig", "load_config", "parse_config",
    "PhaseField", "evolve_fokker_planck",
    "gaussian_phase_field", "l1_distance",
    "GaussianState",
    "run_breakdown_demo", "run_comparison",
    "LangevinEnsemble", "ensemble_histogram", "evolve_langevin_ensemble",
    "sample_gaussian_ensemble",
    "DensityMatrixGrid", "evolve_lindblad", "gaussian_to_grid",
    "trace_distance", "wigner_transform_grid",
    "MixtureEnsemble", "coherent_ensemble", "evolve_mixture",
    "mixture_to_density_grid", "mixture_to_phase_field",
    "HamiltonianModel", "POTENTIALS", "make_potential",
    "DiffusionSpec", "ScaleReport", "compute_scales", "diffusion_threshold",
    "theorem_epsilon",
]
