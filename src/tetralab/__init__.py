"""Numerical laboratory for Lagrangian tetragons in model symplectic
phase spaces: Hamiltonian chord search with interlinking time-length
bounds, robustness under wall-localized perturbations, and grid-based
estimation of the Poisson bracket invariant."""

__version__ = "0.1.0"

from .phase_core import (  # noqa: F401
    EvaluationError,
    HamiltonianSpec,
    PhaseChart,
    poisson_bracket,
    sgrad,
    volume_factor,
)
from .contact import (  # noqa: F401
    CircleModel,
    ParameterError,
    SphereModel,
    Tetragon,
    TorusModel,
    build_tetragon,
    make_model,
    smooth_tetragon,
)
from .dynamics import (  # noqa: F401
    ChordSearchConfig,
    EscapeError,
    SeparationReport,
    StiffnessError,
    Trajectory,
    chord_budget,
    find_chord,
    integrate,
    separation,
)
from .pb4 import (  # noqa: F401
    InfeasibleError,
    Pb4Problem,
    Pb4Report,
    WallWitness,
    estimate_pb4_plus,
    feasible_pair_value,
    prototype_problem,
    wall_witness,
)
from .scenarios import (  # noqa: F401
    ConfigError,
    PerturbationSpec,
    ScenarioConfig,
    ScenarioReport,
    run_batch,
    run_scenario,
)
