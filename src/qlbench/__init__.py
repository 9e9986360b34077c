"""Workbench for subspace quantum logic, sequential measurement statistics,
classical event algebra, and dispersion-free hidden-variable ensembles."""

from .coloring import (
    AssignmentSearchResult,
    RayFamily,
    builtin_family,
    identify_rays,
    load_ray_family,
    search_bivalent_assignment,
)
from .config import ExperimentConfig, load_experiment_config, parse_experiment_config
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    PreconditionError,
    QLBenchError,
)
from .events import (
    EventSet,
    OutcomeSpace,
    Universe,
    complement_relative,
    distributes_classical,
    eq10_trace,
    universe_mismatch_demo,
)
from .hidden import (
    HiddenEnsemble,
    HiddenModel,
    TransitionKernel,
    audit_no_go,
    build_qm_equivalent_model,
    exact_sequential,
    simulate_sequential,
    truth_table_distributivity,
)
from .hilbert import (
    MeasurementBasis,
    StateVector,
    named_axis_basis,
    named_state,
    spin_direction_basis,
)
from .lattice import (
    Subspace,
    check_lattice_axioms,
    distributes,
    includes,
    join,
    meet,
    orthocomplement,
    orthomodular_holds,
)
from .stats import (
    Distribution,
    SequentialTable,
    born_distribution,
    commutation_defect,
    dispersion,
    joint_exists,
    marginal_over_second,
    nondistribution_defect,
    sequential_distribution,
)

__version__ = "0.1.0"
