"""Voter model perturbations in one dimension and their dual
branching-coalescing-killing nets: simulation, exact oracles, and
verification experiments."""

__version__ = "0.1.0"

from .coloring import (
    BoundaryTable,
    ColorDistribution,
    boundary_table_from,
    color_dag,
    color_from_uniform,
    point_mass,
    uniform_boundary_table,
    uniform_colors,
)
from .dualgraph import (
    DagKind,
    ReducedDag,
    RootedDag,
    build_dag,
    dag_from_json,
    dag_to_dot,
    dag_to_json,
    differ_only_by_root,
    reduce_dag,
    relevant_points,
    relevant_points_bruteforce,
)
from .duality import (
    JointColorLaw,
    cone_window,
    duality_gof_test,
    exact_dual_law,
    exact_forward_law,
)
from .lattice_net import (
    ArrowField,
    ArrowOutcome,
    KeyedNet,
    Vertex,
    Window,
)
from .models import (
    ColorField,
    VmpParams,
    lotka_volterra_decomposition,
    lotka_volterra_transition,
    noisy_biased_voter_decomposition,
    noisy_biased_voter_transition,
    potts_detailed_balance_residual,
    potts_params,
    potts_rates,
    simple_vmp,
    simulate,
    transition_distribution,
)
from .scaling import (
    ScalingSchedule,
    interface_census,
    marginal_convergence_experiment,
    snap,
)
