"""Reaction-network hypergraphs, mass-action flows, and their dual geometry."""

from types import ModuleType as _ModuleType

from .convex import (
    CoshDissipation,
    KLPotential,
    QuadraticDissipation,
    QuadraticPotential,
    legendre_gap,
    log_mean,
    stable_asinh,
)
from .dynamics import (
    RateSchedule,
    Trajectory,
    energy_dissipation_balance,
    ledger,
    lyapunov_monitor,
    simulate,
    simulate_timedep,
)
from .exact import integer_rank, kernel_basis
from .fileio import (
    NetworkParseError,
    ScenarioConfig,
    emit_report_json,
    emit_schedule_csv,
    emit_trajectory_csv,
    load_network,
    parse_network,
    report_json_chunks,
    schedule_csv_chunks,
    serialize_network,
    trajectory_csv_chunks,
)
from .geometry import (
    complex_balance_force_split,
    cycle_dual,
    effective_equilibrium_rates,
    effective_steady_rates,
    equilibrium_point,
    flux_split,
    force_split,
    pseudo_hilbert_split,
    pythagoras_gap,
    velocity_dual,
)
from .kinetics import (
    ConvergenceError,
    EdgePair,
    KineticSplit,
    classify_state,
    entropy_production,
    find_steady_state,
    mass_action_flux,
    net_flux_raw,
    pseudo_entropy_production,
    wegscheider_check,
)
from .network import (
    ReactionNetwork,
    build_network,
    graph_laplacian,
    network_from_reactions,
    networks_equal,
)

__version__ = "0.1.0"

# every public name imported above, no submodule: from crnflow import * gives the library's API
__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]
