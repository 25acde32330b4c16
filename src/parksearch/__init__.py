"""Multi-agent parking search: road graphs, availability prediction, planners, simulation.

The names in ``__all__`` are the library surface; everything else is reachable
through the submodules (``parksearch.planners``, ``parksearch.fleet``, ...).
"""

from .availability import AdaptionOverlay, CtmcParams, stationary_availability
from .engine import (
    AgentSpec, MetricsRecord, OccupationTrace, compute_metrics, load_trace, read_results, run_simulation,
    save_trace, synthesize_occupations, write_results,
)
from .errors import (
    ConfigError, GraphFormatError, GraphValidationError, NoPathError, ParkSearchError, TraceError,
)
from .fleet import ReservationTable, adapt_probabilities
from .geo import GeoPoint, great_circle_m, walking_time
from .graph import RoadGraph, all_pairs_travel_times, load_graph
from .planners import (
    PLANNER_KINDS, PlannerContext, PlannerSettings, PlanningView, RouteDecision, TakeResource, TakeRoad,
    make_policy,
)
from .scenario import (
    ScenarioConfig, build_grid_graph_doc, generate_data_driven, generate_single_destination, load_config,
    run_batch, run_scenario, summarize_results,
)

__all__ = [
    # availability process and fleet state
    "AdaptionOverlay", "CtmcParams", "stationary_availability",
    "ReservationTable", "adapt_probabilities",
    # simulation
    "AgentSpec", "MetricsRecord", "OccupationTrace", "compute_metrics", "load_trace",
    "read_results", "run_simulation", "save_trace", "synthesize_occupations", "write_results",
    # errors
    "ConfigError", "GraphFormatError", "GraphValidationError", "NoPathError", "ParkSearchError",
    "TraceError",
    # geometry and road graphs
    "GeoPoint", "great_circle_m", "walking_time",
    "RoadGraph", "all_pairs_travel_times", "load_graph",
    # planners
    "PLANNER_KINDS", "PlannerContext", "PlannerSettings", "PlanningView", "RouteDecision", "TakeResource",
    "TakeRoad", "make_policy",
    # scenarios
    "ScenarioConfig", "build_grid_graph_doc", "generate_data_driven", "generate_single_destination",
    "load_config", "run_batch", "run_scenario", "summarize_results",
]

__version__ = "0.1.0"
