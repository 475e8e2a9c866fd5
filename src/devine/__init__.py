"""Seeded simulator for decentralized virtual network embedding.

A substrate of servers hosts arriving virtual network requests.  Each
request triggers a ring election among randomly chosen candidate leaders;
every leader proposes its own bounded breadth-first embedding, the best
weighted-profit proposal wins, and the simulation allocates it.  FirstFit,
BestFit, and a global resource-capacity ranker are included for comparison.
"""

__version__ = "0.1.0"

from .baselines import ConvergenceError, GrcParams, best_fit, first_fit, grc_embed, grc_rank
from .embedding import (
    AllocationError,
    EmbeddingSolution,
    LedgerEntry,
    LedgerError,
    Violation,
    allocate,
    conservation_violations,
    metric_of,
    release,
    revenue_of,
    verify_solution,
)
from .generator import (
    GenerationError,
    GeneratorConfig,
    generate_physical_network,
    generate_vnr,
    stream,
)
from .local_embed import (
    INFEASIBLE,
    LocalEmbedOutcome,
    LocalEmbedParams,
    embed,
    map_link,
)
from .model import (
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    from_milli,
    to_milli,
)
from .protocol import (
    ElectionParams,
    LeaderRing,
    ProtocolError,
    run_election,
    select_leaders,
)
from .simulation import (
    ALGORITHMS,
    SimConfig,
    SimulationError,
    build_workload,
    compare_algorithms,
    run_simulation,
)
