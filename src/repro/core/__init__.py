"""The paper's contribution: symbolic states, the closed-loop system
model, the reachability procedure (Algorithms 1-3), partitioning with
split refinement, the parallel runner, and runtime monitoring."""

from .checkpoint import canonical_journal_bytes, load_journal, load_lease_records
from .compose import StateView, SynchronousProductController
from .coordinator import (
    Coordinator,
    CoordinatorStats,
    DistributedSettings,
    run_distributed,
)
from .lease import Lease, LeaseTable, Shard, assign_shards, shard_index
from .monitor import MonitorAdvice, RuntimeMonitor, SwitchingController
from .node import NodeOutcome, NodeSettings, run_node
from .partition import RefinementPolicy, grid_partition
from .reach import (
    ReachResult,
    ReachSettings,
    TubeSegment,
    Verdict,
    reach,
    reach_from_box,
    reach_many,
)
from .result import CellResult, VerificationReport
from .runner import RunnerSettings, verify_cell, verify_partition
from .supervisor import (
    BudgetExceeded,
    ShutdownFlag,
    SupervisorOutcome,
    budget_guard,
    run_cell_guarded,
    run_supervised,
    trap_shutdown_signals,
)
from .symbolic import SymbolicSet, SymbolicState, resize
from .system import (
    ArgmaxPost,
    ArgminPost,
    ClosedLoopSystem,
    CommandSet,
    Controller,
    FunctionPre,
    IdentityPre,
    Plant,
)

__all__ = [
    "ArgmaxPost",
    "ArgminPost",
    "BudgetExceeded",
    "CellResult",
    "ClosedLoopSystem",
    "CommandSet",
    "Controller",
    "Coordinator",
    "CoordinatorStats",
    "DistributedSettings",
    "FunctionPre",
    "IdentityPre",
    "Lease",
    "LeaseTable",
    "MonitorAdvice",
    "NodeOutcome",
    "NodeSettings",
    "Plant",
    "ReachResult",
    "ReachSettings",
    "RefinementPolicy",
    "RunnerSettings",
    "RuntimeMonitor",
    "Shard",
    "ShutdownFlag",
    "StateView",
    "SupervisorOutcome",
    "SwitchingController",
    "SynchronousProductController",
    "SymbolicSet",
    "SymbolicState",
    "TubeSegment",
    "Verdict",
    "VerificationReport",
    "assign_shards",
    "budget_guard",
    "canonical_journal_bytes",
    "grid_partition",
    "load_journal",
    "load_lease_records",
    "reach",
    "reach_from_box",
    "reach_many",
    "resize",
    "run_cell_guarded",
    "run_distributed",
    "run_node",
    "run_supervised",
    "shard_index",
    "trap_shutdown_signals",
    "verify_cell",
    "verify_partition",
]
