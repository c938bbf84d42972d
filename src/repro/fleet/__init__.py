"""Fleet orchestration plane: multi-job, contention-aware simulation.

The paper's fleet-wide thesis — storage, preprocessing, and power must
be provisioned for *many concurrent jobs*, not one — made executable:
trace-driven job arrivals (:mod:`jobs`), a shared-storage bandwidth and
cache broker (:mod:`broker`), a cross-job DPP worker-pool allocator
under power budgets (:mod:`allocator`), and a discrete-event simulator
tying them together on one clock (:mod:`simulator`) with fleet-level
reporting (:mod:`report`).
"""

from .allocator import AllocationRound, FleetPowerBudget, GlobalDppAllocator, PoolConfig
from .broker import StorageBroker, StorageFabric, max_min_share
from .jobs import DAY_S, FleetJobSpec, FleetMix, JobGenerator, from_release_iteration
from .report import FleetReport, FleetSample, JobOutcome
from .simulator import FleetConfig, FleetScenario, FleetSimulator, run_scenario

__all__ = [
    "AllocationRound",
    "DAY_S",
    "FleetConfig",
    "FleetJobSpec",
    "FleetMix",
    "FleetPowerBudget",
    "FleetReport",
    "FleetSample",
    "FleetScenario",
    "FleetSimulator",
    "GlobalDppAllocator",
    "JobGenerator",
    "JobOutcome",
    "PoolConfig",
    "StorageBroker",
    "StorageFabric",
    "from_release_iteration",
    "max_min_share",
    "run_scenario",
]
