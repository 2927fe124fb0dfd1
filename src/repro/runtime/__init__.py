"""Single-controller MPMD runtime (§4): per-actor instruction streams,
object stores, ordered P2P channels, and the deterministic dataflow
executor that doubles as a discrete-event performance simulator — plus
the process-per-rank runtime (``engine="mp"``: the
:class:`~repro.runtime.pool.ActorPool` driver over the workers of
:mod:`repro.runtime.mp`) that executes the same programs on real OS
processes and real wall-clock time.  Deterministic fault injection
(:mod:`repro.runtime.faults`) and fault-tolerant step replay
(:mod:`repro.runtime.recovery`) make rank death a survivable, testable
event rather than a lost job."""

from repro.runtime.clock import CostModel, LinearCost, ZeroCost
from repro.runtime.executor import (
    ENGINES,
    CommMismatchError,
    CommMode,
    DeadlockError,
    ExecutionResult,
    MpmdExecutor,
    PoolClosedError,
    TimelineEvent,
    WaitStat,
    WorkerDiedError,
    WorkerTaskError,
)
from repro.runtime.instructions import (
    Accumulate,
    AllReduce,
    BufferRef,
    Bundled,
    Delete,
    Instruction,
    Recv,
    RunTask,
    Send,
)
from repro.runtime.faults import (
    CorruptCheckpoint,
    DelayMessage,
    DropMessage,
    FaultPlan,
    KillRank,
    WedgeRank,
)
from repro.runtime.mp import DEFAULT_SHM_THRESHOLD, DEFAULT_WATCHDOG_S
from repro.runtime.pool import ActorPool, PoolFuture
from repro.runtime.recovery import (
    RankFailure,
    RecoveryPolicy,
    ResilientMesh,
    ResilientStepFunction,
    is_recoverable,
)
from repro.runtime.store import Buffer, ObjectStore

__all__ = [
    "DEFAULT_SHM_THRESHOLD", "DEFAULT_WATCHDOG_S",
    "ActorPool", "PoolFuture",
    "FaultPlan", "KillRank", "WedgeRank", "DropMessage", "DelayMessage",
    "CorruptCheckpoint",
    "RecoveryPolicy", "RankFailure", "ResilientStepFunction", "ResilientMesh",
    "is_recoverable",
    "CostModel", "ZeroCost", "LinearCost",
    "MpmdExecutor", "CommMode", "DeadlockError", "CommMismatchError",
    "WorkerTaskError", "WorkerDiedError", "PoolClosedError",
    "ExecutionResult", "TimelineEvent", "WaitStat", "ENGINES",
    "BufferRef", "Instruction", "RunTask", "Send", "Recv", "Delete",
    "Accumulate", "AllReduce", "Bundled",
    "Buffer", "ObjectStore",
]
