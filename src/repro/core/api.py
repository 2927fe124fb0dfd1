"""Driver-facing API: ``RemoteMesh`` and ``distributed`` (Figure 4, §4.1).

The user experience the paper promises::

    mesh = RemoteMesh((2,), spmd_mesh=(("model", 2),), rules={...})
    step_fn = mesh.distributed(train_step)
    for batch in dataset:
        state, loss = step_fn(state, batch)

``distributed`` traces ``train_step`` on first call (shapes are cached),
compiles it with :func:`repro.core.compile.compile_train_step`, and drives
the single-controller MPMD runtime: place inputs on their inferred actors,
dispatch one fused program per actor, fetch the outputs. Subsequent calls
with the same shapes reuse the compiled step — the paper's "single RPC per
actor per step".
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.compile import CompiledStep, compile_train_step
from repro.core.schedules import Schedule
from repro.ir import trace as ir_trace
from repro.ir.avals import abstractify
from repro.ir.pytree import tree_flatten, tree_unflatten
from repro.runtime.clock import CostModel
from repro.runtime.executor import CommMode, ExecutionResult, MpmdExecutor
from repro.runtime.instructions import BufferRef
from repro.runtime.store import RemoteArray

__all__ = ["RemoteMesh", "StepFunction"]


class RemoteMesh:
    """A cluster of SPMD actors for MPMD pipeline execution (§4.1).

    Args:
        shape: ``(n_pipeline_actors,)`` or ``(dp, n_pipeline_actors)`` —
            the low-bandwidth mesh over which pipeline (and optionally
            data) parallelism run.
        spmd_mesh: optional inner mesh axes, e.g. ``(("model", 4),)`` — the
            high-bandwidth mesh each actor's tasks are SPMD-partitioned
            over.
        rules: logical-axis -> mesh-axis mapping for the inner mesh.
        cost_model: optional :class:`~repro.runtime.clock.CostModel`; with
            one attached, step functions also produce a virtual-time
            timeline (``step_fn.last_result``).
        comm_mode: point-to-point semantics (ASYNC = JaxPP's overlapped
            sends/recvs; SYNC = the blocking baseline).
        engine: runtime backend — ``"event"`` (default, in-process
            event engine), ``"roundrobin"`` (polling reference,
            differential testing), or ``"mp"`` (process-per-rank: every
            actor is a real OS process executing its program on real
            wall-clock time).  An ``"mp"`` mesh keeps one warm
            :class:`~repro.runtime.pool.ActorPool`: processes spawn on
            the first step, programs ship once, and every later step
            reuses them until :meth:`close` — the step after that starts
            cold again.  Each step submits its run with the mesh's
            ``comm_mode`` and waits for the result; the caller's leaves
            go into the run commands through a placement plan bound at
            compile time, with no driver-side object store.  Its outputs are
            read-only :class:`~repro.runtime.store.RemoteArray` handles:
            the state a training loop feeds back stays on the ranks and
            goes back to them as a reference, and ``np.asarray`` reads a
            handle.  :meth:`close` reads every live handle first; a rank
            that crashes loses the state nobody read, unless
            ``recovery`` is set (its snapshots read the state before
            each snapshot step).
        mp_watchdog_s: ``engine="mp"`` only — seconds of no worker
            progress before the driver reports a deadlock.
        mp_shm_threshold: ``engine="mp"`` only — ndarray bytes at which
            transfers switch to shared-memory segments.
        recovery: optional :class:`~repro.runtime.recovery.RecoveryPolicy`.
            With one set, ``distributed`` returns a
            :class:`~repro.runtime.recovery.ResilientStepFunction`:
            training steps snapshot program-owned state periodically and
            survive worker death by respawn + restore + bounded replay,
            degrading to the usual fail-fast once the policy's budgets
            are exhausted.
        fault_plan: optional :class:`~repro.runtime.faults.FaultPlan` —
            deterministic chaos injected into ``engine="mp"`` pool
            workers (kill / wedge / drop / delay / corrupt-checkpoint),
            gated on the pool generation so a fault fires exactly once
            even across respawns.  Testing hook; ``None`` costs nothing.
        codegen_actor: whole-mesh loop fusion (the companion of
            ``task_backend="codegen"``, which fuses *within* a task):
            when the whole mesh lives in one process, every actor's
            instruction stream is merged into ONE exec-compiled driver
            per compiled step (:func:`repro.runtime.actorgen.fuse_mesh`)
            — send/recv pairs become local rebinds, so steady-state
            dispatch is O(task calls), not O(instructions).  The fused
            driver produces bit-identical values but no virtual-time
            timeline or wait profile (``step_fn.last_result`` carries a
            synthetic summary with ``engine="fused"``), so the flag
            refuses to combine with a ``cost_model``.  On
            ``engine="mp"`` the flag is accepted and has no effect: every
            rank runs the worker's one instruction loop.  (The per-rank
            generated driver it used to select measured no faster — ten
            alternating pairs of the ``gpt_mid_mp2`` benchmark workload,
            median ``step_ms`` 59.58 vs 59.54 ref-ms, inside the
            spread.)
    """

    def __init__(
        self,
        shape: Sequence[int],
        spmd_mesh: Sequence[tuple[str, int]] | None = None,
        rules: Mapping[str, str | None] | None = None,
        cost_model: CostModel | None = None,
        comm_mode: CommMode = CommMode.ASYNC,
        engine: str = "event",
        mp_watchdog_s: float | None = None,
        mp_shm_threshold: int | None = None,
        codegen_actor: bool = False,
        recovery: Any = None,
        fault_plan: Any = None,
    ):
        shape = tuple(int(s) for s in shape)
        if len(shape) == 1:
            self.dp_size, self.n_pipeline_actors = 1, shape[0]
        elif len(shape) == 2:
            self.dp_size, self.n_pipeline_actors = shape
        else:
            raise ValueError(f"RemoteMesh shape must be (p,) or (dp, p), got {shape}")
        self.spmd_mesh = tuple(spmd_mesh) if spmd_mesh else None
        self.rules = dict(rules) if rules else {}
        from repro.runtime.executor import ENGINES

        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if engine == "mp" and cost_model is not None:
            raise ValueError(
                "engine='mp' measures real wall-clock time; virtual cost "
                "models only apply to the in-process engines"
            )
        if codegen_actor and cost_model is not None:
            raise ValueError(
                "codegen_actor=True fuses away the per-instruction loop, so "
                "no virtual-time timeline is produced; drop the cost_model "
                "or the fusion flag"
            )
        self.codegen_actor = bool(codegen_actor)
        self.cost_model = cost_model
        self.comm_mode = comm_mode
        self.engine = engine
        self.mp_watchdog_s = mp_watchdog_s
        self.mp_shm_threshold = mp_shm_threshold
        self.recovery = recovery
        self.fault_plan = fault_plan
        self._mp_pool = None
        # 0-based count of pools this mesh has spawned; fault plans fire
        # only in the generation they name, so an injected failure does
        # not recur in the respawned pool that replays the step
        self._pool_generation = 0

    def _acquire_mp_pool(self, n_actors: int):
        """The mesh's warm :class:`~repro.runtime.pool.ActorPool`, spawned
        lazily on first use and respawned transparently after a failure
        (worker crash, deadlock) or an actor-count change."""
        from repro.runtime.pool import ActorPool

        pool = self._mp_pool
        if pool is not None and (not pool.alive() or pool.n_actors != n_actors):
            # alive() checks worker liveness too: a silently-killed worker
            # is grounds for a respawn even before the pool's own driver
            # thread has noticed and marked the pool failed
            pool.shutdown()
            pool = self._mp_pool = None
        if pool is None:
            pool = self._mp_pool = ActorPool(
                n_actors,
                watchdog_s=self.mp_watchdog_s,
                shm_threshold=self.mp_shm_threshold,
                fault_plan=self.fault_plan,
                generation=self._pool_generation,
            )
            self._pool_generation += 1
        return pool

    def close(self) -> None:
        """Shut down the mesh's actor pool (if one is warm), after reading
        every output handle still alive, so each stays readable.

        Idempotent; the mesh stays usable — the next ``engine="mp"`` step
        simply spawns a fresh pool.  An unclosed mesh cleans up via GC
        (the pool holds no reference back to the mesh)."""
        pool = self._mp_pool
        self._mp_pool = None
        if pool is not None:
            pool.shutdown()

    @property
    def n_actors(self) -> int:
        """Total actor count across data-parallel replicas."""
        return self.dp_size * self.n_pipeline_actors

    def distributed(
        self,
        train_step: Callable[..., Any],
        schedule: Schedule | str | None = None,
        comm_strategy: str = "topo",
        cost_fn: Callable[..., float] | None = None,
        task_backend: str = "codegen",
        memory_budget: float | None = None,
        optimize: bool = True,
    ) -> "StepFunction":
        """Wrap ``train_step`` for MPMD execution on this mesh.

        The schedule normally comes from the ``accumulate_grads`` call
        inside ``train_step``; passing one here overrides it.  Passing
        ``schedule="auto"`` runs the cost-aware autotuner at first-call
        compile time: per-stage costs are estimated from the traced stage
        jaxprs (or ``cost_fn``), every gallery schedule compatible with
        this mesh's pipeline width is priced, candidates over the
        per-rank ``memory_budget`` (activation bytes) are excluded, and
        the winner is compiled — the ranked
        :class:`~repro.core.autotune.TuneReport` is available afterwards
        as ``step_fn.compiled.tune_report``.
        ``task_backend`` picks the task payload: ``"codegen"`` (default;
        each task jaxpr lowers once into a slot-indexed
        :class:`~repro.ir.linearize.LinearProgram` and is emitted as
        straight-line Python source, exec-compiled once —
        :class:`~repro.ir.codegen.CodegenProgram`; pairs with the mesh's
        ``codegen_actor`` whole-mesh fusion), ``"linear"`` (the slot VM
        over the same program; bit-identical, the reference codegen is
        differential-tested against), or ``"interpret"`` (the
        tree-walking reference).
        ``optimize`` (default ``True``) runs the algebraic optimizer over
        the stage jaxprs before lowering (:mod:`repro.ir.opt`) — identity
        elision, CSE, cross-boundary DCE and boundary dedupe — guaranteed
        bit-identical to ``False``.  The
        per-stage rewrite report is available afterwards as
        ``step_fn.compiled.opt_report`` (``None`` when ``False``).
        """
        if isinstance(schedule, str) and schedule != "auto":
            raise ValueError(
                f"unknown schedule {schedule!r}; pass a Schedule or 'auto'"
            )
        fn = StepFunction(
            self, train_step, schedule, comm_strategy, cost_fn, task_backend,
            memory_budget, optimize,
        )
        if self.recovery is not None:
            from repro.runtime.recovery import ResilientStepFunction

            return ResilientStepFunction(fn, self.recovery)
        return fn


class StepFunction:
    """Compiled-on-first-call distributed step function.

    Attributes:
        last_result: the :class:`ExecutionResult` (timeline, makespan, P2P
            stats) of the most recent call.
        compiled: the underlying :class:`CompiledStep` after first call.
    """

    def __init__(
        self,
        mesh: RemoteMesh,
        train_step: Callable[..., Any],
        schedule: Schedule | str | None,
        comm_strategy: str,
        cost_fn: Callable[..., float] | None,
        task_backend: str = "codegen",
        memory_budget: float | None = None,
        optimize: bool = True,
    ):
        self.mesh = mesh
        self.train_step = train_step
        self.schedule = schedule
        self.comm_strategy = comm_strategy
        self.cost_fn = cost_fn
        self.task_backend = task_backend
        self.memory_budget = memory_budget
        self.optimize = optimize
        self.compiled: CompiledStep | None = None
        self.last_result: ExecutionResult | None = None
        self._out_tree = None
        self._shape_key = None
        self._fused = None  # (compiled, MeshDriver, out_keys) cache
        self._peaks: list[int] | None = None  # per-actor store peaks, last call

    # -- compilation -----------------------------------------------------------
    def _compile(self, args: tuple, flat: list, in_tree) -> None:
        from repro.core.compile import find_batch_inputs

        jaxpr, _, out_tree = ir_trace(self.train_step, *args)
        dp = self.mesh.dp_size
        if dp > 1:
            # Data parallelism shards the per-microbatch batch dimension, so
            # each replica's program must be traced at the *sharded* shape
            # (static shape parameters are baked in at trace time, exactly
            # like XLA). Re-trace with batch leaves pre-split.
            batch_idx = find_batch_inputs(jaxpr)
            sharded = list(flat)
            for k in batch_idx:
                leaf = np.asarray(sharded[k])
                if leaf.ndim < 2 or leaf.shape[1] % dp != 0:
                    raise ValueError(
                        f"batch leaf of shape {leaf.shape} cannot be split "
                        f"{dp} ways along the microbatch-size axis"
                    )
                sharded[k] = np.ascontiguousarray(leaf[:, : leaf.shape[1] // dp])
            sharded_args = tree_unflatten(in_tree, sharded)
            jaxpr, _, out_tree = ir_trace(self.train_step, *sharded_args)
        spmd_config = (
            (self.mesh.spmd_mesh, self.mesh.rules) if self.mesh.spmd_mesh else None
        )
        self.compiled = compile_train_step(
            jaxpr,
            self.schedule,
            dp_size=dp,
            comm_strategy=self.comm_strategy,
            spmd_config=spmd_config,
            cost_fn=self.cost_fn,
            task_backend=self.task_backend,
            n_actors=self.mesh.n_pipeline_actors,
            memory_budget=self.memory_budget,
            optimize=self.optimize,
        )
        self._out_tree = out_tree
        self._plan = _Plan.bind(self.compiled, flat, self.mesh.n_pipeline_actors)

    # -- execution ---------------------------------------------------------------
    def __call__(self, *args: Any) -> Any:
        flat, in_tree = tree_flatten(args)
        # recompile on a changed shape or dtype, read off the leaves (a
        # non-array leaf is keyed by its type; an ``engine="mp"`` output
        # handle like the array it stands for); avals are built in _compile
        shape_key = [
            (x.shape, x.dtype) if isinstance(x, (np.ndarray, RemoteArray)) else type(x)
            for x in flat
        ]
        if self.compiled is None or shape_key != self._shape_key:
            self._compile(args, flat, in_tree)
            self._shape_key = shape_key
        compiled = self.compiled
        assert compiled is not None

        if self.mesh.codegen_actor and self.mesh.engine != "mp":
            return self._call_fused(compiled, flat)

        if self.mesh.engine == "mp":
            return self._call_mp(compiled, flat)
        executor = MpmdExecutor(
            compiled.n_actors,
            cost_model=self.mesh.cost_model,
            comm_mode=self.mesh.comm_mode,
            engine=self.mesh.engine,
        )
        for (actor, uid), value, nbytes, constant in self._placements(flat):
            executor.place(
                actor, BufferRef(uid), value, nbytes, pinned=True, constant=constant
            )

        # seed the event engine's ready-queue from the schedule IR: ranks
        # whose first slot is dependency-free are polled first (replicated
        # across data-parallel groups)
        wake_order = None
        if compiled.schedule_ir is not None:
            P = self.mesh.n_pipeline_actors
            ranks = compiled.schedule_ir.initial_ready_ranks()
            wake_order = [
                replica * P + rank for replica in range(compiled.dp_size) for rank in ranks
            ]
        self.last_result = executor.execute(compiled.programs, wake_order=wake_order)
        # the peaks, not the executor: its stores would pin this call's
        # inputs and outputs until the next call
        self._peaks = [s.peak_bytes for s in executor.stores]

        return self._outputs(compiled.output_sources, flat,
                             lambda actor, uid: executor.fetch(actor, BufferRef(uid)))

    def _call_mp(self, compiled: CompiledStep, flat: list) -> Any:
        """``engine="mp"``: leaves to run commands and reports to outputs
        through the plan, with no driver-side store.  An output handle is
        placed as it is (a reference where its rank holds it)."""
        plan = self._plan
        inputs = [{} for _ in range(compiled.n_actors)]
        for k, targets, nbytes, split in plan.inputs:
            value = flat[k]
            if split:
                shards = np.split(np.asarray(value), compiled.dp_size, axis=1)
                for replica, rank, uid in targets:
                    inputs[rank][uid] = (shards[replica], nbytes, True, False)
                continue
            if type(value) is not RemoteArray:
                value = np.asarray(value)
            entry = (value, nbytes, True, False)
            for _, rank, uid in targets:
                inputs[rank][uid] = entry
        for rank, uid, entry in plan.constants:
            inputs[rank][uid] = entry

        pool = self.mesh._acquire_mp_pool(compiled.n_actors)
        future = pool.submit(
            compiled.programs, inputs, comm_mode=self.mesh.comm_mode,
            program_key=compiled.program_key,
        )
        self.last_result = future.result()
        self._peaks = future.peak_bytes
        outputs = future.outputs
        return self._outputs(plan.outputs, flat, lambda rank, uid: outputs[rank][uid][0])

    def _outputs(self, sources, flat: list, read) -> Any:
        """The caller's output tree: per source a literal, one of this
        call's leaves, or ``read(rank, uid)``."""
        return tree_unflatten(self._out_tree, [
            src[1] if src[0] == "literal" else flat[src[1]] if src[0] == "input"
            else read(*src[1:]) for src in sources
        ])

    def _placements(self, flat: list):
        """``((rank, uid), value, nbytes, constant)`` of every placed input
        and constant, for the in-process engines."""
        dp = self.compiled.dp_size
        for k, targets, nbytes, split in self._plan.inputs:
            value = np.asarray(flat[k])
            shards = np.split(value, dp, axis=1) if split else [value] * dp
            for replica, rank, uid in targets:
                yield (rank, uid), shards[replica], nbytes, False
        for rank, uid, (value, nbytes, _, _) in self._plan.constants:
            yield (rank, uid), value, nbytes, True

    def _call_fused(self, compiled: CompiledStep, flat: list) -> Any:
        """``codegen_actor=True`` in-process fast path: run the whole mesh's
        step through one exec-compiled driver (:mod:`repro.runtime.actorgen`),
        skipping the instruction-level engine entirely."""
        import time

        from repro.runtime.actorgen import fuse_mesh

        placed = {key: value for key, value, _, _ in self._placements(flat)}
        cached = self._fused
        if cached is None or cached[0] is not compiled:
            out_keys = [
                (src[1], src[2])
                for src in compiled.output_sources
                if src[0] == "buffer"
            ]
            driver = fuse_mesh(compiled.programs, out_keys, list(placed))
            cached = self._fused = (compiled, driver, out_keys)
        _, driver, out_keys = cached

        t0 = time.perf_counter()
        fetched = driver(placed)
        wall = time.perf_counter() - t0
        # synthetic summary: the fused driver trades the virtual-time
        # timeline for dispatch — makespan here is real wall-clock
        self.last_result = ExecutionResult(
            makespan=wall,
            timeline=[],
            actor_finish=[wall] * compiled.n_actors,
            p2p_bytes=driver.p2p_bytes,
            p2p_count=driver.p2p_count,
            engine="fused",
            visits=driver.n_instructions,
            repolls=0,
        )
        self._peaks = None

        it = iter(fetched)
        return self._outputs(compiled.output_sources, flat, lambda *_: next(it))

    # -- diagnostics ------------------------------------------------------------
    @property
    def peak_bytes_per_actor(self) -> list[int]:
        """Peak object-store occupancy of the last call, per actor."""
        if self.last_result is None:
            raise RuntimeError("call the step function first")
        if self._peaks is None:
            raise RuntimeError(
                "codegen_actor=True skips the object stores; peak-memory "
                "accounting needs an unfused run"
            )
        return list(self._peaks)

    def __repr__(self) -> str:
        status = "compiled" if self.compiled is not None else "uncompiled"
        return f"StepFunction({self.train_step.__name__}, {status})"


class _Plan(NamedTuple):
    """Where a compiled step's inputs go and its outputs come from, bound
    once per compile; ``rank`` is ``replica · P + actor``.  ``inputs``:
    ``(flat index, ((replica, rank, uid), ...), nbytes, split)`` per
    placed input (a ``split`` batch leaf sends each replica its shard
    along the microbatch-size axis; ``nbytes`` is per shard).
    ``constants``: ``(rank, uid, (value, nbytes, True, True))``.
    ``outputs``: ``compiled.output_sources`` with a constant the program
    returns unchanged as a ``("literal", value)``: the rest of a
    ``("buffer", rank, uid)`` a rank produced."""

    inputs: list
    constants: list
    outputs: list

    @classmethod
    def bind(cls, compiled: CompiledStep, flat: list, P: int) -> "_Plan":
        dp = compiled.dp_size
        inputs = []
        for k, placements in enumerate(compiled.input_placements):
            if placements:
                split = dp > 1 and k in compiled.batch_input_indices
                targets = tuple((replica, replica * P + actor, uid)
                                for replica in range(dp) for actor, uid in placements)
                nbytes = abstractify(flat[k]).nbytes // (dp if split else 1)
                inputs.append((k, targets, nbytes, split))
        constants = [
            (replica * P + actor, uid, (np.asarray(lit.value), lit.aval.nbytes, True, True))
            for actor, uid, lit in compiled.literal_placements
            for replica in range(dp)
        ]
        fixed = {(rank, uid): entry[0] for rank, uid, entry in constants}
        outputs = [("literal", fixed[src[1:]]) if src[0] == "buffer" and src[1:] in fixed
                   else src for src in compiled.output_sources]
        return cls(inputs, constants, outputs)
