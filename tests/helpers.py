"""Shared test helpers: finite-difference gradient checking, the static
invariants of a compiled step's instruction programs, a fresh
event-engine run of a step's programs, and a count of the executors and
stores a step builds."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.ir import tree_flatten, tree_unflatten, value_and_grad
from repro.runtime import Buffer, MpmdExecutor, ObjectStore
from repro.runtime.instructions import (
    Accumulate,
    AllReduce,
    BufferRef,
    Bundled,
    Delete,
    Recv,
    RunTask,
    Send,
)

__all__ = [
    "numeric_grad", "check_grads", "rng", "check_program", "payload", "event_run",
    "fused_driver", "count_constructions",
]


def rng(seed: int = 0) -> np.random.RandomState:
    """Deterministic RandomState for tests."""
    return np.random.RandomState(seed)


def numeric_grad(
    f: Callable[..., float],
    args: Sequence,
    argnum: int = 0,
    eps: float = 1e-3,
) -> object:
    """Central finite-difference gradient of scalar ``f`` w.r.t.
    ``args[argnum]`` (a pytree of float arrays)."""
    args = list(args)
    leaves, tree = tree_flatten(args[argnum])
    grads = []
    for li, leaf in enumerate(leaves):
        leaf = np.asarray(leaf, dtype=np.float64)
        g = np.zeros_like(leaf)
        it = np.nditer(leaf, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            d = np.zeros_like(leaf)
            d[idx] = eps
            def _with(delta):
                new_leaves = list(leaves)
                new_leaves[li] = np.asarray(leaf + delta, dtype=np.float32)
                new_args = list(args)
                new_args[argnum] = tree_unflatten(tree, new_leaves)
                return float(f(*new_args))
            g[idx] = (_with(d) - _with(-d)) / (2 * eps)
        grads.append(g.astype(np.float32))
    return tree_unflatten(tree, grads)


def check_grads(
    f: Callable[..., float],
    args: Sequence,
    argnum: int = 0,
    atol: float = 2e-2,
    rtol: float = 2e-2,
    eps: float = 1e-3,
) -> None:
    """Assert AD gradient of ``f`` matches finite differences."""
    _, ad = value_and_grad(f, argnums=argnum)(*args)
    num = numeric_grad(f, args, argnum, eps=eps)
    ad_leaves, _ = tree_flatten(ad)
    num_leaves, _ = tree_flatten(num)
    assert len(ad_leaves) == len(num_leaves)
    for a, n in zip(ad_leaves, num_leaves):
        np.testing.assert_allclose(np.asarray(a), n, atol=atol, rtol=rtol)


def payload(fn):
    """A task's own payload, whether or not it runs behind a ``Bundled``
    adaptor."""
    return fn.fn if isinstance(fn, Bundled) else fn


def event_run(step, *args):
    """Run ``step``'s compiled programs once on a fresh event-engine
    :class:`MpmdExecutor` under the mesh's cost model and comm mode, with
    ``args`` placed as ``step`` places them: ``(outputs, result, peaks)``."""
    compiled, mesh = step.compiled, step.mesh
    flat, _ = tree_flatten(args)
    ex = MpmdExecutor(compiled.n_actors, cost_model=mesh.cost_model, comm_mode=mesh.comm_mode)
    for (actor, uid), value, nbytes, constant in step._placements(flat):
        ex.place(actor, BufferRef(uid), value, nbytes, pinned=True, constant=constant)
    ranks = compiled.schedule_ir.initial_ready_ranks() if compiled.schedule_ir else []
    P = mesh.n_pipeline_actors
    wake = [replica * P + r for replica in range(compiled.dp_size) for r in ranks]
    result = ex.execute(compiled.programs, wake_order=wake or None)
    outputs = step._outputs(
        compiled.output_sources, flat, lambda actor, uid: ex.fetch(actor, BufferRef(uid))
    )
    return outputs, result, [s.peak_bytes for s in ex.stores]


def fused_driver(step):
    """The whole-mesh driver a warm ``engine="event"`` call of ``step``
    runs, or ``None`` while its calls have not built one for the current
    compiled programs."""
    record, compiled = step._record, step.compiled
    if record is None or record[0] is not compiled or record[1] is not compiled.programs:
        return None
    return record[4]


def count_constructions(monkeypatch) -> list[str]:
    """The class names of the ``ObjectStore`` / ``Buffer`` /
    ``MpmdExecutor`` instances built from now on, in order."""
    built: list[str] = []
    for cls in (ObjectStore, Buffer, MpmdExecutor):
        init = cls.__init__

        def counted(self, *args, _init=init, **kw):
            built.append(type(self).__name__)
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


#: loop outputs nothing reads (a gradient the update ignores, a
#: data-parallel mean of one) are defined by an instruction that is also
#: their last use, and stay live to the end of the step
_MAY_STAY_LIVE = ("acc.", "combine.", "dpm.")


def check_program(compiled, fifo: bool = True) -> None:
    """Static invariants of a :class:`~repro.core.compile.CompiledStep`'s
    per-actor programs (a first slice of ROADMAP's static verifier):

    - per actor, every uid is defined once, and never one the driver places;
    - every read is of a live buffer: defined or placed earlier, not yet
      freed by a ``Delete`` or an ``Accumulate(delete_value=True)``;
    - every buffer a program defines is freed exactly once, unless it is a
      step output (which must be live at the end) or an unread loop output;
    - every ``Bundled`` layout matches its ``RunTask``'s ref counts, and a
      bundle is read as exactly the group its producer packed;
    - ``Send`` / ``Recv`` keys pair FIFO on every channel (``fifo=False``
      for ``comm_strategy="naive"``, whose point is that they need not:
      then every channel carries the same keys at both ends, in any order).
    """
    P = compiled.n_actors // compiled.dp_size
    placed: list[set[str]] = [set() for _ in range(compiled.n_actors)]
    for replica in range(compiled.dp_size):
        for placements in compiled.input_placements:
            for actor, uid in placements:
                placed[replica * P + actor].add(uid)
        for actor, uid, _ in compiled.literal_placements:
            placed[replica * P + actor].add(uid)
    outputs = {src[2] for src in compiled.output_sources if src[0] == "buffer"}

    sends: dict[tuple[int, int], list[str]] = {}
    recvs: dict[tuple[int, int], list[str]] = {}
    for a, prog in enumerate(compiled.programs):
        live = set(placed[a])
        defined: set[str] = set()
        group_size: dict[str, int] = {}  # bundle uid -> members packed

        def read(ref, k):
            assert ref.uid in live, f"actor {a} [{k}] reads {ref} while it is not live"

        def define(ref, k):
            assert ref.uid not in defined, f"actor {a} [{k}] defines {ref} again"
            assert ref.uid not in placed[a], f"actor {a} [{k}] defines placed {ref}"
            defined.add(ref.uid)
            live.add(ref.uid)

        def free(ref, k):
            assert ref.uid in live, f"actor {a} [{k}] frees {ref} while it is not live"
            assert ref.uid in defined, f"actor {a} [{k}] frees {ref}, which it never defined"
            assert ref.uid not in outputs, f"actor {a} [{k}] frees step output {ref}"
            live.discard(ref.uid)

        for k, instr in enumerate(prog):
            if isinstance(instr, RunTask):
                widths = [1] * len(instr.in_refs)
                fn = instr.fn
                if isinstance(fn, Bundled):
                    n_out = len(fn.out_keep) + sum(map(len, fn.out_groups))
                    assert sorted([*fn.out_keep, *sum(fn.out_groups, ())]) == list(range(n_out))
                    assert len(fn.out_keep) + len(fn.out_groups) == len(instr.out_refs), instr.name
                    for r, group in zip(instr.out_refs[len(fn.out_keep):], fn.out_groups):
                        assert len(group) >= 2, (instr.name, r)
                        group_size[r.uid] = len(group)
                    if fn.in_index is not None:
                        widths = [len(idx) for idx in fn.in_index]
                        assert len(widths) == len(instr.in_refs), instr.name
                        assert sorted(sum(fn.in_index, ())) == list(range(sum(widths)))
                if "out_nbytes" in instr.meta:
                    assert len(instr.meta["out_nbytes"]) == len(instr.out_refs), instr.name
                for r, width in zip(instr.in_refs, widths):
                    read(r, k)
                    assert group_size.get(r.uid, 1) == width, (
                        f"actor {a} [{k}] {instr.name} reads {r} as {width} value(s), "
                        f"its producer packed {group_size.get(r.uid, 1)}"
                    )
                for r in instr.out_refs:
                    define(r, k)
            elif isinstance(instr, Send):
                read(instr.ref, k)
                sends.setdefault((a, instr.dst), []).append(instr.key)
            elif isinstance(instr, Recv):
                define(instr.ref, k)
                recvs.setdefault((instr.src, a), []).append(instr.key)
            elif isinstance(instr, Accumulate):
                for acc, value in instr.pairs:
                    read(value, k)
                    if acc.uid not in live:
                        define(acc, k)
                    if instr.delete_value:
                        free(value, k)
            elif isinstance(instr, AllReduce):
                read(instr.ref, k)
            elif isinstance(instr, Delete):
                for r in instr.refs:
                    free(r, k)
            else:
                raise AssertionError(f"actor {a} [{k}]: unknown instruction {instr!r}")

        leaked = {
            uid for uid in live - placed[a] - outputs if not uid.startswith(_MAY_STAY_LIVE)
        }
        assert not leaked, f"actor {a} never frees {sorted(leaked)}"
        for src in compiled.output_sources:
            if src[0] == "buffer" and src[1] == a:
                assert src[2] in live, f"step output {src[2]!r} is not live on actor {a} at the end"
    if not fifo:
        sends, recvs = ({c: sorted(ks) for c, ks in d.items()} for d in (sends, recvs))
    assert sends == recvs, "send/recv keys do not pair on every channel"
