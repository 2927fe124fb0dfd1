"""Per-actor instruction streams (§4.4's fused MPMD "program").

The JaxPP compiler lowers the unrolled task graph into one flat instruction
list per actor — run-task, send, recv, delete, accumulate, all-reduce —
which the driver dispatches in a single RPC per actor. The executor in
:mod:`repro.runtime.executor` interprets these streams for real (numeric
mode) or symbolically under a cost model (simulation mode).

The stream is per *task*, not per buffer.  A :class:`Delete` frees every
buffer that dies at one point of the program, an :class:`Accumulate`
commits all the gradients of one task instance, and the values one task
hands to exactly one later task of the same actor travel as ONE
**tuple-valued buffer** (an *edge bundle*): a single store entry whose
payload is the tuple of the member arrays and whose ``nbytes`` is their
sum, packed by the producer's and unpacked by the consumer's
:class:`Bundled` payload adaptor.  A bundle's lifetime is exact, not an
approximation of its members': the compiler only bundles values that
nothing but that one consumer ever touches, so all of them are defined
by the same instruction and die at the same instruction anyway — the
store's byte occupancy is the same after every instruction as with one
buffer per value (PipeDream stashes a stage's saved activations the same
way, as one unit per in-flight minibatch).
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Any, Callable

__all__ = [
    "BufferRef",
    "Instruction",
    "RunTask",
    "Send",
    "Recv",
    "Delete",
    "Accumulate",
    "AllReduce",
    "Bundled",
    "brief",
]


@dataclasses.dataclass(frozen=True)
class BufferRef:
    """A handle naming one buffer in some actor's object store.

    ``uid`` is unique across the whole program; the same uid on two actors
    refers to the two ends of a transfer.
    """

    uid: str

    def __repr__(self) -> str:
        return f"&{self.uid}"


class Instruction:
    """Base class for actor instructions (see subclasses)."""

    __slots__ = ()


@dataclasses.dataclass
class RunTask(Instruction):
    """Execute one SPMD task (a pipeline-stage computation).

    Attributes:
        name: display name, e.g. ``"f1(3)"`` — stage & microbatch like Fig 3.
        in_refs: operand buffers (must all be present & arrived).
        out_refs: buffers the task defines.
        fn: executable payload — ``None`` in simulation mode. Numeric mode
            uses a callable ``fn(list_of_arrays) -> list_of_arrays``.
        cost: virtual seconds of device time (simulation mode; numeric mode
            may leave 0). Dispatch overhead is added by the cost model.
        meta: free-form details (stage id, microbatch, kind) for timelines.
    """

    name: str
    in_refs: list[BufferRef]
    out_refs: list[BufferRef]
    fn: Any = None
    cost: float = 0.0
    meta: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Send(Instruction):
    """Post an asynchronous point-to-point send of ``ref`` to ``dst``.

    NCCL semantics: the k-th send from A to B matches the k-th recv from A
    posted on B; matching order must agree or the program deadlocks
    (Figure 5). ``key`` is carried for cross-checking that matched pairs
    refer to the same logical value.
    """

    ref: BufferRef
    dst: int
    key: str


@dataclasses.dataclass
class Recv(Instruction):
    """Post an asynchronous receive into ``ref`` from ``src`` (see
    :class:`Send` for matching semantics)."""

    ref: BufferRef
    src: int
    key: str
    nbytes: int = 0  # simulation mode: expected transfer size


def _elided(items: list[str]) -> str:
    """``a, b, … +25``: the first two items and how many follow."""
    if len(items) <= 3:
        return ", ".join(items)
    return ", ".join(items[:2]) + f", … +{len(items) - 2}"


@dataclasses.dataclass(repr=False)
class Delete(Instruction):
    """Free buffers (§4.3) — every buffer whose last use is the
    instruction just before this one, in one instruction.

    Each ref is freed on its own terms: a buffer with an outstanding
    send is deferred into the actor's pending-deletions queue and retried
    by later deletes — exactly the reclamation scheme the paper
    describes — while the others of the group are freed at once.
    """

    refs: tuple[BufferRef, ...]

    def __repr__(self) -> str:
        return f"Delete({_elided([repr(r) for r in self.refs])})"


@dataclasses.dataclass(repr=False)
class Accumulate(Instruction):
    """Gradient accumulation: ``acc += value`` for every ``(acc, value)``
    of ``pairs``, in order (first use of an ``acc`` initialises it).

    This is the loop-carried state of ``accumulate_grads`` made explicit in
    the instruction stream so that schedules are free to interleave
    microbatches arbitrarily.  One instruction commits all the gradients
    of one task instance (or one zero-bubble W unit).  With
    ``delete_value`` each value is freed right after its own add, so a
    group never holds more than a per-pair stream would; the compiler's
    liveness pass sets the flag when every value of the group dies here.
    """

    pairs: tuple[tuple[BufferRef, BufferRef], ...]
    delete_value: bool = False

    @property
    def name(self) -> str:
        """Timeline name of the one ``accum`` event an engine records for
        the instruction: the first accumulator, plus how many follow."""
        first = self.pairs[0][0].uid
        return first if len(self.pairs) == 1 else f"{first}+{len(self.pairs) - 1}"

    def __repr__(self) -> str:
        body = _elided([f"{acc!r}+={value!r}" for acc, value in self.pairs])
        return f"Accumulate({body}{', delete_value' if self.delete_value else ''})"


@dataclasses.dataclass
class AllReduce(Instruction):
    """Cross-actor collective (data-parallel gradient sync across pipeline
    replicas). All actors listing the same ``group_key`` rendezvous; each
    contributes ``ref`` and receives the elementwise sum."""

    ref: BufferRef
    group: tuple[int, ...]
    group_key: str


def _getter(index: tuple[int, ...]) -> Callable[[Any], Any]:
    """``itemgetter`` that yields a sequence for any number of indices
    (a bare ``itemgetter`` returns a scalar for one and refuses none)."""
    if len(index) > 1:
        return itemgetter(*index)
    return itemgetter(slice(index[0], index[0] + 1) if index else slice(0))


class Bundled:
    """Payload adaptor for a task that reads or defines tuple-valued
    buffers (edge bundles, see the module docstring).

    ``fn`` is the task's own payload, which knows nothing of bundles: it
    takes its flat operand list and returns its flat output list.  The
    adaptor sits between it and the engine, whose ``RunTask`` has one ref
    per bundle instead of one per member.

    Attributes:
        fn: the inner payload.
        in_index: ``None`` when no operand is a bundle; else, per
            ``RunTask.in_refs`` position, the positions of ``fn``'s flat
            operand list that operand fills — one for a plain buffer,
            two or more for a bundle (its members, in bundle order).
        out_keep: positions of ``fn``'s output list that stay buffers of
            their own — the leading ``RunTask.out_refs``, in order.
        out_groups: per trailing ``out_ref``, the output positions packed
            into that bundle.

    Built once per (payload, layout) by the compiler, so the microbatch
    instances of a task share one adaptor the way they share ``fn``.
    Pickles as its four fields (the gather/pack plans are ``itemgetter``s,
    rebuilt on arrival), so it is as pickle-clean as ``fn`` is.  The fused
    mesh driver (:func:`repro.runtime.actorgen.fuse_mesh`) reads the layout
    and calls ``fn`` directly on locals.
    """

    __slots__ = (
        "fn", "in_index", "out_keep", "out_groups",
        "_bundles", "_gather", "_keep", "_pack",
    )

    def __init__(
        self,
        fn: Callable[[Any], list],
        in_index: tuple[tuple[int, ...], ...] | None,
        out_keep: tuple[int, ...],
        out_groups: tuple[tuple[int, ...], ...],
    ):
        self.fn = fn
        self.in_index = in_index
        self.out_keep = out_keep
        self.out_groups = out_groups
        self._bundles = tuple(
            p for p, idx in enumerate(in_index or ()) if len(idx) > 1
        )
        self._gather = None
        if self._bundles:
            # operands, then every bundle's members appended -> fn's order
            source: dict[int, int] = {}
            tail = len(in_index)
            for p, idx in enumerate(in_index):
                if len(idx) == 1:
                    source[idx[0]] = p
                else:
                    for i in idx:
                        source[i] = tail
                        tail += 1
            self._gather = itemgetter(*(source[i] for i in range(len(source))))
        self._keep = _getter(out_keep)
        self._pack = [itemgetter(*group) for group in out_groups]

    def __call__(self, vals: list) -> list:
        if self._gather is not None:
            cat = list(vals)
            for p in self._bundles:
                cat += vals[p]
            vals = self._gather(cat)
        outs = self.fn(vals)
        if not self._pack:
            return outs
        packed = list(self._keep(outs))
        for pack in self._pack:
            packed.append(pack(outs))
        return packed

    def __reduce__(self):
        return (Bundled, (self.fn, self.in_index, self.out_keep, self.out_groups))

    def __repr__(self) -> str:
        n_in = len(self._bundles)
        return f"Bundled({self.fn!r}, {n_in} in / {len(self.out_groups)} out bundles)"


def brief(instr: Instruction) -> str:
    """One short line naming ``instr`` for error reports: a task by name
    and ref counts, anything else by its (elided) ``repr``."""
    if isinstance(instr, RunTask):
        return f"RunTask({instr.name!r}, {len(instr.in_refs)} in, {len(instr.out_refs)} out)"
    return repr(instr)
