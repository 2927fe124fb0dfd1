"""Whole-mesh loop fusion: instruction streams -> one generated driver.

The codegen task backend (:mod:`repro.ir.codegen`) removes per-equation
dispatch *inside* one stage task; what remains of a steady-state step is
the engine's instruction loop itself — one Python-level dispatch (plus
store, arrival and timeline bookkeeping) per instruction per microbatch.
When the whole mesh lives in one process (``RemoteMesh(codegen_actor=True)``
on an in-process engine), :func:`fuse_mesh` freezes that loop too, the
same way the task backend freezes a jaxpr: walk the per-actor instruction
streams once, emit straight-line Python source, ``exec``-compile it, and
run the generated driver on every subsequent step.

All actors' programs are merged into ONE driver function in global
data-dependency order: a matched send/recv pair collapses into a local
rebind (``b12 = b7``), tasks call their compiled payloads directly on
locals, deletes become ``= None`` and accumulates become
``acc = acc + v``.  Steady-state dispatch is O(task calls), and
point-to-point transfers cost nothing at all.  Values are bit-identical
to the event engine (same payload callables, same operand objects, same
all-reduce fold order); what the fused driver deliberately does *not*
produce is the virtual-time timeline and wait profile — introspection is
the price of fusion, so the flag refuses to combine with a
``cost_model``.  The emitted text is kept as ``MeshDriver.source`` for
inspection, mirroring ``CodegenProgram.source``.

``engine="mp"`` has no generated driver: every rank runs
:meth:`repro.runtime.mp._Worker._run_program`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.runtime.instructions import (
    Accumulate,
    AllReduce,
    Bundled,
    Delete,
    Instruction,
    Recv,
    RunTask,
    Send,
    brief,
)

__all__ = ["FusionError", "MeshDriver", "fuse_mesh"]


class FusionError(RuntimeError):
    """The instruction streams cannot be fused into a straight-line driver
    (mismatched send/recv pairing, simulation-mode tasks without payloads,
    or a dependency cycle that would also deadlock the real engines)."""


class MeshDriver:
    """One exec-compiled function executing a whole mesh's step.

    Call with a dict mapping ``(actor, uid)`` to the placed input arrays;
    returns the requested output buffers as a list, in the order the
    ``outputs`` argument of :func:`fuse_mesh` listed them.

    Attributes:
        source: the generated Python text (debugging / ``dump-codegen``).
        n_instructions: instructions fused away across all programs.
        n_tasks: RunTask payload calls the driver makes per step.
        p2p_count: send/recv pairs collapsed into local rebinds.
        p2p_bytes: their total payload bytes (from the compiler's size
            hints), reported in the synthetic
            :class:`~repro.runtime.executor.ExecutionResult`.
    """

    __slots__ = (
        "_fn", "source", "n_instructions", "n_tasks", "p2p_count", "p2p_bytes",
    )

    def __init__(self, fn, source, n_instructions, n_tasks, p2p_count, p2p_bytes):
        self._fn = fn
        self.source = source
        self.n_instructions = n_instructions
        self.n_tasks = n_tasks
        self.p2p_count = p2p_count
        self.p2p_bytes = p2p_bytes

    def __call__(self, placed: dict) -> list:
        return self._fn(placed)


def _match_pairs(programs: Sequence[Sequence[Instruction]]):
    """FIFO-match every send to its recv (NCCL semantics: the k-th send
    from A to B pairs with the k-th recv from A posted on B)."""
    sends: dict[tuple[int, int], list[Send]] = {}
    recvs: dict[tuple[int, int], list[Recv]] = {}
    for a, prog in enumerate(programs):
        for instr in prog:
            if isinstance(instr, Send):
                sends.setdefault((a, instr.dst), []).append(instr)
            elif isinstance(instr, Recv):
                recvs.setdefault((instr.src, a), []).append(instr)
    pair_of_send: dict[int, tuple[int, Recv]] = {}
    for chan in set(sends) | set(recvs):
        ss, rr = sends.get(chan, []), recvs.get(chan, [])
        if len(ss) != len(rr):
            raise FusionError(
                f"channel {chan[0]}->{chan[1]} has {len(ss)} sends but "
                f"{len(rr)} recvs; streams cannot be fused"
            )
        for s, r in zip(ss, rr):
            if s.key != r.key:
                raise FusionError(
                    f"channel {chan[0]}->{chan[1]} pairs send {s.key!r} "
                    f"with recv {r.key!r}; matching order disagrees"
                )
            pair_of_send[id(s)] = (chan[1], r)
    return pair_of_send


def fuse_mesh(
    programs: Sequence[Sequence[Instruction]],
    outputs: Sequence[tuple[int, str]],
    initial: Sequence[tuple[int, str]],
) -> MeshDriver:
    """Fuse all actors' instruction streams into one driver function.

    Instructions are merged in global data-dependency order (a valid
    topological interleaving; values are order-independent because every
    task consumes exact operand objects).  The all-reduce fold replicates
    the engines' deterministic sorted-actor order, so results stay
    bit-identical to the unfused engines.

    Args:
        programs: one instruction stream per actor (numeric mode — every
            RunTask must carry its payload callable).
        outputs: ``(actor, uid)`` buffers the driver must return, in order.
        initial: ``(actor, uid)`` keys of the placed input buffers.
    """
    pair_of_send = _match_pairs(programs)
    n = len(programs)
    env: dict[str, Any] = {}
    names: dict[tuple[int, str], str] = {}
    out_set = set(outputs)

    def name(actor: int, uid: str) -> str:
        key = (actor, uid)
        nm = names.get(key)
        if nm is None:
            nm = names[key] = f"b{len(names)}"
        return nm

    # an edge bundle whose layout a Bundled adaptor gives away is never
    # built: its parts are locals of their own, key -> their names
    parts: dict[tuple[int, str], list[str]] = {}

    def operand(actor: int, uid: str) -> str:
        """Source text of one whole buffer."""
        mem = parts.get((actor, uid))
        return name(actor, uid) if mem is None else f"({', '.join(mem)})"

    def unpacked(actor: int, uid: str, n: int) -> list[str]:
        """The member locals of a bundle, unpacking it first when its
        producer was opaque and built the tuple."""
        mem = parts.get((actor, uid))
        if mem is None:
            mem = parts[(actor, uid)] = [name(actor, f"{uid}[{k}]") for k in range(n)]
            lines.append(f"    {', '.join(mem)} = {names[(actor, uid)]}")
        return mem

    lines: list[str] = []
    avail: set[tuple[int, str]] = set()
    for actor, uid in initial:
        lines.append(f"    {name(actor, uid)} = _in[({actor}, {uid!r})]")
        avail.add((actor, uid))

    pcs = [0] * n
    posted: dict[str, dict[int, None]] = {}
    done_groups: set[str] = set()
    n_instructions = sum(len(p) for p in programs)
    n_tasks = 0
    p2p_count = 0
    p2p_bytes = 0
    remaining = n_instructions
    progress = True
    while remaining and progress:
        progress = False
        for a in range(n):
            prog = programs[a]
            while pcs[a] < len(prog):
                instr = prog[pcs[a]]
                if isinstance(instr, RunTask):
                    if instr.fn is None:
                        # cost-only markers (zero-bubble W units) carry no
                        # payload and no refs: pure no-ops once fused
                        if instr.in_refs or instr.out_refs:
                            raise FusionError(
                                f"task {instr.name!r} has no payload "
                                "(simulation mode); whole-actor fusion is "
                                "numeric-only"
                            )
                        pcs[a] += 1
                        remaining -= 1
                        progress = True
                        continue
                    if any((a, r.uid) not in avail for r in instr.in_refs):
                        break
                    fn = instr.fn
                    ins = [operand(a, r.uid) for r in instr.in_refs]
                    if not isinstance(fn, Bundled):
                        outs = [name(a, r.uid) for r in instr.out_refs]
                    else:
                        # see through the adaptor: call the task's own
                        # payload on the flat operand list, bind its flat
                        # outputs — no tuple is packed, no wrapper called
                        if fn.in_index is not None:
                            flat: dict[int, str] = {}
                            for r, src, idx in zip(instr.in_refs, ins, fn.in_index):
                                if len(idx) > 1:
                                    flat.update(zip(idx, unpacked(a, r.uid, len(idx))))
                                else:
                                    flat[idx[0]] = src
                            ins = [flat[i] for i in range(len(flat))]
                        bound = {
                            i: name(a, r.uid) for i, r in zip(fn.out_keep, instr.out_refs)
                        }
                        for r, group in zip(instr.out_refs[len(bound):], fn.out_groups):
                            mem = parts[(a, r.uid)] = [
                                name(a, f"{r.uid}[{k}]") for k in range(len(group))
                            ]
                            bound.update(zip(group, mem))
                        outs = [bound[i] for i in range(len(bound))]
                        fn = fn.fn
                    tag = f"_t{n_tasks}"
                    env[tag] = fn
                    n_tasks += 1
                    sep = "," if len(outs) == 1 else ""
                    lines.append(
                        f"    {', '.join(outs)}{sep} = {tag}([{', '.join(ins)}])"
                        f"  # {instr.name}"
                    )
                    for r in instr.out_refs:
                        avail.add((a, r.uid))
                elif isinstance(instr, Send):
                    if (a, instr.ref.uid) not in avail:
                        break
                    dst, recv = pair_of_send[id(instr)]
                    lines.append(
                        f"    {name(dst, recv.ref.uid)} = {name(a, instr.ref.uid)}"
                        f"  # {a}->{dst} {instr.key}"
                    )
                    avail.add((dst, recv.ref.uid))
                    p2p_count += 1
                    p2p_bytes += recv.nbytes
                elif isinstance(instr, Recv):
                    # delivery happens at the paired send; just wait for it
                    if (a, instr.ref.uid) not in avail:
                        break
                elif isinstance(instr, Delete):
                    dead: list[str] = []
                    for r in instr.refs:
                        key = (a, r.uid)
                        if key not in out_set:
                            dead += parts.get(key, ())
                            if key in names:
                                dead.append(names[key])
                        avail.discard(key)
                    if dead:
                        lines.append(f"    {' = '.join(dead)} = None")
                elif isinstance(instr, Accumulate):
                    if any((a, value.uid) not in avail for _, value in instr.pairs):
                        break
                    for acc_ref, value in instr.pairs:
                        acc, val = (a, acc_ref.uid), (a, value.uid)
                        if acc in avail:
                            lines.append(
                                f"    {name(*acc)} = {names[acc]} + {names[val]}"
                            )
                        else:
                            lines.append(f"    {name(*acc)} = {names[val]}")
                            avail.add(acc)
                        if instr.delete_value:
                            lines.append(f"    {names[val]} = None")
                            avail.discard(val)
                elif isinstance(instr, AllReduce):
                    gk = instr.group_key
                    if gk not in done_groups:
                        if (a, instr.ref.uid) not in avail:
                            break
                        group_posts = posted.setdefault(gk, {})
                        group_posts[a] = None
                        if set(group_posts) != set(instr.group):
                            break  # park until the whole group arrives
                        # rendezvous complete: fold in sorted-actor order
                        # (the engines' deterministic reduction order) and
                        # hand every participant the same result object
                        refs = {
                            m: next(
                                i.ref
                                for i in programs[m]
                                if isinstance(i, AllReduce) and i.group_key == gk
                            )
                            for m in instr.group
                        }
                        members = sorted(instr.group)
                        fold = names[(members[0], refs[members[0]].uid)]
                        for m in members[1:]:
                            fold = f"{fold} + {names[(m, refs[m].uid)]}"
                        tot = f"_ar{len(done_groups)}"
                        lines.append(f"    {tot} = {fold}  # allreduce {gk}")
                        for m in members:
                            lines.append(f"    {name(m, refs[m].uid)} = {tot}")
                        done_groups.add(gk)
                else:
                    raise FusionError(f"unknown instruction {instr!r}")
                pcs[a] += 1
                remaining -= 1
                progress = True
    if remaining:
        stuck = [
            f"actor {a} at [{pcs[a]}] {brief(programs[a][pcs[a]])}"
            for a in range(n)
            if pcs[a] < len(programs[a])
        ]
        raise FusionError(
            "instruction streams deadlock under dataflow order:\n  "
            + "\n  ".join(stuck)
        )

    rets = ", ".join(names[key] for key in outputs)
    lines.append(f"    return [{rets}]")
    source = "def _driver(_in):\n" + "\n".join(lines) + "\n"
    code = compile(source, "<fused-mesh>", "exec")
    exec(code, env)
    return MeshDriver(
        env["_driver"], source, n_instructions, n_tasks, p2p_count, p2p_bytes
    )

