"""Fuzz the MPMD executor with random-but-valid instruction programs.

Property: any program generated from a random task DAG with §4.2-style
send/recv placement (a) executes without deadlock in both comm modes,
(b) produces values identical to a sequential reference evaluation, and
(c) ends with exactly the undeleted buffers live.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    BufferRef,
    CommMode,
    Delete,
    LinearCost,
    MpmdExecutor,
    Recv,
    RunTask,
    Send,
)


def build_random_program(seed: int, n_actors: int, n_tasks: int):
    """Random DAG: task t (on a random actor) sums a random subset of
    earlier tasks' outputs plus its own constant."""
    r = np.random.RandomState(seed)
    actor_of = [int(r.randint(n_actors)) for _ in range(n_tasks)]
    deps = [sorted(r.choice(t, size=min(t, r.randint(0, 3)), replace=False).tolist())
            if t else [] for t in range(n_tasks)]
    consts = [float(r.randn()) for _ in range(n_tasks)]

    programs = [[] for _ in range(n_actors)]
    # one pass in topological (index) order, sends right after production
    consumers = {t: [] for t in range(n_tasks)}
    for t, ds in enumerate(deps):
        for d in ds:
            consumers[d].append(t)

    for t in range(n_tasks):
        a = actor_of[t]
        in_refs = [BufferRef(f"v{d}") for d in deps[t]]

        def fn(vals, c=consts[t]):
            return [np.float64(c) + sum(vals)]

        programs[a].append(RunTask(f"t{t}", in_refs, [BufferRef(f"v{t}")], fn=fn,
                                   cost=0.001, meta={"out_nbytes": [8]}))
        sent = set()
        for c in consumers[t]:
            dst = actor_of[c]
            if dst != a and dst not in sent:
                sent.add(dst)
                programs[a].append(Send(BufferRef(f"v{t}"), dst, f"v{t}"))
                programs[dst].append(Recv(BufferRef(f"v{t}"), a, f"v{t}", 8))

    # reference values
    ref = {}
    for t in range(n_tasks):
        ref[t] = consts[t] + sum(ref[d] for d in deps[t])
    return programs, actor_of, ref


class TestExecutorFuzz:
    @given(
        seed=st.integers(0, 10_000),
        n_actors=st.integers(2, 5),
        n_tasks=st.integers(3, 25),
        mode=st.sampled_from([CommMode.ASYNC, CommMode.SYNC]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_dags_execute_exactly(self, seed, n_actors, n_tasks, mode):
        programs, actor_of, ref = build_random_program(seed, n_actors, n_tasks)
        ex = MpmdExecutor(n_actors, cost_model=LinearCost(p2p_latency=0.01), comm_mode=mode)
        res = ex.execute(programs)
        for t, want in ref.items():
            got = ex.fetch(actor_of[t], BufferRef(f"v{t}"))
            assert got == np.float64(0) + want or abs(got - want) < 1e-9
        assert res.makespan >= 0.001 * max(
            sum(1 for a in actor_of if a == k) for k in range(n_actors)
        ) - 1e-12

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_deletions_never_break_execution(self, seed):
        programs, actor_of, ref = build_random_program(seed, 3, 12)
        # after every instruction, one Delete of the buffers it touched last
        for prog in programs:
            last_use = {}
            for i, instr in enumerate(prog):
                if isinstance(instr, RunTask):
                    for rf in instr.in_refs + instr.out_refs:
                        last_use[rf.uid] = i
                elif isinstance(instr, (Send, Recv)):
                    last_use[instr.ref.uid] = i
            out = []
            for i, instr in enumerate(prog):
                out.append(instr)
                dying = tuple(BufferRef(uid) for uid, k in last_use.items() if k == i)
                if dying:
                    out.append(Delete(dying))
            prog[:] = out
        ex = MpmdExecutor(3, comm_mode=CommMode.ASYNC)
        ex.execute(programs)
        # everything reclaimed
        for store in ex.stores:
            assert store.bytes_in_use == 0
            assert not store.pending_deletions
