"""The instruction stream is per task, not per buffer: grouped frees,
grouped accumulates and edge bundles.

The three rewrites have no switch to compare against, so each is checked
against a reference the test builds itself:

- the bundling pass is a plain function from programs to programs, so a
  hand-built program is run before and after it;
- a compiled step is expanded back into the per-buffer stream (one
  ``Delete`` per ref, one ``Accumulate`` per pair, no bundles) and must
  occupy the stores identically;
- values are checked differentially across task back ends and engines,
  bit for bit, and ``tests.helpers.check_program`` checks every compiled
  program of the schedule gallery statically.
"""

import dataclasses
import pickle
import signal

import numpy as np
import pytest

from repro import core, ir
from repro.core import compile as compile_mod
from repro.core.compile import _bundle_edges, _insert_deletions, compile_train_step
from repro.ir import nn, ops, pipeline_yield
from repro.runtime import CommMode, MpmdExecutor
from repro.runtime.actorgen import fuse_mesh
from repro.runtime.instructions import (
    Accumulate,
    BufferRef,
    Bundled,
    Delete,
    Recv,
    RunTask,
    Send,
)
from tests.core.test_clusters import _gpt_small_adam
from tests.core.test_linear_backend import GALLERY, assert_bit_identical, make_problem
from tests.helpers import check_program, fused_driver, rng

HARD_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _hard_timeout():
    """The mp lanes must never wedge the suite."""

    def fire(signum, frame):  # pragma: no cover - only on regression
        raise TimeoutError(f"test exceeded {HARD_TIMEOUT_S}s hard cap")

    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(HARD_TIMEOUT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def B(uid):
    return BufferRef(uid)


def task(name, ins, outs, fn, nbytes=8):
    return RunTask(
        name, [B(i) for i in ins], [B(o) for o in outs], fn=fn,
        meta={"out_nbytes": [nbytes] * len(outs)},
    )


def fan_out(n):
    """``n`` distinct 8-byte arrays from one operand."""
    return lambda v: [np.asarray(v[0], np.float32) * (k + 2) for k in range(n)]


def weighted_sum(v):
    return [sum(np.asarray(x, np.float32) * (k + 1) for k, x in enumerate(v))]


def count(programs, kind):
    return sum(isinstance(i, kind) for prog in programs for i in prog)


def bundle_refs(programs):
    return {
        r.uid
        for prog in programs
        for i in prog
        if isinstance(i, RunTask) and isinstance(i.fn, Bundled)
        for r in i.out_refs[len(i.fn.out_keep):]
    }


# ---------------------------------------------------------------------------
# (a) the bundling pass on hand-built programs
# ---------------------------------------------------------------------------

PROTECTED = {"in0", "out", "z", "w", "acc"}


def hand_built():
    """Actor 0 fans a placed input out into values of every kind; actor 1
    takes one of them over the wire.

    ``a b c`` (src -> use) and ``p q`` (src -> last) are the two edges
    that should bundle.  Not eligible: ``x`` is sent, ``g`` accumulated,
    ``out`` a step output, ``shared`` read by two tasks, ``y`` alone on
    its edge use -> last."""
    src_outs = ["x", "a", "b", "c", "p", "q", "shared", "g", "out"]
    return [
        [
            task("src", ["in0"], src_outs, fan_out(len(src_outs))),
            Send(B("x"), 1, "x"),
            task("use", ["a", "shared", "b", "out", "c"], ["y"], weighted_sum),
            Accumulate(((B("acc"), B("g")),)),
            task("last", ["q", "y", "shared", "p"], ["z"], weighted_sum),
        ],
        [
            Recv(B("x"), 0, "x", 8),
            task("sink", ["x"], ["w"], weighted_sum),
        ],
    ]


def run(programs, comm_mode=CommMode.ASYNC):
    ex = MpmdExecutor(len(programs), comm_mode=comm_mode)
    ex.place(0, B("in0"), np.array([1.0, 3.0], np.float32), 8, pinned=True)
    res = ex.execute(_insert_deletions(programs, PROTECTED))
    return ex, res


class TestBundlingPass:
    @pytest.mark.parametrize("comm_mode", [CommMode.ASYNC, CommMode.SYNC])
    def test_same_values_same_occupancy_same_traffic(self, comm_mode):
        before, res_before = run(hand_built(), comm_mode)
        after, res_after = run(_bundle_edges(hand_built(), PROTECTED), comm_mode)
        for actor, uid in [(0, "out"), (0, "z"), (0, "acc"), (1, "w")]:
            got, want = after.fetch(actor, B(uid)), before.fetch(actor, B(uid))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert [s.peak_bytes for s in after.stores] == [s.peak_bytes for s in before.stores]
        assert [s.live_refs() for s in after.stores] == [s.live_refs() for s in before.stores]
        assert (res_after.p2p_count, res_after.p2p_bytes) == (1, 8)
        assert (res_before.p2p_count, res_before.p2p_bytes) == (1, 8)

    def test_two_edges_bundle_and_nothing_else(self):
        programs = _bundle_edges(hand_built(), PROTECTED)
        src, _, use, _, last = programs[0]
        assert bundle_refs(programs) == {"a+2", "p+1"}
        assert [r.uid for r in src.out_refs] == ["x", "shared", "g", "out", "a+2", "p+1"]
        assert src.meta["out_nbytes"] == [8, 8, 8, 8, 24, 16]
        # one operand per bundle, where its first member stood
        assert [r.uid for r in use.in_refs] == ["a+2", "shared", "out"]
        assert use.fn.in_index == ((0, 2, 4), (1,), (3,))
        assert [r.uid for r in last.in_refs] == ["p+1", "y", "shared"]
        assert last.fn.in_index == ((3, 0), (1,), (2,))
        # actor 1 had nothing to bundle and is untouched
        assert programs[1] == hand_built()[1]

    def test_cost_only_tasks_are_left_alone(self):
        # simulation mode: no payload to pack or unpack with
        for producer_fn, consumer_fn in [(None, weighted_sum), (fan_out(2), None)]:
            prog = [
                task("p", ["in0"], ["u", "v"], producer_fn),
                task("c", ["u", "v"], ["z"], consumer_fn),
            ]
            (got,) = _bundle_edges([prog], PROTECTED)
            assert got == prog

    def test_undeclared_sizes_are_left_alone(self):
        # the engines measure such outputs from the array; a tuple has no nbytes
        prog = [
            RunTask("p", [B("in0")], [B("u"), B("v")], fn=fan_out(2)),
            task("c", ["u", "v"], ["z"], weighted_sum),
        ]
        (got,) = _bundle_edges([prog], PROTECTED)
        assert got == prog

    def test_instances_share_one_adaptor_per_payload_and_layout(self):
        produce, consume = fan_out(2), weighted_sum
        prog = []
        for mb in range(3):
            prog.append(task(f"p{mb}", ["in0"], [f"u{mb}", f"v{mb}"], produce))
            prog.append(task(f"c{mb}", [f"u{mb}", f"v{mb}"], [f"z{mb}"], consume))
        (got,) = _bundle_edges([prog], {"in0", "z0", "z1", "z2"})
        producers, consumers = got[0::2], got[1::2]
        assert len({id(t.fn) for t in producers}) == len({id(t.fn) for t in consumers}) == 1
        assert all(t.fn.fn is produce for t in producers)
        assert all(t.fn.fn is consume for t in consumers)


class TestBundledAdaptor:
    def test_gathers_and_packs_by_layout(self):
        seen = []

        def inner(vals):
            seen.append(list(vals))
            return ["o0", "o1", "o2", "o3"]

        fn = Bundled(inner, ((1, 3), (0,), (2, 4)), (2,), ((3, 0), (1,) * 2))
        out = fn([("b", "d"), "a", ("c", "e")])
        assert seen == [["a", "b", "c", "d", "e"]]
        assert out == ["o2", ("o3", "o0"), ("o1", "o1")]

    def test_no_bundles_on_one_side_is_a_pass_through(self):
        produce = Bundled(lambda v: [v[0], v[0] + 1, v[0] + 2], None, (), ((0, 1, 2),))
        assert produce([5]) == [(5, 6, 7)]
        consume = Bundled(lambda v: [sum(v)], ((0, 1, 2),), (0,), ())
        assert consume([(5, 6, 7)]) == [18]

    def test_pickles_as_its_fields_and_keeps_sharing(self):
        fn = Bundled(weighted_sum, ((0, 1), (2,)), (0,), ())
        a, b = pickle.loads(pickle.dumps([fn, fn]))
        assert a is b and a.fn is weighted_sum
        assert (a.in_index, a.out_keep, a.out_groups) == (fn.in_index, (0,), ())
        vals = [(np.float32(1), np.float32(2)), np.float32(3)]
        assert a(vals) == fn(vals)

    def test_grouped_instructions_print_short(self):
        refs = tuple(B(f"b{k}") for k in range(27))
        assert repr(Delete(refs)) == "Delete(&b0, &b1, … +25)"
        assert repr(Delete(refs[:3])) == "Delete(&b0, &b1, &b2)"
        acc = Accumulate(tuple((B(f"acc.{k}"), B(f"v{k}")) for k in range(8)), True)
        assert repr(acc) == "Accumulate(&acc.0+=&v0, &acc.1+=&v1, … +6, delete_value)"
        assert acc.name == "acc.0+7"


# ---------------------------------------------------------------------------
# (b) §4.3 under grouped frees; delete_value set by liveness
# ---------------------------------------------------------------------------


class TestGroupedFrees:
    @pytest.mark.parametrize("comm_mode", [CommMode.ASYNC, CommMode.SYNC])
    def test_unmatched_send_defers_its_own_ref_only(self, comm_mode):
        ex = MpmdExecutor(2, comm_mode=comm_mode)
        seen = []

        def probe(vals):
            store = ex.stores[0]
            seen.append((B("x") in store, B("y") in store, list(store.pending_deletions)))
            return [np.float32(0)]

        programs = [
            [
                task("a", [], ["x", "y"], lambda v: [np.float32(9), np.float32(1)]),
                Send(B("x"), 1, "x"),
                Delete((B("x"), B("y"))),
                task("probe", [], ["s"], probe),
                Delete((B("s"),)),
            ],
            [
                task("b", [], ["w"], lambda v: [np.float32(1)]),  # delays the recv post
                Recv(B("x"), 0, "x", 4),
                task("use", ["x", "w"], ["o"], lambda v: [v[0] + v[1]]),
            ],
        ]
        ex.execute(programs)
        if comm_mode is CommMode.ASYNC:
            # the send is still in flight: x waits, y is gone at once
            assert seen == [(True, False, [B("x")])]
        else:
            # the send blocked until matched: nothing left to wait for
            assert seen == [(False, False, [])]
        assert ex.fetch(1, B("o")) == 10.0
        assert B("x") not in ex.stores[0] and not ex.stores[0].pending_deletions
        assert ex.stores[0].bytes_in_use == 0

    def test_liveness_frees_accumulated_values_in_the_instruction(self):
        prog = [
            task("t", ["in0"], ["g0", "g1", "h"], fan_out(3)),
            Accumulate(((B("a0"), B("g0")), (B("a1"), B("g1")))),
            task("u", ["h", "a0", "a1"], ["z"], weighted_sum),
        ]
        (got,) = _insert_deletions([prog], {"in0", "z"})
        assert got[1] == Accumulate(prog[1].pairs, delete_value=True)
        # one Delete where something else dies, none after the accumulate
        assert [type(i) for i in got] == [RunTask, Accumulate, RunTask, Delete]
        assert set(got[3].refs) == {B("h"), B("a0"), B("a1")}

    @pytest.mark.parametrize("why", ["sent", "read again", "added twice"])
    def test_liveness_leaves_the_flag_off_when_a_value_lives_on(self, why):
        produce = task("t", ["in0"], ["g0", "g1"], fan_out(2))
        pairs = ((B("a0"), B("g0")), (B("a1"), B("g1")))
        prog = {
            # its free may have to wait for the transfer (§4.3)
            "sent": [produce, Send(B("g1"), 1, "g1"), Accumulate(pairs)],
            "read again": [produce, Accumulate(pairs), task("u", ["g1"], ["z"], weighted_sum)],
            # freeing it after the first add would lose the second
            "added twice": [produce, Accumulate((*pairs, (B("a2"), B("g1"))))],
        }[why]
        (got,) = _insert_deletions([prog], {"in0", "z", "a0", "a1", "a2"})
        (k,) = [k for k, i in enumerate(got) if isinstance(i, Accumulate)]
        assert not got[k].delete_value
        # what does die there goes into the Delete that follows
        assert isinstance(got[k + 1], Delete)
        assert set(got[k + 1].refs) == ({B("g0")} if why == "read again" else {B("g0"), B("g1")})
        freed = [r.uid for i in got if isinstance(i, Delete) for r in i.refs]
        assert sorted(freed) == ["g0", "g1"]


# ---------------------------------------------------------------------------
# (c) structure of the benchmark's step: mini-GPT, OneFOneB(4), Adam
# ---------------------------------------------------------------------------


def per_buffer(programs):
    """The per-buffer form of a bundle-free stream: one ``Delete`` per
    ref, one ``Accumulate`` per pair with its value's ``Delete`` behind."""
    out = []
    for prog in programs:
        new = []
        for i in prog:
            if isinstance(i, Delete):
                new += [Delete((r,)) for r in i.refs]
            elif isinstance(i, Accumulate):
                for pair in i.pairs:
                    new.append(Accumulate((pair,)))
                    if i.delete_value:
                        new.append(Delete((pair[1],)))
            else:
                new.append(i)
        out.append(new)
    return out


class TestBenchmarkStepStructure:
    def test_stream_is_per_task_and_occupies_the_stores_like_per_buffer(self, monkeypatch):
        train_step, state, batch = _gpt_small_adam()
        step = core.RemoteMesh((4,)).distributed(train_step)
        got = step(state, batch)
        programs = step.compiled.programs
        check_program(step.compiled)

        tasks = [(a, k, i) for a, p in enumerate(programs) for k, i in enumerate(p)
                 if isinstance(i, RunTask)]
        # frees: at most one per instruction that can be a last use
        assert count(programs, Delete) <= (
            len(tasks) + count(programs, Send) + count(programs, Accumulate)
        )
        # accumulates: each commits the outputs of one task instance, and
        # no instance's outputs are split over two
        producer = {(a, r.uid): (a, k) for a, k, i in tasks for r in i.out_refs}
        accumulates = [(a, i) for a, p in enumerate(programs) for i in p
                       if isinstance(i, Accumulate)]
        sources = [{producer[(a, value.uid)] for _, value in i.pairs} for a, i in accumulates]
        assert all(len(s) == 1 for s in sources)
        assert len(set().union(*sources)) == len(accumulates) > 0
        # residuals: a forward hands its backward one buffer
        loop = [(a, i) for a, _, i in tasks if i.meta.get("phase") == "loop"]
        edges = 0
        for a, fwd in loop:
            if fwd.meta["unit"] != "fwd":
                continue
            for b, bwd in loop:
                same = (a, fwd.meta["stage"], fwd.meta["mb"]) == (b, bwd.meta["stage"], bwd.meta["mb"])
                if same and bwd.meta["unit"] == "bwd":
                    handed = {r.uid for r in fwd.out_refs} & {r.uid for r in bwd.in_refs}
                    assert len(handed) <= 1, (fwd.name, bwd.name, handed)
                    edges += len(handed)
        assert edges and bundle_refs(programs)

        # the same step with no bundles, expanded to one instruction per
        # buffer, holds the same bytes and computes the same values
        monkeypatch.setattr(
            compile_mod, "_bundle_edges", lambda programs, protected: [list(p) for p in programs]
        )
        ref = core.RemoteMesh((4,)).distributed(train_step)
        ref(state, batch)
        assert not bundle_refs(ref.compiled.programs)
        ref.compiled.programs = per_buffer(ref.compiled.programs)
        assert_bit_identical(ref(state, batch), got)  # new programs: an event run
        assert step.peak_bytes_per_actor == ref.peak_bytes_per_actor
        assert step.last_result.p2p_count == ref.last_result.p2p_count
        assert step.last_result.p2p_bytes == ref.last_result.p2p_bytes
        n, n_ref = (sum(map(len, s.compiled.programs)) for s in (step, ref))
        assert 3 * n < n_ref

    def test_fused_driver_sees_through_the_adaptors(self):
        train_step, state, batch = _gpt_small_adam()
        want = core.RemoteMesh((4,)).distributed(train_step)(state, batch)
        step = core.RemoteMesh((4,)).distributed(train_step)
        for _ in range(2):  # the second call is warm and runs the driver
            assert_bit_identical(step(state, batch), want)
        driver = fused_driver(step)
        programs = step.compiled.programs
        assert any(isinstance(i.fn, Bundled) for p in programs for i in p if isinstance(i, RunTask))
        # every call site is a task's own payload: no wrapper in between,
        # no tuple built, and a bundle's Delete is one chained assignment
        payloads = [v for k, v in driver._fn.__globals__.items() if k.startswith("_t")]
        assert len(payloads) == driver.n_tasks == count(programs, RunTask)
        assert not any(isinstance(fn, Bundled) for fn in payloads)
        body = [ln.split("#")[0].rstrip() for ln in driver.source.splitlines()[1:-1]]
        assert all(ln.count("(") <= 1 for ln in body)  # the call's, or _in[(actor, uid)]'s
        assert any(ln.count(" = ") > 20 and ln.endswith(" = None") for ln in body)

    @pytest.mark.parametrize("wrapped", ["producers", "consumers", "all"])
    def test_fused_driver_with_opaque_payloads(self, wrapped):
        """A payload swapped for an opaque callable (a timing wrapper, say)
        gets and returns the tuples themselves; its neighbours still run
        on locals."""
        train_step, params, batch = make_problem(4, n_mbs=4)
        jaxpr, _, _ = ir.trace(train_step, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(4))
        flat = ir.tree_flatten((params, batch))[0]
        placed = {
            (a, uid): np.asarray(flat[k])
            for k, pl in enumerate(compiled.input_placements) for a, uid in pl
        }
        outputs = [(s[1], s[2]) for s in compiled.output_sources]
        want = fuse_mesh(compiled.programs, outputs, list(placed))(placed)

        def opaque(fn):
            return lambda vals: fn(vals)

        n = 0
        for prog in compiled.programs:
            for k, i in enumerate(prog):
                if not isinstance(i, RunTask) or not isinstance(i.fn, Bundled):
                    continue
                is_producer = bool(i.fn.out_groups)
                if wrapped == "all" or (wrapped == "producers") == is_producer:
                    prog[k] = dataclasses.replace(i, fn=opaque(i.fn))
                    n += 1
        assert n
        got = fuse_mesh(compiled.programs, outputs, list(placed))(placed)
        assert_bit_identical(got, want)


# ---------------------------------------------------------------------------
# (d) values: back ends x engines, bit for bit
# ---------------------------------------------------------------------------

def two_layer_stages(n_stages, n_mbs=4, mbsz=8, d=8):
    """Every stage is two matmuls around a tanh, so each forward saves
    several residuals for its backward."""
    r = rng(3)
    X = r.randn(n_mbs, mbsz, d).astype(np.float32)
    Y = r.randn(n_mbs, mbsz, d).astype(np.float32)
    params = {
        f"{k}{i}": (r.randn(d, d) * 0.3).astype(np.float32)
        for i in range(n_stages) for k in "uv"
    }

    def loss_fn(p, mb):
        h, y = mb
        for i in range(n_stages):
            h = ops.matmul(ops.tanh(ops.matmul(h, p[f"u{i}"])), p[f"v{i}"])
            if i < n_stages - 1:
                h = pipeline_yield(nn.relu(h))
        return ops.mean((h - y) ** 2.0)

    def train_step(params, batch):
        def microbatch_grads(mb):
            loss, grads = ir.value_and_grad(loss_fn)(params, mb)
            return grads, loss

        grads, loss = core.accumulate_grads(microbatch_grads, None)(batch)
        return ir.tree_map(lambda w, g: ops.sub(w, ops.mul(0.1, g)), params, grads), loss

    return train_step, params, (X, Y)


LANES = [
    pytest.param(core.ZBH1(4), (4,), id="ZB-H1"),  # accumulates deferred to W units
    pytest.param(core.Interleaved1F1B(2, 2), (2,), id="Interleaved(2,2)"),
    pytest.param(core.OneFOneB(2), (2, 2), id="dp=2"),
]


class TestValuesAcrossBackendsAndEngines:
    @pytest.mark.parametrize("schedule, shape", LANES)
    def test_bit_identical(self, schedule, shape):
        train_step, params, batch = two_layer_stages(schedule.n_stages)
        want = core.RemoteMesh(shape).distributed(
            train_step, schedule=schedule, task_backend="interpret"
        )(params, batch)
        meshes = {
            "event": dict(),  # the first call's event run, then the fused driver
            "mp": dict(engine="mp", mp_watchdog_s=30.0),
        }
        for name, kwargs in meshes.items():
            mesh = core.RemoteMesh(shape, **kwargs)
            try:
                for backend in ("interpret", "linear", "codegen"):
                    step = mesh.distributed(train_step, schedule=schedule, task_backend=backend)
                    for _ in range(2):
                        assert_bit_identical(step(params, batch), want)
                    assert bundle_refs(step.compiled.programs), (name, backend)
                    assert (fused_driver(step) is not None) == (name == "event")
            finally:
                mesh.close()


# ---------------------------------------------------------------------------
# program invariants over the gallery (tests.helpers.check_program)
# ---------------------------------------------------------------------------


class TestProgramInvariants:
    @pytest.mark.parametrize("schedule", GALLERY, ids=lambda s: s.name)
    def test_gallery(self, schedule):
        train_step, params, batch = make_problem(4, n_mbs=8)
        jaxpr, _, _ = ir.trace(train_step, params, batch)
        for comm_strategy in ("topo", "naive"):
            for dp_size in (1, 2):
                for optimize in (0, 1):
                    compiled = compile_train_step(
                        jaxpr, schedule, comm_strategy=comm_strategy,
                        dp_size=dp_size, optimize=optimize,
                    )
                    check_program(compiled, fifo=comm_strategy == "topo")

    def _compiled(self):
        train_step, params, batch = make_problem(3, n_mbs=4)
        jaxpr, _, _ = ir.trace(train_step, params, batch)
        compiled = compile_train_step(jaxpr, core.OneFOneB(3))
        check_program(compiled)
        return compiled

    def _first(self, compiled, kind, actor=1):
        prog = compiled.programs[actor]
        return prog, next(k for k, i in enumerate(prog) if isinstance(i, kind))

    def test_catches_a_leak(self):
        compiled = self._compiled()
        prog, k = self._first(compiled, Delete)
        del prog[k]
        with pytest.raises(AssertionError, match="never frees"):
            check_program(compiled)

    def test_catches_a_double_free_and_a_read_after_free(self):
        compiled = self._compiled()
        prog, k = self._first(compiled, Delete)
        prog.insert(k, prog[k])
        with pytest.raises(AssertionError, match="frees .* not live"):
            check_program(compiled)
        compiled = self._compiled()
        prog, k = self._first(compiled, Delete)
        prog.insert(k - 1, prog.pop(k))  # the free now precedes the last use
        with pytest.raises(AssertionError, match="reads .* not live"):
            check_program(compiled)

    def test_catches_a_layout_that_disagrees_with_its_refs(self):
        compiled = self._compiled()
        prog = compiled.programs[1]
        k = next(
            k for k, i in enumerate(prog)
            if isinstance(i, RunTask) and isinstance(i.fn, Bundled) and i.fn.in_index
        )
        fn = prog[k].fn
        width = max(map(len, fn.in_index))
        narrower = tuple(idx[: width - 1] if len(idx) == width else idx for idx in fn.in_index)
        dropped = [idx[-1] for idx in fn.in_index if len(idx) == width]
        # keep the flat positions a permutation: hang the dropped one on its own operand
        prog[k] = dataclasses.replace(
            prog[k],
            in_refs=[*prog[k].in_refs, prog[k].in_refs[0]],
            fn=Bundled(fn.fn, (*narrower, tuple(dropped)), fn.out_keep, fn.out_groups),
        )
        with pytest.raises(AssertionError, match="its producer packed"):
            check_program(compiled)

    def test_catches_a_swapped_transfer(self):
        compiled = self._compiled()
        prog = compiled.programs[1]
        recvs = [k for k, i in enumerate(prog) if isinstance(i, Recv) and i.src == 0]
        a, b = recvs[:2]
        prog[a], prog[b] = prog[b], prog[a]
        with pytest.raises(AssertionError, match="do not pair"):
            check_program(compiled)
        check_program(compiled, fifo=False)
