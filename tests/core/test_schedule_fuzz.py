"""Property/fuzz suite for the graph-check / executor contract.

Randomly mutate valid schedules — drop, duplicate, reorder, and misplace
slots in their per-actor unit tables — and assert the dichotomy the stack
promises:

- every mutant either **fails** ``validate_schedule`` (the ScheduleIR
  table/graph checks reject it before it reaches the runtime), or
- **executes to the reference result** — compile + run succeed and every
  engine produces a result bit-identical to the reference engine
  (``"roundrobin"``) running the *same* mutant, and numerically equal to
  the unmutated schedule up to floating-point summation order (a valid
  reorder may legitimately accumulate microbatch gradients in a
  different order, which is an FP-rounding difference, not a bug).
  The slow lane extends the cross-engine check to the process-per-rank
  ``"mp"`` backend.

There is no third outcome: a schedule that passes validation and then
crashes, hangs, or silently computes something different is exactly the
bug class this suite exists to catch.  All randomness flows from seeded
``np.random.RandomState`` instances passed in explicitly — no ambient
entropy, every failure reproduces.
"""

import numpy as np
import pytest

from repro import core
from repro.core.schedule_ir import lower_schedule
from repro.core.schedules import BWD, BWD_I, BWD_W, FWD, Schedule, Unit
from tests.core.test_linear_backend import assert_bit_identical, make_problem

N_MBS = 4


class MutantSchedule(Schedule):
    """A schedule defined by an explicit (possibly corrupted) unit table.

    Placement and backward-mode metadata delegate to the base schedule;
    only the per-actor orders differ.  Declares no activation bound — the
    property under test is the validity/equivalence dichotomy, not the
    base schedule's memory promise.
    """

    def __init__(self, base: Schedule, unit_lists: list[list[Unit]]):
        self.base = base
        self.n_actors = base.n_actors
        self.n_stages = base.n_stages
        self.backward_split = base.backward_split
        self.bwd_input_fraction = base.bwd_input_fraction
        self._units = [list(seq) for seq in unit_lists]

    def actor_of_stage(self, stage: int) -> int:
        return self.base.actor_of_stage(stage)

    def activation_bound(self, rank: int, n_mbs: int):
        return None

    def units(self, n_mbs: int) -> list[list[Unit]]:
        return [list(seq) for seq in self._units]

    @property
    def name(self) -> str:
        return f"mutant({self.base.name})"


def mutate(base: Schedule, n_mbs: int, rng: np.random.RandomState) -> MutantSchedule:
    """One random structural mutation of ``base``'s unit table."""
    table = [list(seq) for seq in base.units(n_mbs)]
    op = rng.choice(
        ["drop", "dup", "swap_adjacent", "swap_any", "move", "cross_rank", "rekind"]
    )
    rank = int(rng.randint(len(table)))
    row = table[rank]
    i = int(rng.randint(len(row)))
    if op == "drop":
        del row[i]
    elif op == "dup":
        row.insert(int(rng.randint(len(row) + 1)), row[i])
    elif op == "swap_adjacent":
        j = min(i + 1, len(row) - 1)
        row[i], row[j] = row[j], row[i]
    elif op == "swap_any":
        j = int(rng.randint(len(row)))
        row[i], row[j] = row[j], row[i]
    elif op == "move":
        u = row.pop(i)
        row.insert(int(rng.randint(len(row) + 1)), u)
    elif op == "cross_rank":
        other = int(rng.randint(len(table)))
        table[other].insert(int(rng.randint(len(table[other]) + 1)), row.pop(i))
    elif op == "rekind":
        u = row[i]
        kinds = (FWD, BWD_I, BWD_W) if base.backward_split else (FWD, BWD)
        new_kind = kinds[int(rng.randint(len(kinds)))]
        row[i] = Unit(u.mb, u.stage, new_kind)
    return MutantSchedule(base, table)


BASES = [core.OneFOneB(3), core.GPipe(3), core.ZBH1(3)]


def _reference(base: Schedule):
    ts, params, batch = make_problem(base.n_stages, n_mbs=N_MBS)
    want = core.RemoteMesh((base.n_actors,)).distributed(ts, schedule=base)(
        params, batch
    )
    return ts, params, batch, want


def _assert_allclose(a, b):
    from repro import ir

    fa, ta = ir.tree_flatten(a)
    fb, tb = ir.tree_flatten(b)
    assert repr(ta) == repr(tb)
    for x, y in zip(fa, fb):
        np.testing.assert_allclose(
            np.asarray(x), np.asarray(y), rtol=1e-4, atol=1e-5
        )


def _classify_and_check(base, ts, params, batch, want, mutant, engines):
    """Returns ``"invalid"`` or ``"valid"`` after asserting the contract."""
    try:
        core.validate_schedule(mutant, N_MBS)
    except ValueError:
        return "invalid"
    # reference engine runs the *same* mutant: cross-engine results must
    # be bit-identical (dataflow determinism) ...
    ref_mesh = core.RemoteMesh((mutant.n_actors,), engine="roundrobin")
    ref = ref_mesh.distributed(ts, schedule=mutant)(params, batch)
    for engine in engines:
        kw = {"mp_watchdog_s": 60.0} if engine == "mp" else {}
        mesh = core.RemoteMesh((mutant.n_actors,), engine=engine, **kw)
        got = mesh.distributed(ts, schedule=mutant)(params, batch)
        assert_bit_identical(ref, got)
    # ... and numerically equal to the unmutated schedule up to the FP
    # rounding a reordered gradient accumulation is allowed to introduce
    _assert_allclose(want, ref)
    return "valid"


class TestScheduleFuzz:
    @pytest.mark.parametrize("base", BASES, ids=lambda s: s.name)
    def test_mutants_fail_validation_or_execute_to_reference(self, base):
        rng = np.random.RandomState(0xA5 + base.n_stages)
        ts, params, batch, want = _reference(base)
        outcomes = {"invalid": 0, "valid": 0}
        for _ in range(40):
            mutant = mutate(base, N_MBS, rng)
            outcome = _classify_and_check(
                base, ts, params, batch, want, mutant,
                engines=("event", "roundrobin"),
            )
            outcomes[outcome] += 1
        # the fuzzer must genuinely exercise both sides of the dichotomy
        assert outcomes["invalid"] > 0, outcomes
        assert outcomes["valid"] > 0, outcomes

    def test_identity_mutation_is_valid(self):
        base = core.OneFOneB(3)
        mutant = MutantSchedule(base, base.units(N_MBS))
        core.validate_schedule(mutant, N_MBS)

    def test_dropped_slot_always_invalid(self):
        rng = np.random.RandomState(7)
        base = core.OneFOneB(3)
        table = [list(seq) for seq in base.units(N_MBS)]
        del table[int(rng.randint(3))][0]
        with pytest.raises(ValueError, match="incomplete"):
            core.validate_schedule(MutantSchedule(base, table), N_MBS)

    def test_duplicated_slot_always_invalid(self):
        base = core.OneFOneB(3)
        table = [list(seq) for seq in base.units(N_MBS)]
        table[0].append(table[0][0])
        with pytest.raises(ValueError, match="twice"):
            core.validate_schedule(MutantSchedule(base, table), N_MBS)

    def test_misplaced_slot_always_invalid(self):
        base = core.OneFOneB(3)
        table = [list(seq) for seq in base.units(N_MBS)]
        table[1].append(table[0].pop(0))
        with pytest.raises(ValueError, match="belongs to actor"):
            core.validate_schedule(MutantSchedule(base, table), N_MBS)

    @pytest.mark.slow
    @pytest.mark.parametrize("base", BASES[:2], ids=lambda s: s.name)
    def test_valid_mutants_hold_on_mp_engine(self, base):
        """A handful of valid mutants execute bit-identically on real OS
        processes too — the fuzz contract extends to ``engine="mp"``."""
        rng = np.random.RandomState(0xC3)
        ts, params, batch, want = _reference(base)
        checked = 0
        for _ in range(60):
            if checked >= 3:
                break
            mutant = mutate(base, N_MBS, rng)
            try:
                core.validate_schedule(mutant, N_MBS)
            except ValueError:
                continue
            outcome = _classify_and_check(
                base, ts, params, batch, want, mutant, engines=("mp",)
            )
            assert outcome == "valid"
            checked += 1
        assert checked == 3


# -- cross-rank dependency-edge mutations (IR-level fuzzing) ---------------
#
# The unit-table fuzzer above corrupts *what runs where*; this half
# corrupts the *resolved edges themselves* — the dicts every consumer
# (compiler, executor, simulator) walks.  All tampering ops are
# *coherent*: the forward (``_deps``) and reverse (``_consumers``) tables
# are updated together, so a checker that merely cross-referenced the two
# tables would pass.  Only recomputing the edges from the unit dependency
# structure (``ScheduleIR.check_edges``, run by ``validate``) can notice.
# The dichotomy is sharper here than for unit tables: *every* genuine
# edge change diverges from the unit structure and must be rejected; the
# only survivors are no-op rebuilds, which must execute bit-identically.


def _slot_at(ir, key):
    rank, index = key
    return ir.slots[rank][index]


def _cross_edge_sites(ir):
    """Every (consumer key, dep position, producing slot) crossing ranks."""
    return [
        (key, i, d)
        for key, deps in ir._deps.items()
        for i, d in enumerate(deps)
        if d.rank != key[0]
    ]


def mutate_edges(ir, rng: np.random.RandomState) -> str:
    """One random in-place mutation of the IR's edge tables; returns the
    op applied (``"rebuild_noop"`` is the control: no semantic change)."""
    op = str(rng.choice(
        ["drop", "redirect", "duplicate", "phantom_consumer", "rebuild_noop"]
    ))
    if op == "rebuild_noop":
        ir._deps = {k: tuple(v) for k, v in ir._deps.items()}
        ir._consumers = {k: list(v) for k, v in ir._consumers.items()}
        return op
    sites = _cross_edge_sites(ir)
    key, i, dep = sites[int(rng.randint(len(sites)))]
    consumer = _slot_at(ir, key)
    deps = list(ir._deps[key])
    if op == "drop":
        deps.pop(i)
        ir._consumers[(dep.rank, dep.index)].remove(consumer)
    elif op == "redirect":
        row = ir.slots[dep.rank]
        new_dep = row[(dep.index + 1 + int(rng.randint(len(row) - 1))) % len(row)]
        deps[i] = new_dep
        ir._consumers[(dep.rank, dep.index)].remove(consumer)
        ir._consumers.setdefault((new_dep.rank, new_dep.index), []).append(consumer)
    elif op == "duplicate":
        deps.append(dep)
        ir._consumers[(dep.rank, dep.index)].append(consumer)
    elif op == "phantom_consumer":
        producer = (dep.rank, dep.index)
        ir._consumers[producer] = ir._consumers[producer] + [consumer]
    if op != "phantom_consumer":
        ir._deps[key] = tuple(deps)
    return op


class TestEdgeFuzz:
    @pytest.mark.parametrize("base", BASES, ids=lambda s: s.name)
    def test_edge_mutants_rejected_or_bit_identical(self, base):
        rng = np.random.RandomState(0xE5 + base.n_stages)
        ts, params, batch, want = _reference(base)
        outcomes = {"invalid": 0, "valid": 0}
        for _ in range(30):
            ir = lower_schedule(base, N_MBS)
            op = mutate_edges(ir, rng)
            try:
                ir.validate()
            except ValueError:
                assert op != "rebuild_noop"
                outcomes["invalid"] += 1
                continue
            # a survivor's edge tables provably equal the canonical
            # lowering, so executing the schedule *is* executing the
            # mutant IR — and it must stay bit-identical
            assert op == "rebuild_noop"
            outcomes["valid"] += 1
            got = core.RemoteMesh((base.n_actors,)).distributed(
                ts, schedule=base
            )(params, batch)
            assert_bit_identical(want, got)
        assert outcomes["invalid"] > 0, outcomes
        assert outcomes["valid"] > 0, outcomes

    def test_dropped_cross_edge_rejected(self):
        ir = lower_schedule(core.OneFOneB(3), N_MBS)
        key, i, dep = _cross_edge_sites(ir)[0]
        deps = list(ir._deps[key])
        deps.pop(i)
        ir._deps[key] = tuple(deps)
        ir._consumers[(dep.rank, dep.index)].remove(_slot_at(ir, key))
        with pytest.raises(ValueError, match="diverge"):
            ir.validate()

    def test_redirected_cross_edge_rejected(self):
        ir = lower_schedule(core.OneFOneB(3), N_MBS)
        key, i, dep = _cross_edge_sites(ir)[-1]
        consumer = _slot_at(ir, key)
        row = ir.slots[dep.rank]
        new_dep = row[(dep.index + 1) % len(row)]
        deps = list(ir._deps[key])
        deps[i] = new_dep
        ir._deps[key] = tuple(deps)
        ir._consumers[(dep.rank, dep.index)].remove(consumer)
        ir._consumers.setdefault((new_dep.rank, new_dep.index), []).append(consumer)
        with pytest.raises(ValueError, match="diverge"):
            ir.validate()

    def test_duplicated_cross_edge_rejected(self):
        ir = lower_schedule(core.ZBH1(3), N_MBS)
        key, _, dep = _cross_edge_sites(ir)[0]
        ir._deps[key] = tuple(list(ir._deps[key]) + [dep])
        ir._consumers[(dep.rank, dep.index)].append(_slot_at(ir, key))
        with pytest.raises(ValueError, match="diverge"):
            ir.validate()

    def test_phantom_consumer_rejected(self):
        ir = lower_schedule(core.GPipe(3), N_MBS)
        key, _, dep = _cross_edge_sites(ir)[0]
        ir._consumers[(dep.rank, dep.index)].append(_slot_at(ir, key))
        with pytest.raises(ValueError, match="consumer edges"):
            ir.validate()

    def test_truncated_dep_table_rejected(self):
        ir = lower_schedule(core.OneFOneB(3), N_MBS)
        del ir._deps[next(iter(ir._deps))]
        with pytest.raises(ValueError, match="dependency table"):
            ir.validate()

    def test_unscheduled_dep_rejected(self):
        ir = lower_schedule(core.OneFOneB(3), N_MBS)
        key, _, dep = _cross_edge_sites(ir)[0]
        del ir._slot_of[(dep.unit.mb, dep.unit.stage, dep.unit.kind)]
        with pytest.raises(ValueError, match="unscheduled"):
            ir.validate()

    def test_edge_check_passes_every_canonical_lowering(self):
        for base in BASES:
            lower_schedule(base, N_MBS).check_edges()

    def test_edge_fuzz_survivors_hold_on_mp_pool(self):
        """The mp-pool lane: a rebuild-noop mutant's schedule runs through
        the warm actor pool bit-identically to the event engine."""
        base = core.OneFOneB(3)
        ts, params, batch, want = _reference(base)
        ir = lower_schedule(base, N_MBS)
        assert mutate_edges(ir, _NoopRng()) == "rebuild_noop"
        ir.validate()
        mesh = core.RemoteMesh((base.n_actors,), engine="mp", mp_watchdog_s=60.0)
        try:
            got = mesh.distributed(ts, schedule=base)(params, batch)
            assert_bit_identical(want, got)
        finally:
            mesh.close()


class _NoopRng:
    """Degenerate RNG: always picks ``rebuild_noop``."""

    def choice(self, ops):
        return "rebuild_noop"

    def randint(self, n):  # pragma: no cover - unused for the noop op
        return 0


# -- optimizer-lane fuzzing (algebraic rewrites, ir/opt.py) ----------------
#
# The fuzzers above corrupt schedules and edges; this lane stresses the
# *optimizer* with adversarial stage bodies — duplicated subtrees (CSE
# must merge them without changing bits), duplicated yields of one value
# (boundary dedup + out_aliases routing), and stop_gradient chains
# (identity elision).  The dichotomy here is exactness: every randomly
# generated problem must compile and run bit-identically to its
# unoptimized twin on every engine.


def random_opt_problem(seed, n_stages=3, d=6, mbsz=4, n_mbs=4):
    """A random MLP train step whose stage bodies embed optimizer bait."""
    r = np.random.RandomState(seed)
    from repro.ir import nn, ops, pipeline_yield

    params = {
        f"w{i}": (r.randn(d, d) * 0.4).astype(np.float32)
        for i in range(n_stages)
    }
    X = r.randn(n_mbs, mbsz, d).astype(np.float32)
    Y = r.randn(n_mbs, mbsz, d).astype(np.float32)
    tricks = [
        str(r.choice(["dup", "dup_yield", "stopgrad", "plain"]))
        for _ in range(n_stages)
    ]
    # a duplicated yield is an extra stage boundary (stages = yields + 1):
    # the schedule must cover the widened pipeline
    n_model_stages = n_stages + sum(
        1 for i, t in enumerate(tricks) if t == "dup_yield" and i < n_stages - 1
    )

    def loss_fn(p, mb):
        x, y = mb
        h = x
        for i in range(n_stages):
            w = p[f"w{i}"]
            last = i == n_stages - 1
            if tricks[i] == "dup":
                # same subtree twice: CSE bait (identical bits by IEEE)
                a = ops.matmul(h, w)
                b = ops.matmul(h, w)
                h = ops.mul(ops.add(a, b), 0.5)
            elif tricks[i] == "stopgrad":
                h = ops.add(
                    ops.matmul(h, w),
                    ops.mul(ops.stop_gradient(ops.matmul(h, w)), 0.25),
                )
            else:
                h = ops.matmul(h, w)
            if not last:
                h = nn.relu(h)
                if tricks[i] == "dup_yield":
                    # one value yielded twice: boundary-dedup bait
                    h = ops.mul(
                        ops.add(pipeline_yield(h), pipeline_yield(h)), 0.5
                    )
                else:
                    h = pipeline_yield(h)
        return ops.mean((h - y) ** 2.0)

    def train_step(p, batch):
        from repro import ir

        def microbatch_grads(mb):
            loss, grads = ir.value_and_grad(loss_fn)(p, mb)
            return grads, loss

        grads, loss = core.accumulate_grads(microbatch_grads, None)(batch)
        new = ir.tree_map(
            lambda w, g: w - np.float32(0.1) * g, p, grads
        )
        return new, loss

    return train_step, params, (X, Y), tricks, n_model_stages


class TestOptimizerFuzz:
    def test_level1_bit_identical_across_random_problems(self):
        optimized_somewhere = 0
        for seed in range(8):
            ts, params, batch, tricks, n_model = random_opt_problem(seed)
            base = core.OneFOneB(n_model)
            outs = {}
            for lvl in (False, True):
                mesh = core.RemoteMesh((base.n_actors,))
                step = mesh.distributed(ts, schedule=base, optimize=lvl)
                outs[lvl] = step(params, batch)
                if lvl:
                    rep = step.compiled.opt_report
                    if rep.eqns_after < rep.eqns_before:
                        optimized_somewhere += 1
            assert_bit_identical(outs[False], outs[True]), (seed, tricks)
        # the bait must actually trigger rewrites, not just pass through
        assert optimized_somewhere > 0

    def test_level1_fuzz_problem_holds_on_mp_pool(self):
        """One randomly generated bait problem through the warm actor
        pool: the optimized programs (pruned boundaries included) execute
        on real OS processes bit-identically to the event engine."""
        ts, params, batch, _, n_model = random_opt_problem(5)
        base = core.OneFOneB(n_model)
        want = core.RemoteMesh((base.n_actors,)).distributed(
            ts, schedule=base, optimize=True
        )(params, batch)
        mesh = core.RemoteMesh(
            (base.n_actors,), engine="mp", mp_watchdog_s=60.0
        )
        try:
            got = mesh.distributed(ts, schedule=base, optimize=True)(
                params, batch
            )
            assert_bit_identical(want, got)
        finally:
            mesh.close()
