"""Loop regions across the quantum boundary: suspend, resume, settle.

A planned loop that runs out of budget mid-iteration stops on the exact
member and suspends with its registers in locals; the machine's next
``run`` resumes it.  Nothing may tell: every epoch boundary, every
fault, every trap and every job result must equal the single-step
(``fuse=False``) interpreter's, whether the suspension is resumed,
settled by a frame read or dropped by a restore.
"""

import functools
import gc

import pytest

from repro.core.config import RunConfig
from repro.core.runner import build_program, build_world, make_scheduler, \
    run_job
from repro.vm import FaultSpec, Machine, MachineStatus, derive_plan, \
    install_plan
from repro.vm import machine as machine_mod
from repro.vm import tier2 as tier2_mod
from tests.conftest import assert_jobs_identical
from tests.vm.test_tier2 import (
    SRC_CYCLE, SRC_CYCLE_TRAP, SRC_LOOP, assert_states_identical, planned,
    reference,
)

QUANTA = [1, 2, 3, 7, 16, 17, 64, 256]
MODES = ["blackbox", "fpm", "taint"]
# a five-block cycle with an if/else, and a three-block one whose if
# the golden run never takes
SOURCES = {"cycle": SRC_CYCLE, "loop": SRC_LOOP}


@functools.lru_cache(maxsize=None)
def planned_job(source, mode, config):
    """``source`` built twice for ``config``: with the golden plan
    installed, and as the single-step reference."""
    ref = build_program(source, mode, config=config, fuse=False)
    prog = build_program(source, mode, config=config)
    edges = {}
    run_job(prog, config, capture_edge_profile=edges)
    install_plan(prog, derive_plan(prog, edges))
    return prog, ref


def epochs(prog, config, faults=(), settle=True):
    """Step a job epoch by epoch; yields its machines at every pause,
    then its result.  ``settle=False`` reads only what a read of the
    frames would not settle."""
    machines, runtime = build_world(prog, config, faults, inj_seed=3)
    sched = make_scheduler(machines, runtime, config)
    epoch = 0
    while True:
        epoch += 1
        result = sched.run(stop_at_epoch=epoch)
        if result is not None:
            yield result
            return
        if settle:
            yield [m.execution_state(None) for m in machines]
        else:
            yield [(m.status, m.cycles, m.inj_counter, repr(m.outputs),
                    m.iteration_count) for m in machines]


def lockstep(source, mode, quantum, faults=(), settle=True):
    config = RunConfig(nranks=2, quantum=quantum)
    prog, ref = planned_job(source, mode, config)
    mine = list(epochs(prog, config, faults, settle))
    want = list(epochs(ref, config, faults, settle))
    assert len(mine) == len(want)
    for a, b in zip(mine[:-1], want[:-1]):
        assert repr(a) == repr(b)
    assert_jobs_identical(mine[-1], want[-1])
    return mine[-1]


def suspended(prog, budget):
    """A machine of ``prog`` run in ``budget`` quanta until it first
    suspends in a loop region."""
    m = Machine(prog, 0, 1)
    m.start()
    while m.t2_cont is None:
        assert m.run(budget) is MachineStatus.READY
    return m


class TestExactness:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("quantum", QUANTA)
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_every_epoch_and_result_equal_the_reference(self, name,
                                                        quantum, mode):
        # settled at every boundary (a frame read), and resumed at every
        # boundary (nothing read but clocks, counters and outputs)
        lockstep(SOURCES[name], mode, quantum)
        lockstep(SOURCES[name], mode, quantum, settle=False)

    @pytest.mark.parametrize("mode", ["blackbox", "fpm"])
    @pytest.mark.parametrize("quantum", [7, 17, 64])
    def test_a_fault_at_each_occurrence_fires_like_the_reference(
            self, quantum, mode):
        config = RunConfig(nranks=2, quantum=quantum)
        total = run_job(reference(SRC_CYCLE, mode), config).inj_counts[1]
        assert total > 40
        for occ in range(1, total + 1, 2):
            faults = [FaultSpec(rank=1, occurrence=occ, bit=62 - occ % 3)]
            result = lockstep(SRC_CYCLE, mode, quantum, faults,
                              settle=occ % 2 == 0)
            assert len(result.injections[1]) == 1

    def test_suspended_machines_resume_on_the_exact_member(self):
        prog = planned(SRC_CYCLE)[0]
        for budget in (5, 9, 13):
            a = Machine(prog, 0, 1)
            b = Machine(reference(SRC_CYCLE), 0, 1)
            a.start()
            b.start()
            while a.run(budget) is MachineStatus.READY:
                b.run(budget)
                assert (a.cycles, a.inj_counter) == (b.cycles, b.inj_counter)
            b.run(budget)
            assert_states_identical(a, b)
            assert a.t2_resumes > 5 and a.t2_settles == 0
            # nothing read the frames: every suspension was resumed
            assert a.t2_suspends == a.t2_resumes

    def test_a_trap_in_a_resumed_chunk_lands_on_the_reference(
            self, monkeypatch):
        # which line of the loop raised: a guarded one (the resumed chunk
        # runs on its guarded side) or a steady one (a later chunk)
        sources, raised = {}, []

        def keep(source, name, mode):
            sources[name] = source.split("\n")
            return compile(source, name, mode)

        def spy(m, exc, code):
            tb = exc.__traceback__
            while tb.tb_frame.f_code is not code:
                tb = tb.tb_next
            raised.append(sources[code.co_filename][tb.tb_lineno - 1])
            real(m, exc, code)

        real = tier2_mod.loop_trap
        monkeypatch.setattr(tier2_mod, "compile", keep, raising=False)
        monkeypatch.setattr(tier2_mod, "loop_trap", spy)
        monkeypatch.setattr(machine_mod, "loop_trap", spy)
        prog = planned(SRC_CYCLE_TRAP, status=MachineStatus.TRAPPED)[0]
        ref = reference(SRC_CYCLE_TRAP)
        where = set()
        for budget in range(2, 60):
            a, b = Machine(prog, 0, 1), Machine(ref, 0, 1)
            a.start()
            b.start()
            while True:
                resumed = a.t2_cont is not None
                start = a.cycles
                if a.run(budget) is not MachineStatus.READY:
                    break
            while b.run(budget) is MachineStatus.READY:
                pass
            assert a.status is b.status is MachineStatus.TRAPPED
            assert (a.trap.cycle, a.inj_counter) \
                == (b.trap.cycle, b.inj_counter)
            assert_states_identical(a, b)
            if resumed:
                guarded = raised[-1].lstrip().startswith("rem >")
                # a budget runs out on a guarded side too: the resumed
                # chunk is the one within a chunk (16 members) of the start
                where.add("first" if guarded and a.trap.cycle - start < 16
                          else "later" if not guarded else "stop")
        assert {"first", "later"} <= where


class TestSettleRestoreDrop:
    def test_capture_at_a_suspension_restores_into_a_twin(self):
        prog = planned(SRC_CYCLE, "fpm")[0]
        a = suspended(prog, 13)
        state = a.capture()
        assert a.t2_settles == 1 and a.t2_cont is None
        twin = Machine(prog, 0, 1)
        twin.restore(state)
        b = Machine(reference(SRC_CYCLE, "fpm"), 0, 1)
        b.restore(state)
        for m in (a, twin, b):
            while m.run(13) is MachineStatus.READY:
                pass
        assert_states_identical(a, b)
        assert_states_identical(twin, b)

    def test_restore_drops_the_continuation_and_touches_no_counter(self):
        prog = planned(SRC_CYCLE, "fpm")[0]
        m = Machine(prog, 0, 1)
        m.start()
        start = m.capture()
        m = suspended(prog, 13)
        gen = m.t2_cont[0]
        m.restore(start)
        assert m.t2_cont is None
        counters = (m.inj_counter, m.fused_skew, m.t2_deopts)
        # the dropped generator closes here: GeneratorExit reaches no
        # handler that counts
        del gen
        gc.collect()
        assert (m.inj_counter, m.fused_skew, m.t2_deopts) == counters
        while m.run(13) is MachineStatus.READY:
            pass
        b = Machine(reference(SRC_CYCLE, "fpm"), 0, 1)
        b.start()
        while b.run(13) is MachineStatus.READY:
            pass
        assert_states_identical(m, b)

    def test_arming_a_suspended_machine_settles_it_first(self):
        prog = planned(SRC_CYCLE)[0]
        a = suspended(prog, 13)
        b = Machine(reference(SRC_CYCLE), 0, 1)
        b.restore(suspended(prog, 13).capture())
        occ = a.inj_counter + 3
        for m in (a, b):
            m.arm_faults([FaultSpec(rank=0, occurrence=occ, bit=1)])
            while m.run(13) is MachineStatus.READY:
                pass
        assert_states_identical(a, b)
        assert len(a.injection_events) == 1


class TestForkFromSuspendedMachines:
    def test_a_cursor_paused_mid_loop_forks_bit_identical_trials(self):
        import warnings

        from repro.apps import get_app
        from repro.inject.forkrun import GoldenCursor
        from repro.inject.profiler import PreparedApp

        pa = PreparedApp(get_app("amg"), "fpm")
        assert pa.program.tier2_installed
        cursor = GoldenCursor(pa)
        config = pa.run_config()
        total = pa.golden.inj_counts[0]
        assert total > 50
        paused = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for occ in range(total // 5, total, total // 5):
                faults = [FaultSpec(rank=0, occurrence=occ, bit=52)]
                cursor.advance_to(pa.golden.fork_epoch(faults))
                paused += any(m.t2_cont is not None for m in cursor.machines)
                forked, _ = cursor.fork_run(faults, inj_seed=11)
                cold = run_job(pa.program, config, faults, inj_seed=11)
                assert_jobs_identical(forked, cold)
        assert paused, "no fork started from a suspended loop region"
