"""Checkpoint/restore and roll-back policies."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.core.config import RunConfig
from repro.core.runner import build_program, run_job
from repro.inject.plan import draw_plan
from repro.mpi import JobStatus
from repro.models import CMLEstimator, FPSResult
from repro.resilience import (
    AlwaysRollback,
    Detection,
    FPSThresholdPolicy,
    NeverRollback,
    ResilientRunner,
)
from repro.vm import FaultSpec, Machine, MachineStatus
from repro.vm.snapshot import capture_world


SRC = """
func main(rank: int, size: int) {
    var a: float[8];
    var hbuf: float[1];
    var h: float[1];
    for (var i: int = 0; i < 8; i += 1) { a[i] = float(rank * 8 + i); }
    for (var t: int = 0; t < 40; t += 1) {
        if (rank > 0) {
            hbuf[0] = a[0];
            mpi_send(&hbuf[0], 1, rank - 1, 1);
        }
        if (rank < size - 1) {
            mpi_recv(&h[0], 1, rank + 1, 1);
        } else {
            h[0] = 0.0;
        }
        for (var i: int = 0; i < 8; i += 1) {
            a[i] = a[i] * 1.01 + h[0] * 0.001;
        }
        mark_iteration();
    }
    emit(a[3]);
}
"""


@pytest.fixture(scope="module")
def prog_and_config():
    config = RunConfig(nranks=2)
    program = build_program(SRC, "fpm", config=config)
    golden = run_job(program, config)
    assert golden.status is JobStatus.COMPLETED
    return program, config, golden


class TestCheckpointRestore:
    def test_roundtrip_preserves_execution(self, prog_and_config):
        program, config, golden = prog_and_config
        m = Machine(program, 0, 1)
        m.start()
        m.run(500)
        assert m.status is MachineStatus.READY
        ck = m.capture()

        # run to completion once
        while m.run(10 ** 6) is MachineStatus.READY:
            pass
        ref_outputs = list(m.outputs)
        ref_cycles = m.cycles

        # rewind and replay: identical end state
        m.restore(ck)
        assert m.cycles == ck.execution.cycles
        while m.run(10 ** 6) is MachineStatus.READY:
            pass
        assert m.outputs == ref_outputs
        assert m.cycles == ref_cycles

    def test_restore_discards_later_memory_writes(self, prog_and_config):
        program, config, _ = prog_and_config
        m = Machine(program, 0, 1)
        m.start()
        m.run(500)
        ck = m.capture()
        cells_before = m.memory.words()
        m.run(2000)
        assert m.memory.words() != cells_before
        m.restore(ck)
        assert m.memory.words() == cells_before

    def test_checkpoint_mid_mpi_rejected(self, prog_and_config,
                                         monkeypatch):
        # a snapshot may hold a pending op (golden ones always could);
        # the quiescent rule is the runner's: no checkpoint while any
        # rank sits in one
        import repro.resilience.runner as runner_mod
        program, config, _ = prog_and_config
        taken = []

        def spy(machines, runtime, epoch, trace):
            taken.append([m.pending for m in machines])
            return capture_world(machines, runtime, epoch, trace)

        monkeypatch.setattr(runner_mod, "capture_world", spy)
        res = ResilientRunner(program, config.with_(quantum=7),
                              AlwaysRollback(), interval=50).run()
        assert res.checkpoints + 1 == len(taken) > 10  # + world 0
        assert all(p is None for pending in taken for p in pending)

    def test_restore_rewinds_injection_state(self, prog_and_config):
        program, config, golden = prog_and_config
        m = Machine(program, 0, 1)
        m.arm_faults([FaultSpec(0, 10 ** 9)])  # never fires
        m.start()
        m.run(500)
        ck = m.capture()
        counter = m.inj_counter
        m.run(2000)
        assert m.inj_counter > counter
        m.restore(ck)
        assert m.inj_counter == counter
        assert m.inj_next == 10 ** 9


class TestPolicies:
    def test_threshold_policy_uses_estimator(self):
        est = CMLEstimator(FPSResult("x", fps=2.0, std=0.0, n_trials=1,
                                     models=()))
        tight = FPSThresholdPolicy(est, threshold=10)
        loose = FPSThresholdPolicy(est, threshold=10 ** 9)
        det = Detection(t_clean=0, t_detect=1000)  # max CML = 2000
        assert tight.should_rollback(det)
        assert not loose.should_rollback(det)

    def test_trivial_policies(self):
        det = Detection(0, 1)
        assert AlwaysRollback().should_rollback(det)
        assert not NeverRollback().should_rollback(det)


class TestResilientRunner:
    def _fault_after(self, golden, frac):
        occ = max(2, int(golden.inj_counts[0] * frac))
        return [FaultSpec(0, occ, bit=45)]

    def test_clean_run_just_checkpoints(self, prog_and_config):
        program, config, golden = prog_and_config
        rr = ResilientRunner(program, config, AlwaysRollback(), interval=3000)
        res = rr.run()
        assert res.status is JobStatus.COMPLETED
        assert res.rollbacks == 0
        assert res.detections == 0
        assert res.checkpoints >= 2
        assert res.outputs == golden.outputs

    def test_rollback_recovers_golden_outputs(self, prog_and_config):
        program, config, golden = prog_and_config
        recovered = 0
        for frac in (0.4, 0.6, 0.8):
            rr = ResilientRunner(program, config, AlwaysRollback(),
                                 interval=3000)
            res = rr.run(faults=self._fault_after(golden, frac), inj_seed=1)
            if res.rollbacks:
                assert res.status is JobStatus.COMPLETED
                assert not res.final_contaminated
                assert res.outputs == golden.outputs
                assert res.wasted_cycles > 0
                recovered += 1
        assert recovered >= 1

    def test_first_interval_fault_rolls_back_to_the_start(
            self, prog_and_config):
        program, config, golden = prog_and_config
        rr = ResilientRunner(program, config, AlwaysRollback(),
                             interval=golden.cycles // 2)
        res = rr.run(faults=self._fault_after(golden, 0.2), inj_seed=1)
        assert (res.detections, res.rollbacks) == (1, 1)
        assert res.checkpoints == 1  # periodic ones only; world 0 is free
        assert not res.final_contaminated
        assert res.outputs == golden.outputs

    def test_hang_budget_is_the_configs(self, prog_and_config):
        program, config, golden = prog_and_config
        short = config.with_(max_cycles=golden.cycles // 2)
        assert run_job(program, short).status is JobStatus.HANG
        rr = ResilientRunner(program, short, AlwaysRollback(), interval=3000)
        assert rr.run().status is JobStatus.HANG
        assert rr.run(max_cycles=golden.cycles).status is JobStatus.COMPLETED

    def test_never_rollback_runs_through(self, prog_and_config):
        program, config, golden = prog_and_config
        rr = ResilientRunner(program, config, NeverRollback(), interval=3000)
        res = rr.run(faults=self._fault_after(golden, 0.5), inj_seed=1)
        assert res.rollbacks == 0
        if res.detections:
            assert res.final_contaminated
        assert res.wasted_cycles == 0

    def test_requires_fpm_build(self, prog_and_config):
        _, config, _ = prog_and_config
        bb = build_program(SRC, "blackbox", config=config)
        with pytest.raises(ValueError, match="FPM"):
            ResilientRunner(bb, config, AlwaysRollback())

    def test_rollback_count_capped(self, prog_and_config):
        program, config, golden = prog_and_config
        rr = ResilientRunner(program, config, AlwaysRollback(),
                             interval=3000, max_rollbacks=0)
        res = rr.run(faults=self._fault_after(golden, 0.5), inj_seed=1)
        assert res.rollbacks == 0
