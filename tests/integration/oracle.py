"""The equivalence oracle: every way to run a campaign has one science.

The paper defines a trial's outcome class and CML(t) from the faulty run
alone; fork-at-injection, convergence pruning, the golden region plan,
shared artifacts, the executors and a fleet that loses workers are only
faster or sturdier ways to the same numbers.  :func:`check` runs one
:class:`Config` and asserts:

* **same science** — the journal's science hash, every trial (modulo
  retry counts) and the outcome fractions equal the reference's: the
  same campaign run serial, cold (``fork=False``), unpruned
  (``snapshot_stride=0``) on closures only (``fuse=False``, no plan);
* **sound pruning** — a pruned trial ends masked, at a cycle inside
  its run;
* **chaos costs retries, not results** — workers die, nothing is
  quarantined;
* **ground truth** — under fpm, one drawn trial's shadow table is the
  real golden-vs-faulty memory difference (:mod:`.lockstep`).

``test_oracle.py`` draws configs; the headline case of each suite a
layer of the speed stack once had to itself calls :func:`check` under
that suite's test id, with a check that the path it pins was taken.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume

from repro.api import Session
from repro.core.config import RunConfig
from repro.inject import run_campaign, trial_results_equal
from repro.inject import campaign as campaign_mod
from repro.inject import profiler
from repro.inject.journal import journal_science_hash
from repro.inject.plan import draw_plan
from repro.vm import tier2 as vm_tier2
from tests.integration.lockstep import golden, lockstep
from tests.integration.test_differential_fuzz import ProgramGen

# Small-parameter builds keep golden runs short while leaving room for
# faults to heal before the end (the pruning window); strides are sized
# so each golden trajectory carries many fingerprint epochs.
AMG_SMALL = {"n": 8, "max_cycles": 30}
MINIFE_SMALL = {"n": 8, "max_iters": 120}

MIDCOLL_SRC = """
// Rank-skewed work before a collective: while slow ranks grind through
// their longer loops, fast ranks sit blocked inside mpi_allreduce — so a
// cycle-stride snapshot catches machines mid-collective.
func main(rank: int, size: int) {
    var acc: int[1];
    var out: int[1];
    var total: int = 0;
    for (var round: int = 0; round < 4; round += 1) {
        var s: int = 0;
        for (var i: int = 0; i < 40 + rank * 120; i += 1) {
            s += (i * (rank + 3)) % 17;
        }
        acc[0] = s;
        mpi_allreduce(&acc[0], &out[0], 1, 0);
        total += out[0];
        mark_iteration();
    }
    emiti(total);
}
"""

#: what a pruned trial may end as: a world bit-identical to golden ends
#: masked (blackbox folds V and ONA into CO), never WO / PEX / C / HF
_PRUNABLE = {"blackbox": {"CO"}, "fpm": {"V", "ONA"}, "taint": {"V", "ONA"}}
_PARAMS = {"amg": AMG_SMALL, "minife": MINIFE_SMALL}
_CHAOS = (("CHAOS", 1), ("CHAOS_SEED", 7), ("CHAOS_KILL", 1.0),
          ("CHAOS_HANG", 0), ("CHAOS_IO", 0), ("CHAOS_ARTIFACT", 0),
          ("CHAOS_TEAR", 0), ("RETRY_BASE_DELAY", 0), ("RETRY_MAX_DELAY", 0))


class Config(NamedTuple):
    target: str       # an app, "midcoll", or "gen<seed>" (a ProgramGen)
    mode: str
    fork: bool
    stride: int       # snapshot_stride: 0 runs unpruned
    artifacts: bool
    executor: str     # each fleet has 2 workers
    chaos: bool       # kill = 1.0; pool and remote only
    trials: int
    seed: int


def _app(target):
    """``(app, params)`` of a target, registering the custom ones."""
    if target == "midcoll":
        Session.from_source(MIDCOLL_SRC, name=target,
                            config=RunConfig(nranks=4, quantum=64))
    elif target.startswith("gen"):
        Session.from_source(ProgramGen(int(target[3:])).generate(),
                            name=target, config=RunConfig(nranks=1))
        assume(any(golden(target)[2]))  # a program may mark none at all
    return target, tuple(sorted(_PARAMS.get(target, {}).items()))


def _campaign(c, journal, chaos=False, reference=False, **kw):
    """``c``'s campaign, journaled; ``kw`` says how it runs."""
    app, params = _app(c.target)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_ARTIFACT_DIR", raising=False)
        mp.delenv("REPRO_CHAOS", raising=False)
        if chaos:  # kill each worker once, no backoff
            for var, value in _CHAOS + (("CHAOS_DIR", journal.parent),):
                mp.setenv(f"REPRO_{var}", str(value))
        if reference:
            build = profiler.build_program
            mp.setattr(profiler, "build_program",
                       lambda *a, **k: build(*a, **dict(k, fuse=False)))
            mp.setattr(vm_tier2, "install_plan",
                       lambda program, plan: program.tier2_traces)
        campaign_mod._PREPARED_CACHE.clear()
        result = run_campaign(
            app, c.trials, mode=c.mode, seed=c.seed, params=dict(params),
            journal=str(journal), keep_series=c.mode != "blackbox",
            timeout=60.0, **kw)
        campaign_mod._PREPARED_CACHE.clear()
    return result, journal_science_hash(journal)


_REFERENCES = {}


def _reference(c):
    """The reference of ``c``'s (target, mode, seed, trials), every
    program built with ``fuse=False`` and plan installation stubbed;
    under fpm, the ground truth of one drawn trial is checked too."""
    key = (c.target, c.mode, c.seed, c.trials)
    if key not in _REFERENCES:
        with tempfile.TemporaryDirectory() as d:
            reference = _campaign(
                c, Path(d) / "reference.jsonl", reference=True,
                executor="serial", fork=False, snapshot_stride=0)
        if c.mode == "fpm":
            app, params = _app(c.target)
            faults = draw_plan(np.random.default_rng(c.seed),
                               golden(app, params)[2], 1)
            lockstep(app, faults, c.seed, params)
        _REFERENCES[key] = reference
    return _REFERENCES[key]


def check(c):
    """Run ``c`` and hold it to the reference; the campaign result."""
    ref, ref_science = _reference(c)
    with tempfile.TemporaryDirectory() as d:
        got, science = _campaign(
            c, Path(d) / "run.jsonl", chaos=c.chaos, fork=c.fork,
            snapshot_stride=c.stride, executor=c.executor, workers=2,
            artifact_dir=str(Path(d) / "artifacts") if c.artifacts else None)

    assert science == ref_science, c
    assert got.n_trials == ref.n_trials == c.trials
    for i, (a, b) in enumerate(zip(got.trials, ref.trials)):
        assert trial_results_equal(dataclasses.replace(a, retries=0),
                                   dataclasses.replace(b, retries=0)), \
            (c, i, a, b)
    assert got.fractions() == ref.fractions()

    pruned = [t for t in got.trials if t.pruned_at_cycle is not None]
    assert got.health.pruned_trials == len(pruned)
    assert not pruned or c.stride > 0
    for t in pruned:
        assert t.outcome in _PRUNABLE[c.mode], (c, t)
        assert 0 < t.pruned_at_cycle <= t.cycles, (c, t)

    assert not got.health.quarantined, c
    assert got.health.worker_crashes > 0 or not c.chaos, c
    return got
