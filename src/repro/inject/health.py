"""Campaign health accounting: what the supervision machinery did.

A :class:`CampaignHealth` rides on every :class:`CampaignResult` produced
by the execution engine.  It answers the questions a 5,000-trial
overnight campaign raises the next morning: did any worker die, did any
trial hit its watchdog, was anything quarantined, how long did it all
take — separate from the *scientific* outcome fractions, which only
describe the application under test.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List


@dataclass
class CampaignHealth:
    """Supervision summary of one campaign execution."""

    #: processes that ran trials (1 = serial in-driver execution; the
    #: worker count on the pool, the shard count on the remote wire)
    effective_workers: int = 1
    #: workers the caller asked for (may exceed effective_workers for
    #: tiny campaigns, which run serially)
    requested_workers: int = 1
    #: execution backend that ran the campaign (serial / pool / remote)
    executor: str = "serial"
    #: size of the fleet that ran it — the range of the journal's
    #: ``shard`` tags (1 for serial)
    shards: int = 1
    #: trial re-executions after a harness failure
    retries: int = 0
    #: trials that hit the per-trial wall-clock watchdog
    timeouts: int = 0
    #: worker processes that died while running a trial
    worker_crashes: int = 0
    #: unexpected exceptions raised inside trials
    trial_exceptions: int = 0
    #: replacement workers spawned after a crash or watchdog kill
    worker_respawns: int = 0
    #: indices of trials recorded as HARNESS_FAILURE after max retries
    quarantined: List[int] = field(default_factory=list)
    #: trials restored from a journal instead of executed (resume)
    resumed_trials: int = 0
    #: respawn-budget exhaustions that shrank the worker pool by one
    pool_shrinks: int = 0
    #: the pool collapsed entirely and the campaign finished serially
    serial_fallback: bool = False
    #: structured degradation-ladder events, in order (``pool_shrink`` /
    #: ``serial_fallback`` / ``journal_disabled``)
    degradation_events: List[dict] = field(default_factory=list)
    #: transient IO failures absorbed by backoff retry (journal writes)
    io_retries: int = 0
    #: torn/corrupt journal records dropped by recovery on resume (each
    #: one's trial was re-executed)
    journal_recovered_records: int = 0
    #: corrupt golden artifacts quarantined and re-materialised while
    #: this campaign prepared or executed (driver-side count)
    artifacts_quarantined: int = 0
    #: trials finished early by convergence pruning (golden tail spliced)
    pruned_trials: int = 0
    #: virtual cycles those trials did not have to execute
    pruned_cycles: int = 0
    #: trials executed COW-forked off a shared golden world
    forked_trials: int = 0
    #: memory pages those trials' COW transactions actually copied
    pages_copied: int = 0
    #: wall-clock duration of the execution phase, seconds
    wall_time_s: float = 0.0
    #: cumulative wall seconds per trial execution stage, summed over
    #: every trial (artifact_load / fork_advance / execute /
    #: tier2_codegen — the last is what trials spent compiling the
    #: regions they were first in their process to enter, taken out of
    #: the stage that entered them so the rows stay disjoint); resumed
    #: trials contribute their journaled timings, so --resume keeps the
    #: totals cumulative
    stage_timings: Dict[str, float] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Total harness failures observed (before retry/quarantine)."""
        return self.timeouts + self.worker_crashes + self.trial_exceptions

    @property
    def clean(self) -> bool:
        return self.failures == 0 and not self.quarantined

    @property
    def degraded(self) -> bool:
        """Did the graceful-degradation ladder fire at all?"""
        return bool(self.degradation_events)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignHealth":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})
