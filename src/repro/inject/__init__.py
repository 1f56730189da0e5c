"""LLFI++ campaign layer: fault plans, golden profiling, supervised
trial driving with retry/quarantine, crash recovery, and resumable
journaled campaigns."""

from .artifacts import (
    GoldenArtifact,
    artifact_key,
    artifact_path,
    load_artifact,
    quarantine_artifact,
    save_artifact,
)
from .chaos import ChaosConfig, ChaosMonkey
from .campaign import (
    CampaignResult,
    TrialResult,
    default_timeout,
    default_trials,
    default_workers,
    harness_failure_trial,
    plan_fork_batches,
    run_campaign,
    trial_results_equal,
)
from .engine import CampaignEngine, resume_campaign
from .health import CampaignHealth
from .journal import (
    CampaignJournal,
    JournalRecovery,
    read_journal,
    read_journal_ex,
)
from .plan import draw_plan
from .profiler import GoldenProfile, PreparedApp, profile_golden

__all__ = [
    "CampaignEngine", "CampaignHealth", "CampaignJournal",
    "CampaignResult", "ChaosConfig", "ChaosMonkey", "GoldenArtifact",
    "GoldenProfile", "JournalRecovery", "PreparedApp",
    "TrialResult", "artifact_key", "artifact_path",
    "default_timeout", "default_trials", "default_workers", "draw_plan",
    "harness_failure_trial", "load_artifact", "plan_fork_batches",
    "profile_golden", "quarantine_artifact", "read_journal",
    "read_journal_ex", "resume_campaign", "run_campaign",
    "save_artifact", "trial_results_equal",
]
