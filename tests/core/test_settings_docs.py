"""Settings-documentation drift: every registered knob is documented.

Every field of :class:`repro.core.settings.Settings` maps to a
``REPRO_<NAME>`` environment variable; each one must appear in both
README.md and docs/INTERNALS.md, so a new knob cannot ship silently
undocumented (the drift this test was added to fix: REPRO_TIER2 was
initially nowhere).
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.settings import Settings

REPO = Path(__file__).resolve().parents[2]

KNOBS = sorted("REPRO_" + f.name.upper()
               for f in dataclasses.fields(Settings))


@pytest.mark.parametrize("doc", ["README.md", "docs/INTERNALS.md"])
def test_every_registered_knob_is_documented(doc):
    text = (REPO / doc).read_text()
    missing = [k for k in KNOBS if k not in text]
    assert not missing, f"{doc} does not document: {missing}"


@pytest.mark.parametrize("doc", ["README.md", "docs/INTERNALS.md",
                                 ".github/workflows/ci.yml", "src"])
def test_deleted_knobs_are_not_documented(doc):
    target = REPO / doc
    files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
    stale = sorted({k for f in files
                    for k in ("REPRO_LANES", "REPRO_WORLD_CACHE",
                              "REPRO_BATCH_BY_SNAPSHOT", "REPRO_TIER2_CAP",
                              "REPRO_FORK_TRIALS", "REPRO_SNAPSHOT_LIMIT",
                              "REPRO_PAGE_WORDS", "REPRO_FUSE",
                              "REPRO_PREFETCH", "REPRO_SHARDS",
                              "REPRO_RETRY_MAX_ATTEMPTS",
                              "REPRO_PREPARED_CACHE",
                              "REPRO_OBS_CML_STRIDE")
                    if k in f.read_text()})
    assert not stale, f"{doc} still mentions: {stale}"


def test_knob_env_names_are_well_formed():
    # the uniform "REPRO_" + name.upper() mapping the docs promise
    assert all(re.fullmatch(r"REPRO_[A-Z0-9_]+", k) for k in KNOBS)
