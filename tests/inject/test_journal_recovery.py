"""Journal CRC framing, torn-write repair, and corruption recovery."""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalError
from repro.inject import read_journal, read_journal_ex
from repro.inject.campaign import TrialResult
from repro.inject.journal import CampaignJournal, repair_tail


def _trial(i):
    return TrialResult(
        outcome="CO", trap_kind=None, faults=(), injected_cycles=(),
        injected_occurrences=(), iterations=1, cycles=i,
    )


def _make_journal(path, n=5):
    with CampaignJournal.create(path, {"app_name": "x", "n_trials": n}) as j:
        for i in range(n):
            j.append_trial(i, _trial(i))
    return path


class TestFraming:
    def test_round_trip_is_clean(self, tmp_path):
        path = _make_journal(tmp_path / "c.jsonl")
        header, trials, recovery = read_journal_ex(path)
        assert header["app_name"] == "x"
        assert sorted(trials) == [0, 1, 2, 3, 4]
        assert [trials[i].cycles for i in range(5)] == [0, 1, 2, 3, 4]
        assert recovery.dropped == 0 and not recovery.torn_tail

    def test_records_are_length_and_crc_framed(self, tmp_path):
        path = _make_journal(tmp_path / "c.jsonl")
        lines = path.read_text().splitlines()
        for line in lines[1:]:
            assert line.startswith("T ")
            size, crc, payload = line[2:].split(" ", 2)
            assert int(size) == len(payload.encode())
            assert len(crc) == 8
            json.loads(payload)  # framed payload is plain JSON

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        path = _make_journal(tmp_path / "c.jsonl")
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])  # driver died mid-write
        with pytest.warns(UserWarning, match="partially written"):
            header, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == [0, 1, 2, 3]
        assert recovery.torn_tail and recovery.dropped == 1

    def test_corrupt_interior_record_dropped_others_survive(self, tmp_path):
        path = _make_journal(tmp_path / "c.jsonl")
        lines = path.read_text().splitlines(keepends=True)
        # flip one payload byte of trial 2's record: the CRC must catch it
        bad = lines[3].replace('"cycles": 2', '"cycles": 7')
        assert bad != lines[3]
        path.write_text("".join(lines[:3] + [bad] + lines[4:]))
        with pytest.warns(UserWarning, match="CRC"):
            header, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == [0, 1, 3, 4]
        assert recovery.corrupt_records == 1 and not recovery.torn_tail

    def test_duplicate_records_later_wins(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal.create(path, {"n_trials": 2}) as j:
            j.append_trial(0, _trial(0))
            j.append_trial(0, _trial(9))
        header, trials, recovery = read_journal_ex(path)
        assert trials[0].cycles == 9
        assert recovery.duplicate_records == 1

    def test_valid_frame_with_malformed_trial_is_an_error(self, tmp_path):
        import zlib
        path = _make_journal(tmp_path / "c.jsonl", n=1)
        payload = json.dumps({"index": "not-an-int-able", "trial": 5})
        data = payload.encode()
        with path.open("a") as fh:
            fh.write(f"T {len(data)} "
                     f"{zlib.crc32(data) & 0xFFFFFFFF:08x} {payload}\n")
        # intact CRC + garbage content = writer bug, never silently dropped
        with pytest.raises(JournalError, match="malformed trial record"):
            read_journal_ex(path)


class TestRepairTail:
    def test_noop_on_terminated_file(self, tmp_path):
        path = _make_journal(tmp_path / "c.jsonl")
        before = path.read_bytes()
        assert repair_tail(path) == 0
        assert path.read_bytes() == before

    def test_truncates_torn_final_line(self, tmp_path):
        path = _make_journal(tmp_path / "c.jsonl")
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        dropped = repair_tail(path)
        assert dropped > 0
        assert path.read_bytes().endswith(b"\n")
        _, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == [0, 1, 2, 3]
        assert recovery.dropped == 0  # already repaired on disk

    def test_torn_header_left_alone(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"kind": "repro-campaign-jour')
        assert repair_tail(path) == 0
        with pytest.raises(JournalError):
            read_journal_ex(path)

    def test_append_to_repairs_before_reopening(self, tmp_path):
        path = _make_journal(tmp_path / "c.jsonl")
        blob = path.read_bytes()
        path.write_bytes(blob[:-13])
        with pytest.warns(UserWarning, match="torn final journal line"):
            with CampaignJournal.append_to(path) as j:
                j.append_trial(4, _trial(4))
        # the fresh record must not concatenate onto the torn fragment
        header, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == [0, 1, 2, 3, 4]
        assert recovery.dropped == 0


class TestOneHeaderRule:
    """One journal format, every definition key: a clear error else."""

    def test_another_format_is_refused(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({"format": 1,
                                    "kind": "repro-campaign-journal",
                                    "app_name": "x", "n_trials": 2}) + "\n")
        with pytest.raises(JournalError, match="unsupported journal format 1"):
            read_journal(path)

    def test_resume_names_the_missing_definition_key(self, tmp_path):
        from repro.inject import campaign as campaign_mod
        from repro.inject import run_campaign
        from repro.inject.engine import resume_campaign

        path = tmp_path / "c.jsonl"
        run_campaign("matvec", trials=4, seed=5, journal=str(path))
        first, *frames = path.read_text().splitlines(keepends=True)
        header = json.loads(first)
        required = campaign_mod.DEFINITION_KEYS + ("golden",)
        # the header is the definition plus what the driver adds to it
        assert sorted(header) == sorted(
            required + ("format", "kind", "executor", "shards"))
        for key in required:
            cut = {k: v for k, v in header.items() if k != key}
            path.write_text(json.dumps(cut) + "\n" + "".join(frames[:2]))
            with pytest.raises(JournalError, match=f"lacks {key}"):
                resume_campaign(path)


class TestEventFrames:
    """``E`` frames: campaign events are observability, never science."""

    def _journal_with_event(self, tmp_path, torn_bytes=0):
        path = tmp_path / "c.jsonl"
        with CampaignJournal.create(path, {"app_name": "x",
                                           "n_trials": 3}) as j:
            for i in range(3):
                j.append_trial(i, _trial(i))
            j.append_event("degradation", type="pool_shrink", respawns=2)
        if torn_bytes:
            blob = path.read_bytes()
            path.write_bytes(blob[:-torn_bytes])
        return path

    def test_events_round_trip(self, tmp_path):
        path = self._journal_with_event(tmp_path)
        header, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == [0, 1, 2]
        assert recovery.events == [
            {"event": "degradation", "type": "pool_shrink", "respawns": 2}]
        assert recovery.dropped == 0
        assert not recovery.torn_tail and not recovery.torn_event_tail

    def test_torn_event_tail_is_not_a_lost_trial(self, tmp_path, recwarn):
        """The satellite bugfix: a journal whose final record is a torn
        degradation event must not read as a torn *trial* — no warning
        about re-execution, nothing counted in ``dropped``."""
        path = self._journal_with_event(tmp_path, torn_bytes=15)
        header, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == [0, 1, 2]      # every trial survives
        assert recovery.torn_event_tail
        assert not recovery.torn_tail
        assert recovery.dropped == 0
        assert recovery.events == []            # the torn event is gone
        assert not any("re-executed" in str(w.message) for w in recwarn.list)

    def test_append_to_repairs_torn_event_tail_with_soft_warning(
            self, tmp_path):
        path = self._journal_with_event(tmp_path, torn_bytes=15)
        with pytest.warns(UserWarning, match="no trial is affected"):
            j = CampaignJournal.append_to(path)
        j.close()
        _, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == [0, 1, 2]
        assert recovery.dropped == 0 and not recovery.torn_event_tail

    def test_corrupt_interior_event_skipped_silently(self, tmp_path,
                                                     recwarn):
        path = tmp_path / "c.jsonl"
        with CampaignJournal.create(path, {"app_name": "x",
                                           "n_trials": 2}) as j:
            j.append_trial(0, _trial(0))
            j.append_event("degradation", type="serial_fallback")
            j.append_trial(1, _trial(1))
        lines = path.read_text().splitlines(keepends=True)
        assert lines[2].startswith("E ")
        lines[2] = lines[2].replace("serial_fallback", "sErial_fallback")
        path.write_text("".join(lines))
        _, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == [0, 1]
        assert recovery.events == [] and recovery.dropped == 0
        assert not recwarn.list

    def test_resume_after_final_degradation_event_is_clean(self, tmp_path):
        """End to end: a completed journal whose *last line* is a
        degradation event resumes without re-running the final trial."""
        from repro.inject import resume_campaign, run_campaign
        from repro.inject import campaign as campaign_mod

        journal = tmp_path / "c.jsonl"
        campaign_mod._PREPARED_CACHE.clear()
        ref = run_campaign("matvec", trials=4, mode="blackbox", seed=5,
                           workers=1, journal=journal,
                           artifact_dir=tmp_path / "artifacts")
        with CampaignJournal.append_to(journal) as j:
            j.append_event("degradation", type="journal_disabled")
        resumed = resume_campaign(journal)
        assert resumed.health.resumed_trials == 4     # nothing re-ran
        assert resumed.health.journal_recovered_records == 0
        assert resumed.fractions() == ref.fractions()


class TestLaneEraJournals:
    """Journals written while the lane tier existed carry a ``lanes``
    header key and ``lane`` provenance on their trial frames; both are
    ignored — such a journal reads, hashes and resumes like any other."""

    def test_reads_hashes_and_resumes_on_the_fork_rung(self, tmp_path):
        from repro.inject import run_campaign, trial_results_equal
        from repro.inject.engine import resume_campaign
        from repro.inject.journal import (
            _decode_frame, _frame, journal_science_hash,
        )

        plain = tmp_path / "plain.jsonl"
        full = run_campaign("matvec", trials=12, mode="fpm", seed=5,
                            journal=str(plain), snapshot_stride=150)
        header, *frames = plain.read_text().splitlines()
        old_header = dict(json.loads(header), lanes=8)
        old_frames = []
        for row, line in enumerate(frames):
            entry = json.loads(_decode_frame(line))
            entry["trial"]["lane"] = row % 8
            entry["trial"]["stage_timings"]["lane_advance"] = 0.25
            old_frames.append(_frame("T", json.dumps(entry)))
        old = tmp_path / "old.jsonl"
        old.write_text(json.dumps(old_header) + "\n" + "".join(old_frames))

        read_header, trials = read_journal(old)
        assert read_header["lanes"] == 8 and sorted(trials) == list(range(12))
        assert journal_science_hash(old) == journal_science_hash(plain)

        old.write_text(json.dumps(old_header) + "\n"
                       + "".join(old_frames[:5]))
        resumed = resume_campaign(old)
        assert resumed.health.resumed_trials == 5
        assert resumed.health.forked_trials > 0
        for a, b in zip(full.trials, resumed.trials):
            assert trial_results_equal(a, b)
        assert journal_science_hash(old) == journal_science_hash(plain)


class TestParentCommitJournal:
    """``data/parent_d82b398_mcb_fpm.jsonl`` was written by the commit
    before memory became a list of Python objects and intrinsic calls
    became region members (16 trials of mcb, fpm, seed 5: rand(),
    mpi_send() and emit() in its particle loop).  Cut short and resumed
    here, the remaining trials must come out as that commit ran them."""

    def test_resumes_to_the_parents_science(self, tmp_path):
        from pathlib import Path

        from repro.inject.engine import resume_campaign
        from repro.inject.journal import journal_science_hash

        parent = Path(__file__).parent / "data" / "parent_d82b398_mcb_fpm.jsonl"
        header, trials = read_journal(parent)
        assert header["app_name"] == "mcb" and len(trials) == 16
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(
            parent.read_text().splitlines(keepends=True)[:1 + 6]))
        resumed = resume_campaign(cut)
        assert resumed.health.resumed_trials == 6
        assert resumed.health.forked_trials > 0
        assert journal_science_hash(cut) == journal_science_hash(parent)
        # the header's golden profile is checked on resume: cycles and
        # per-rank marked-instruction counts did not move either
        assert header["golden"]["cycles"] == resumed.golden_cycles
        assert tuple(header["golden"]["inj_counts"]) == resumed.inj_counts

    @pytest.mark.parametrize("executor", ["pool", "remote"])
    def test_a_static_shard_era_journal_resumes_on_either_wire(
            self, tmp_path, executor):
        """``data/parent_e3a77f0_amg_remote.jsonl``: 16 trials of amg,
        fpm, seed 5, on that commit's two statically planned remote
        shards under chaos worker kills.  Its shard tags and its two
        ``shard_reassigned`` events are read and ignored."""
        from pathlib import Path

        from repro.inject.engine import resume_campaign
        from repro.inject.journal import journal_science_hash

        parent = (Path(__file__).parent / "data"
                  / "parent_e3a77f0_amg_remote.jsonl")
        lines = parent.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(lines[:10]))  # header, 8 trials, 1 event
        assert sum("shard_reassigned" in line for line in lines[:10]) == 1
        resumed = resume_campaign(cut, executor=executor, workers=2,
                                  shards=2)
        assert resumed.health.resumed_trials == 8
        assert resumed.health.executor == executor
        assert journal_science_hash(cut) == journal_science_hash(parent)


def _restore_rung_header(header):
    """Recorded with ``--no-fork`` while that meant snapshot restore."""
    return dict(header, fork=False, snapshot_stride=150)


def _speed_path_header(header):
    """Recorded with pruning and the golden plan switched off, while
    both were campaign knobs: the keys are read and ignored."""
    return dict(header, prune=False, tier2=False)


class TestOldJournals:
    """A header that says a trial-positioning feature was off resumes,
    through the one campaign driver, to the science an uninterrupted
    default run records: with forking off when it says so, and on the
    golden plan with pruning whatever it says of those."""

    @pytest.mark.parametrize("rewrite", [_restore_rung_header,
                                         _speed_path_header])
    def test_resumes_to_the_default_runs_science(self, tmp_path, rewrite):
        from repro.inject import run_campaign, trial_results_equal
        from repro.inject.engine import resume_campaign
        from repro.inject.journal import (
            _decode_frame, _frame, journal_science_hash,
        )

        plain = tmp_path / "plain.jsonl"
        full = run_campaign("matvec", trials=12, mode="fpm", seed=5,
                            journal=str(plain), snapshot_stride=150)
        header, *frames = plain.read_text().splitlines()
        old_frames = []
        for line in frames[:5]:
            entry = json.loads(_decode_frame(line))
            # what a non-forking run journaled: no fork provenance, and
            # (on the restore rung) a stage the program no longer names
            entry["trial"].update(forked_at_cycle=None, pages_copied=None)
            entry["trial"]["stage_timings"].pop("fork_advance", None)
            entry["trial"]["stage_timings"]["snapshot_restore"] = 0.25
            old_frames.append(_frame("T", json.dumps(entry)))
        old = tmp_path / "old.jsonl"
        old_header = rewrite(json.loads(header))
        old.write_text(json.dumps(old_header) + "\n" + "".join(old_frames))

        resumed = resume_campaign(old)
        assert resumed.health.resumed_trials == 5
        assert (resumed.health.forked_trials > 0) == old_header["fork"]
        assert resumed.health.stage_timings["snapshot_restore"] == 1.25
        for a, b in zip(full.trials, resumed.trials):
            assert trial_results_equal(a, b)
        assert journal_science_hash(old) == journal_science_hash(plain)
