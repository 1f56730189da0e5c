"""Shared golden artifacts: round-trip, rejection, and campaign identity.

The artifact store must never be able to change campaign results: a good
artifact reproduces the exact golden profile + snapshot store, and a bad
one (corrupt, truncated, stale schema) is rejected with a warning and
the campaign silently re-profiles.
"""

import json

import pytest

from repro.apps import get_app
from repro.errors import ArtifactError
from repro.inject import PreparedApp, run_campaign, trial_results_equal
from repro.inject import artifacts
from repro.inject import campaign as campaign_mod
from repro.inject.engine import resume_campaign


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())


class TestKeyAndRoundTrip:
    def test_key_is_stable_and_content_sensitive(self):
        spec = get_app("matvec")
        k1 = artifacts.artifact_key(spec, "fpm", 150, 32)
        assert k1 == artifacts.artifact_key(spec, "fpm", 150, 32)
        assert k1 != artifacts.artifact_key(spec, "blackbox", 150, 32)
        assert k1 != artifacts.artifact_key(spec, "fpm", 151, 32)
        other = get_app("amg")
        assert k1 != artifacts.artifact_key(other, "fpm", 150, 32)

    def test_save_then_load_round_trips(self, tmp_path):
        pa = PreparedApp(get_app("matvec"), "fpm", snapshot_stride=150,
                         artifact_dir=tmp_path)
        assert not pa.from_artifact
        directory, key = pa.artifact_ref
        assert artifacts.artifact_path(directory, key).exists()

        art = artifacts.load_artifact_strict(directory, key)
        g = art.golden
        assert g.cycles == pa.golden.cycles
        assert g.outputs == pa.golden.outputs
        assert list(g.inj_counts) == list(pa.golden.inj_counts)
        store = art.snapshot_store()
        assert len(store) == len(pa.snapshots)
        assert list(store._snaps) == list(pa.snapshots._snaps)
        assert not store._capturing

    def test_second_prepare_loads_instead_of_profiling(self, tmp_path,
                                                       monkeypatch):
        PreparedApp(get_app("matvec"), "fpm", snapshot_stride=150,
                    artifact_dir=tmp_path)

        def boom(*a, **k):  # profiling again would be the bug
            raise AssertionError("golden re-profiled despite artifact")

        monkeypatch.setattr("repro.inject.profiler.profile_golden", boom)
        pa2 = PreparedApp(get_app("matvec"), "fpm", snapshot_stride=150,
                          artifact_dir=tmp_path)
        assert pa2.from_artifact
        assert pa2.snapshots is not None and len(pa2.snapshots) > 0

    def test_plan_of_another_version_is_rederived(self, tmp_path,
                                                  version=None):
        # installing it as-is would install 0 traces, latch the program
        # and leave the process on tier-1 for good
        first = PreparedApp(get_app("matvec"), "fpm", snapshot_stride=150,
                            artifact_dir=tmp_path)
        stale = dict(first.tier2_plan,
                     version=version or first.tier2_plan["version"] + 1)
        artifacts.save_artifact(*first.artifact_ref, first.golden,
                                first.snapshots, first.fingerprints,
                                tier2_plan=stale)
        pa = PreparedApp(get_app("matvec"), "fpm", snapshot_stride=150,
                         artifact_dir=tmp_path)
        assert pa.from_artifact and pa.tier2_plan == stale
        assert pa.ensure_tier2() == pa.program.tier2_traces > 0
        assert pa.tier2_plan_source == "derived"
        assert pa.tier2_plan == first.tier2_plan

    def test_plan_v2_is_rederived(self, tmp_path):
        # v2 paths stop at every intrinsic call: where they agree with
        # the module at all, their member counts no longer do
        self.test_plan_of_another_version_is_rederived(tmp_path, version=2)

    def test_env_var_enables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        pa = PreparedApp(get_app("matvec"), "blackbox", snapshot_stride=150)
        assert pa.artifact_ref is not None
        assert artifacts.artifact_path(*pa.artifact_ref).exists()

    def test_disabled_without_dir(self):
        pa = PreparedApp(get_app("matvec"), "blackbox", snapshot_stride=150)
        assert pa.artifact_ref is None
        assert not pa.from_artifact


class TestRejection:
    def _make(self, tmp_path):
        pa = PreparedApp(get_app("matvec"), "blackbox", snapshot_stride=150,
                         artifact_dir=tmp_path)
        return pa.artifact_ref

    def test_integrity_hash_mismatch_rejected(self, tmp_path):
        directory, key = self._make(tmp_path)
        path = artifacts.artifact_path(directory, key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="integrity hash mismatch"):
            artifacts.load_artifact_strict(directory, key)
        with pytest.warns(UserWarning, match="integrity hash mismatch"):
            assert artifacts.load_artifact(directory, key) is None

    def test_stale_schema_rejected(self, tmp_path):
        directory, key = self._make(tmp_path)
        path = artifacts.artifact_path(directory, key)
        blob = path.read_bytes()
        newline = blob.find(b"\n")
        header = json.loads(blob[:newline])
        header["schema"] = artifacts.SCHEMA_VERSION + 1
        path.write_bytes(json.dumps(header).encode() + blob[newline:])
        with pytest.raises(ArtifactError, match="stale artifact schema"):
            artifacts.load_artifact_strict(directory, key)

    def test_schema_6_artifact_is_reprofiled_never_unpickled(
            self, tmp_path, monkeypatch):
        # schema 6 snapshots hold int64 arrays and float-tag bytes, not
        # the word blob ProcessMemory.restore_state reads; schema 7 ones
        # hold _MachineState records, not Machine.capture tuples
        assert artifacts.SCHEMA_VERSION >= 8
        spec = get_app("matvec")
        for stale in (6, 7):
            key = artifacts.artifact_key(spec, "blackbox", 150, 32)
            monkeypatch.setattr(artifacts, "SCHEMA_VERSION", stale)
            assert artifacts.artifact_key(spec, "blackbox", 150, 32) != key
            monkeypatch.undo()

            # and one found under the current key anyway stops at its
            # header
            directory, key = self._make(tmp_path)
            path = artifacts.artifact_path(directory, key)
            blob = path.read_bytes()
            newline = blob.find(b"\n")
            header = dict(json.loads(blob[:newline]), schema=stale)
            path.write_bytes(json.dumps(header).encode() + blob[newline:])
            campaign_mod._PREPARED_CACHE.clear()

            def boom(payload):
                raise AssertionError("interpreted a stale payload")

            monkeypatch.setattr(artifacts.pickle, "loads", boom)
            with pytest.warns(UserWarning,
                              match=f"stale artifact schema {stale}"):
                pa = PreparedApp(spec, "blackbox", snapshot_stride=150,
                                 artifact_dir=tmp_path)
            assert not pa.from_artifact and pa.golden.cycles > 0
            monkeypatch.undo()
            assert artifacts.load_artifact_strict(directory, key) is not None

    def test_truncated_and_malformed_rejected(self, tmp_path):
        directory, key = self._make(tmp_path)
        path = artifacts.artifact_path(directory, key)
        path.write_bytes(b"no newline header")
        with pytest.raises(ArtifactError, match="truncated"):
            artifacts.load_artifact_strict(directory, key)
        path.write_bytes(b"{not json\n\x00\x01")
        with pytest.raises(ArtifactError, match="malformed"):
            artifacts.load_artifact_strict(directory, key)

    def test_missing_is_soft_none(self, tmp_path):
        assert artifacts.load_artifact(tmp_path, "0" * 40) is None

    def test_bad_artifact_falls_back_to_reprofiling(self, tmp_path):
        directory, key = self._make(tmp_path)
        path = artifacts.artifact_path(directory, key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        campaign_mod._PREPARED_CACHE.clear()
        with pytest.warns(UserWarning, match="ignoring golden artifact"):
            pa = PreparedApp(get_app("matvec"), "blackbox",
                             snapshot_stride=150, artifact_dir=tmp_path)
        assert not pa.from_artifact          # re-profiled
        assert pa.golden.cycles > 0
        # and the good artifact was re-written over the corrupt one
        assert artifacts.load_artifact(directory, key) is not None


class TestQuarantine:
    def _prepared(self, tmp_path):
        pa = PreparedApp(get_app("matvec"), "blackbox", snapshot_stride=150,
                         artifact_dir=tmp_path)
        return pa.artifact_ref

    def test_quarantine_moves_artifact(self, tmp_path):
        directory, key = self._prepared(tmp_path)
        src = artifacts.artifact_path(directory, key)
        before = len(artifacts.QUARANTINE_LOG)
        with pytest.warns(UserWarning, match="quarantined"):
            dst = artifacts.quarantine_artifact(directory, key, "test")
        assert dst is not None and dst.exists() and not src.exists()
        assert len(artifacts.QUARANTINE_LOG) == before + 1

    def test_quarantine_of_missing_artifact_is_none(self, tmp_path):
        assert artifacts.quarantine_artifact(tmp_path, "0" * 40, "x") is None

    def test_corrupt_artifact_quarantined_then_rematerialised(self, tmp_path):
        """One-shot re-materialisation: corrupt load → quarantine → the
        fresh golden run atomically rewrites the artifact, and the next
        load is clean (no warn-every-load loop)."""
        directory, key = self._prepared(tmp_path)
        path = artifacts.artifact_path(directory, key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        campaign_mod._PREPARED_CACHE.clear()
        with pytest.warns(UserWarning, match="golden artifact"):
            pa = PreparedApp(get_app("matvec"), "blackbox",
                             snapshot_stride=150, artifact_dir=tmp_path)
        assert not pa.from_artifact
        assert path.exists()  # re-materialised under the original name
        assert path.with_suffix(".golden.corrupt").exists()
        # second prepare: loads the fresh artifact without any warning
        campaign_mod._PREPARED_CACHE.clear()
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            pa2 = PreparedApp(get_app("matvec"), "blackbox",
                              snapshot_stride=150, artifact_dir=tmp_path)
        assert pa2.from_artifact


@pytest.mark.parametrize("mode", ["blackbox", "fpm"])
def test_campaign_with_artifacts_is_bit_identical(tmp_path, mode):
    """The acceptance criterion: artifacts on vs off, identical trials."""
    base = run_campaign("matvec", trials=16, mode=mode, seed=31,
                        keep_series=True, snapshot_stride=150)
    campaign_mod._PREPARED_CACHE.clear()
    # first artifact campaign profiles + saves; second loads from disk
    run_campaign("matvec", trials=16, mode=mode, seed=31,
                 keep_series=True, snapshot_stride=150,
                 artifact_dir=str(tmp_path))
    campaign_mod._PREPARED_CACHE.clear()
    warmed = run_campaign("matvec", trials=16, mode=mode, seed=31,
                          keep_series=True, snapshot_stride=150,
                          artifact_dir=str(tmp_path))
    for a, b in zip(base.trials, warmed.trials):
        assert trial_results_equal(a, b)


def test_resume_reuses_journaled_artifact_dir(tmp_path):
    journal = tmp_path / "c.jsonl"
    art = tmp_path / "artifacts"
    full = run_campaign("matvec", trials=8, mode="blackbox", seed=12,
                        journal=str(journal), snapshot_stride=150,
                        artifact_dir=str(art))
    header = json.loads(journal.read_text().splitlines()[0])
    assert header["artifact_dir"] == str(art)
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:4]) + "\n")
    campaign_mod._PREPARED_CACHE.clear()
    resumed = resume_campaign(journal)
    assert [t.outcome for t in resumed.trials] == \
        [t.outcome for t in full.trials]
    # the resumed run loaded the artifact rather than re-profiling
    key = (("matvec", (), "blackbox", 150))
    assert campaign_mod._PREPARED_CACHE[key].from_artifact
