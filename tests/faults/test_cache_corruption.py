"""Disk-cache damage: recovery semantics, checksums and the tmp-file hygiene.

Every flavor of cache damage must read as a miss (recompute), never as an
error and never as a stale hit — and damaged entries are quarantined to
``corrupt/`` as evidence instead of being silently deleted.
"""

import json

from repro.faults import FaultPlan, FaultSpec
from repro.systems.campaign import CampaignRunner, RunSpec
from repro.systems.result_cache import (
    CACHE_VERSION,
    INTEGRITY_FIELD,
    ResultDiskCache,
    payload_checksum,
)

SPEC = RunSpec("micro:count", "arm_original")

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


def _key_path(runner: CampaignRunner, spec: RunSpec):
    return runner.disk.path_for(runner.cache_key(spec))


class TestManualDamageRecovery:
    def _primed(self, tmp_path):
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        baseline = runner.run([SPEC]).result_for(SPEC)
        return CampaignRunner(jobs=1, cache_dir=tmp_path), baseline

    def test_bad_json_recovers(self, tmp_path):
        runner, baseline = self._primed(tmp_path)
        path = _key_path(runner, SPEC)
        path.write_bytes(b"\x00not json\xff")
        outcome = runner.run([SPEC])
        assert outcome.metrics[0].source == "computed"
        assert outcome.result_for(SPEC).to_dict() == baseline.to_dict()
        assert not path.exists() or json.loads(path.read_text())  # re-stored clean

    def test_wrong_cache_version_recovers(self, tmp_path):
        runner, baseline = self._primed(tmp_path)
        path = _key_path(runner, SPEC)
        payload = json.loads(path.read_text())
        assert payload["cache_version"] == CACHE_VERSION
        payload["cache_version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(payload))
        outcome = runner.run([SPEC])
        assert outcome.metrics[0].source == "computed"
        assert outcome.result_for(SPEC).to_dict() == baseline.to_dict()
        # an old layout is dropped as stale, not quarantined as damage
        assert outcome.degradation == {"corrupt_quarantined": 0, "stale_dropped": 1}
        assert not runner.disk.corrupt_dir.exists()

    def test_truncated_entry_recovers(self, tmp_path):
        runner, baseline = self._primed(tmp_path)
        path = _key_path(runner, SPEC)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        outcome = runner.run([SPEC])
        assert outcome.metrics[0].source == "computed"
        assert outcome.result_for(SPEC).to_dict() == baseline.to_dict()
        assert outcome.degradation["corrupt_quarantined"] == 1
        assert len(list(runner.disk.corrupt_dir.iterdir())) == 1

    def test_intact_entry_still_hits(self, tmp_path):
        runner, _ = self._primed(tmp_path)
        assert runner.run([SPEC]).metrics[0].source == "disk-cache"


class TestChecksum:
    def test_round_trip_embeds_version_and_checksum(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 5}})
        loaded = cache.load(KEY_A)
        assert loaded["result"] == {"cycles": 5}
        assert loaded["cache_version"] == CACHE_VERSION
        assert loaded[INTEGRITY_FIELD] == payload_checksum(loaded)
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_bitflip_is_quarantined_not_served(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 5}})
        path = cache.path_for(KEY_A)
        payload = json.loads(path.read_text())
        payload["result"]["cycles"] = 999_999  # silent bit-rot, valid JSON
        path.write_text(json.dumps(payload))

        assert cache.load(KEY_A) is None
        assert cache.stats.corrupt_quarantined == 1
        assert not path.exists()
        assert list(cache.corrupt_dir.iterdir())  # the evidence is kept

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 5}})
        path = cache.path_for(KEY_A)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.load(KEY_A) is None
        assert cache.stats.corrupt_quarantined == 1
        assert len(list(cache.corrupt_dir.iterdir())) == 1

    def test_repeated_quarantine_keeps_every_specimen(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        for _ in range(2):
            cache.store(KEY_A, {"result": {"cycles": 5}})
            cache.path_for(KEY_A).write_text("garbage")
            assert cache.load(KEY_A) is None
        assert cache.stats.corrupt_quarantined == 2
        assert len(list(cache.corrupt_dir.iterdir())) == 2  # suffixed, not clobbered

    def test_version_mismatch_is_dropped_as_stale_not_quarantined(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 5}})
        path = cache.path_for(KEY_A)
        payload = json.loads(path.read_text())
        payload["cache_version"] = CACHE_VERSION - 1
        path.write_text(json.dumps(payload))

        assert cache.load(KEY_A) is None
        assert cache.stats.stale_dropped == 1
        assert cache.stats.corrupt_quarantined == 0
        assert not path.exists()
        assert not cache.corrupt_dir.exists()

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResultDiskCache(tmp_path / "cache", enabled=False)
        cache.store(KEY_A, {"result": {}})
        assert cache.load(KEY_A) is None
        assert not (tmp_path / "cache").exists()


class TestInjectedCacheFaults:
    def test_every_corrupt_mode_recovers(self, tmp_path):
        clean = CampaignRunner(jobs=1, cache_dir=tmp_path)
        baseline = clean.run([SPEC]).result_for(SPEC)
        for mode in ("garbage", "version", "truncate"):
            plan = FaultPlan(faults=[FaultSpec(kind="cache_corrupt", match="micro:count/*", mode=mode)])
            runner = CampaignRunner(jobs=1, cache_dir=tmp_path, fault_plan=plan)
            outcome = runner.run([SPEC])
            assert outcome.ok
            assert outcome.metrics[0].source == "computed", mode
            assert outcome.result_for(SPEC).to_dict() == baseline.to_dict(), mode

    def test_tmp_mode_orphans_are_pruned_on_startup(self, tmp_path):
        plan = FaultPlan(faults=[FaultSpec(kind="cache_corrupt", match="micro:count/*", mode="tmp")])
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path, fault_plan=plan)
        outcome = runner.run([SPEC])
        assert outcome.ok
        assert not list(tmp_path.rglob("*.tmp"))


class TestTmpHygiene:
    def test_prune_tmp_removes_only_orphans(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        cache.store("ab" + "0" * 62, {"keep": True})
        sub = tmp_path / "ab"
        (sub / "orphan1.tmp").write_text("torn")
        (sub / "orphan2.tmp").write_text("torn")
        assert cache.prune_tmp() == 2
        loaded = cache.load("ab" + "0" * 62)
        assert loaded["cache_version"] == CACHE_VERSION and loaded["keep"] is True
        assert cache.prune_tmp() == 0

    def test_prune_tmp_removes_orphans_and_spares_entries(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 1}})
        orphan = cache.path_for(KEY_A).parent / "deadbeef.tmp"
        orphan.write_text("half-written")
        assert cache.prune_tmp() == 1
        assert not orphan.exists()
        assert cache.load(KEY_A) is not None

    def test_clear_removes_entries_and_orphans(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        cache.store("cd" + "0" * 62, {"x": 1})
        (tmp_path / "cd" / "leftover.tmp").write_text("torn")
        assert cache.clear() == 2
        assert cache.load("cd" + "0" * 62) is None

    def test_clear_sweeps_entries_and_quarantine(self, tmp_path):
        cache = ResultDiskCache(tmp_path)
        cache.store(KEY_A, {"result": {"cycles": 1}})
        cache.store(KEY_B, {"result": {"cycles": 2}})
        cache.path_for(KEY_A).write_text("garbage")
        cache.load(KEY_A)  # → corrupt/
        assert cache.clear() == 2  # the survivor + the quarantined specimen
        assert cache.load(KEY_B) is None

    def test_disabled_cache_prunes_nothing(self, tmp_path):
        (tmp_path / "a.tmp").write_text("torn")
        cache = ResultDiskCache(tmp_path, enabled=False)
        assert cache.prune_tmp() == 0
