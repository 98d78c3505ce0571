"""Cache-integrity regressions: corrupt entries, tmp litter, backends.

The bug these pin down: ``ArtifactStore.__contains__`` used to answer
from ``Path.exists()`` alone, so a truncated/corrupt pickle (a writer
killed mid-``os.replace``, a bad disk) counted as a hit — sweeps then
over-reported their precached count and served nothing.  Membership is
now defined as *readability*: a corrupt entry is evicted, counted, and
reported as a miss everywhere.
"""

import pickle
from pathlib import Path

import pytest

from repro.core.artifacts import (
    ArtifactStore,
    ChaosStorage,
    LocalDirStorage,
    StorageBackend,
    StorageFault,
    register_storage_scheme,
    storage_from_url,
)
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import (
    SweepSpec,
    _precached_count,
    expand,
    point_cache_key,
    point_config,
    run_sweep,
)


def _entry_files(cache_dir):
    return sorted(p for p in cache_dir.iterdir()
                  if p.suffix == ".pkl")


class TestCorruptEntries:
    def test_truncated_pickle_is_a_miss_and_is_evicted(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("alpha", {"rows": [1, 2, 3]})
        (entry,) = _entry_files(tmp_path)
        entry.write_bytes(entry.read_bytes()[:7])  # truncate mid-stream

        fresh = ArtifactStore(cache_dir=tmp_path)
        assert "alpha" not in fresh
        assert fresh.get("alpha", "missing") == "missing"
        assert fresh.corrupt_evictions >= 1
        assert not entry.exists(), "corrupt entry must be unlinked"

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("alpha", 42)
        (entry,) = _entry_files(tmp_path)
        entry.write_bytes(b"not a pickle at all")
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert fresh.get("alpha", default=None) is None
        assert fresh.counters()["corrupt_evictions"] == 1

    def test_membership_equals_readability_and_promotes(self, tmp_path):
        ArtifactStore(cache_dir=tmp_path).put("alpha", "payload")
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert "alpha" in fresh            # readable -> member
        assert len(fresh) == 1             # ...and promoted to memory
        assert fresh.get("alpha") == "payload"

    def test_intact_entries_survive_a_corrupt_sibling(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("good", "kept")
        store.put("bad", "doomed")
        for entry in _entry_files(tmp_path):
            if pickle.loads(entry.read_bytes()) == "doomed":
                entry.write_bytes(b"\x80")
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert "bad" not in fresh
        assert fresh.get("good") == "kept"


class TestStaleTmpSweep:
    def test_sweep_removes_old_tmp_litter(self, tmp_path):
        litter = tmp_path / ".0123456789abcdef-dead1"
        litter.write_bytes(b"half-written")
        keeper = tmp_path / "real.pkl"
        keeper.write_bytes(pickle.dumps("x"))
        store = ArtifactStore(cache_dir=tmp_path)
        assert store.sweep_stale_tmp(max_age_s=0.0) == 1
        assert not litter.exists()
        assert keeper.exists()

    def test_fresh_tmp_files_are_left_alone(self, tmp_path):
        litter = tmp_path / ".0123456789abcdef-dead1"
        litter.write_bytes(b"half-written")
        store = ArtifactStore(cache_dir=tmp_path)
        assert store.sweep_stale_tmp(max_age_s=3600.0) == 0
        assert litter.exists()

    def test_non_tmp_dotfiles_are_not_swept(self, tmp_path):
        dotfile = tmp_path / ".gitignore"
        dotfile.write_text("*")
        store = ArtifactStore(cache_dir=tmp_path)
        assert store.sweep_stale_tmp(max_age_s=0.0) == 0
        assert dotfile.exists()


class TestStorageBackends:
    def test_file_url_resolves_to_local_dir(self, tmp_path):
        storage = storage_from_url(f"file://{tmp_path}")
        assert isinstance(storage, LocalDirStorage)
        store = ArtifactStore(cache_dir=f"file://{tmp_path}")
        store.put("k", 1)
        assert ArtifactStore(cache_dir=tmp_path).get("k") == 1

    def test_plain_path_resolves_to_local_dir(self, tmp_path):
        assert isinstance(storage_from_url(tmp_path), LocalDirStorage)

    def test_unknown_scheme_is_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            storage_from_url("warehouse://bucket/prefix")

    def test_registered_scheme_round_trips(self):
        class MemoryStorage(StorageBackend):
            def __init__(self):
                self.blobs = {}

            def read(self, key):
                try:
                    return self.blobs[key]
                except KeyError:
                    raise KeyError(key) from None

            def write(self, key, data):
                self.blobs[key] = data

            def contains(self, key):
                return key in self.blobs

            def delete(self, key):
                self.blobs.pop(key, None)

            def describe(self):
                return "memtest://"

        backend = MemoryStorage()
        register_storage_scheme("memtest", lambda url: backend)
        store = ArtifactStore(cache_dir="memtest://anything")
        store.put("k", {"v": 2})
        assert ArtifactStore(storage=backend).get("k") == {"v": 2}

    def test_cache_dir_and_storage_are_mutually_exclusive(
            self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(cache_dir=tmp_path,
                          storage=LocalDirStorage(tmp_path))

    def test_counters_snapshot(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.get_or_compute("k", lambda: 1)          # miss + compute
        store.get_or_compute("k", lambda: 1)          # memory hit
        disk = ArtifactStore(cache_dir=tmp_path)
        disk.get_or_compute("k", lambda: 1)           # disk hit
        assert store.counters() == {"hits": 1, "misses": 1,
                                    "disk_hits": 0,
                                    "corrupt_evictions": 0,
                                    "read_faults": 0,
                                    "write_faults": 0}
        assert disk.counters()["disk_hits"] == 1


class TestPrecachedCountRegression:
    """A truncated point artifact must not count as precached."""

    def test_truncated_point_entry_drops_from_precache(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(sweep_mod._POINT_RUNNERS, "fig8",
                            _echo_runner)
        spec = SweepSpec(experiment="fig8", scale="smoke",
                         thresholds=(None, 900.0))
        cache = tmp_path / "cache"
        run_sweep(spec, jobs=1, cache_dir=str(cache))

        points = expand(spec)
        store = ArtifactStore(cache_dir=cache)
        assert _precached_count(points, str(cache), store) == 2

        victim = point_cache_key(points[0], point_config(points[0]))
        path = LocalDirStorage(cache)._path(victim)
        path.write_bytes(path.read_bytes()[:5])

        fresh = ArtifactStore(cache_dir=cache)
        assert _precached_count(points, str(cache), fresh) == 1
        assert victim not in fresh


def _echo_runner(point, context):
    value = (point.threshold or 0.0) + point.seed
    return {"payload": {"value": value},
            "metrics": {"accuracy": value, "n_weights": 1,
                        "power_opt_mw": value},
            "skipped": None}


class TestChaosStorage:
    """The fault-injection harness and the store's tolerance of it."""

    def test_seeded_faults_are_deterministic(self, tmp_path):
        def drill(seed):
            chaos = ChaosStorage(LocalDirStorage(tmp_path / str(seed)),
                                 read_fault_rate=0.5,
                                 write_fault_rate=0.5, seed=seed)
            events = []
            for i in range(40):
                try:
                    chaos.write(f"k{i}", b"payload")
                    events.append(("w", i))
                except StorageFault:
                    events.append(("W!", i))
                try:
                    chaos.read(f"k{i}")
                    events.append(("r", i))
                except (StorageFault, KeyError):
                    events.append(("R!", i))
            return events

        assert drill(7) == drill(7)
        assert drill(7) != drill(8)

    def test_injected_corruption_feeds_corrupt_eviction(self, tmp_path):
        chaos = ChaosStorage(LocalDirStorage(tmp_path),
                             corrupt_rate=1.0, seed=0)
        store = ArtifactStore(storage=chaos)
        store.put("k", {"value": 1})
        fresh = ArtifactStore(storage=ChaosStorage(
            LocalDirStorage(tmp_path), corrupt_rate=1.0, seed=0))
        # Every read comes back truncated -> the existing
        # corrupt-eviction path fires, and the entry is a miss.
        assert "k" not in fresh
        assert fresh.corrupt_evictions == 1
        assert chaos.counters()["injected_corruptions"] == 0

    def test_read_fault_degrades_to_recompute(self, tmp_path):
        chaos = ChaosStorage(LocalDirStorage(tmp_path),
                             read_fault_rate=1.0, seed=0)
        store = ArtifactStore(storage=chaos)
        store.put("k", 41)
        store.clear_memory()
        calls = []
        assert store.get_or_compute(
            "k", lambda: calls.append(1) or 42) == 42
        assert calls == [1]
        assert store.read_faults >= 1
        assert store.counters()["read_faults"] == store.read_faults

    def test_write_fault_keeps_artifact_in_memory(self, tmp_path):
        chaos = ChaosStorage(LocalDirStorage(tmp_path),
                             write_fault_rate=1.0, seed=0)
        store = ArtifactStore(storage=chaos)
        assert store.get_or_compute("k", lambda: 42) == 42
        assert store.get("k") == 42          # still served from memory
        assert store.write_faults == 1
        assert chaos.injected_write_faults == 1
        clean = ArtifactStore(cache_dir=tmp_path)
        assert "k" not in clean              # never hit the disk

    def test_chaos_url_scheme(self, tmp_path):
        url = (f"chaos://{tmp_path}/cache"
               f"?read=0.25&write=0.5&corrupt=0.1&seed=13")
        backend = storage_from_url(url)
        assert isinstance(backend, ChaosStorage)
        assert backend.read_fault_rate == 0.25
        assert backend.write_fault_rate == 0.5
        assert backend.corrupt_rate == 0.1
        assert backend.root == Path(f"{tmp_path}/cache")
        plain = storage_from_url(f"chaos://{tmp_path}/cache")
        assert plain.read_fault_rate == 0.0
        with pytest.raises(ValueError, match="directory path"):
            storage_from_url("chaos://?read=0.5")

    def test_bad_rates_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="read_fault_rate"):
            ChaosStorage(LocalDirStorage(tmp_path), read_fault_rate=1.5)

    def test_fault_free_chaos_is_transparent(self, tmp_path):
        chaos = ChaosStorage(LocalDirStorage(tmp_path), seed=3)
        store = ArtifactStore(storage=chaos)
        store.put("k", {"value": 9})
        fresh = ArtifactStore(storage=ChaosStorage(
            LocalDirStorage(tmp_path), seed=4))
        assert fresh.get("k") == {"value": 9}
        assert chaos.sweep_stale_tmp() == 0
        assert "chaos" in chaos.describe()
        assert chaos.contains("k")
        chaos.delete("k")
        assert not chaos.contains("k")
