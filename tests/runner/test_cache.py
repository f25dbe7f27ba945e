"""ResultCache: round-trip, atomicity layout, and poison resistance."""

import json

from repro.runner import SCHEMA_VERSION, Job, ResultCache, run_batch
from repro.sim import SimConfig

#: a tiny program every cache test can afford to re-simulate
_TINY = """
main:
    movq $7, %rax
    out %rax
    hlt
"""


def _tiny_job(**kwargs):
    from repro import assemble
    return Job.from_program(assemble(_TINY),
                            config=SimConfig(n_cores=2), **kwargs)


class TestCacheBasics:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"cycles": 3})
        assert cache.get("ab" * 32) == {"cycles": 3}
        assert len(cache) == 1

    def test_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    def test_two_level_fanout(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("ef" * 32, {})
        assert path == tmp_path / "ef" / ("ef" * 32 + ".json")

    def test_entry_survives_a_fresh_handle(self, tmp_path):
        ResultCache(tmp_path).put("ab" * 32, {"cycles": 3})
        reopened = ResultCache(tmp_path)
        assert reopened.get("ab" * 32) == {"cycles": 3}
        assert reopened.stats == {"hits": 1, "misses": 0, "healed": 0}

    def test_put_replaces_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"cycles": 3})
        cache.put("ab" * 32, {"cycles": 4})
        assert cache.get("ab" * 32) == {"cycles": 4}
        assert len(cache) == 1

    def test_no_temp_litter(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"cycles": 3})
        assert not list(tmp_path.rglob(".*tmp*"))


class TestCachePoison:
    """Anything suspicious must read as a miss, never as a result."""

    def _poison(self, tmp_path, corruption):
        cache = ResultCache(tmp_path)
        job = _tiny_job()
        first = run_batch([job], cache=cache)
        assert first.executed == 1 and first.ok
        path = cache.path_for(job.key())
        corruption(path)
        second = run_batch([job], cache=cache)
        assert second.executed == 1, "poisoned entry must be recomputed"
        assert second.cache_hits == 0
        assert second.payloads() == first.payloads()
        # the recompute heals the entry: a third run is a clean hit
        third = run_batch([job], cache=cache)
        assert third.cache_hits == 1 and third.executed == 0
        assert third.payloads() == first.payloads()

    def test_corrupt_file_recomputed(self, tmp_path):
        self._poison(tmp_path,
                     lambda path: path.write_text("{truncated garba"))

    def test_stale_schema_recomputed(self, tmp_path):
        def bump_schema(path):
            entry = json.loads(path.read_text())
            entry["schema"] = SCHEMA_VERSION + 1
            path.write_text(json.dumps(entry))
        self._poison(tmp_path, bump_schema)

    def test_key_mismatch_recomputed(self, tmp_path):
        def swap_key(path):
            entry = json.loads(path.read_text())
            entry["key"] = "0" * 64
            path.write_text(json.dumps(entry))
        self._poison(tmp_path, swap_key)

    def test_non_dict_payload_recomputed(self, tmp_path):
        def flatten(path):
            entry = json.loads(path.read_text())
            entry["payload"] = [1, 2, 3]
            path.write_text(json.dumps(entry))
        self._poison(tmp_path, flatten)

    def test_deleted_entry_recomputed(self, tmp_path):
        self._poison(tmp_path, lambda path: path.unlink())
