"""Result cache: content addressing, hit/miss behavior, robustness."""

import json
import os

import pytest

from repro.experiments import Job, ResultCache, code_fingerprint, execute_job

JOB = Job.make("accel_run", model="alexnet", zoo="paper", scheme="guardnn-ci",
               scheme_params={}, batch=1, training=False, config={})


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path))


class TestHitMiss:
    def test_first_lookup_misses(self, cache):
        assert cache.get(JOB) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_put_then_get_round_trips(self, cache):
        rows = execute_job(JOB)
        cache.put(JOB, rows)
        assert cache.get(JOB) == rows
        assert cache.hits == 1

    def test_hit_survives_new_cache_instance(self, cache, tmp_path):
        rows = execute_job(JOB)
        cache.put(JOB, rows)
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(JOB) == rows

    def test_cached_rows_equal_recomputed_rows(self, cache):
        rows = execute_job(JOB)
        cache.put(JOB, rows)
        assert cache.get(JOB) == execute_job(JOB)


class TestContentAddressing:
    def test_key_is_stable(self, cache):
        assert cache.key(JOB) == cache.key(JOB)

    def test_key_depends_on_params(self, cache):
        other = Job.make("accel_run", model="alexnet", zoo="paper", scheme="bp",
                         scheme_params={}, batch=1, training=False, config={})
        assert cache.key(JOB) != cache.key(other)

    def test_key_depends_on_executor(self, cache):
        assert cache.key(JOB) != cache.key(Job(executor="other",
                                               params_json=JOB.params_json))

    def test_key_depends_on_code_fingerprint(self, tmp_path):
        a = ResultCache(str(tmp_path), fingerprint="aaa")
        b = ResultCache(str(tmp_path), fingerprint="bbb")
        assert a.key(JOB) != b.key(JOB)
        a.put(JOB, [{"x": 1}])
        assert b.get(JOB) is None  # a code change invalidates the entry

    def test_fingerprint_tracks_source(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "m.py").write_text("x = 1\n")
        before = code_fingerprint(str(pkg))
        assert before == code_fingerprint(str(pkg))  # memoized and stable
        (pkg / "m.py").write_text("x = 2\n")
        # memo intentionally caches per-process; a fresh walk must differ
        from repro.experiments import cache as cache_mod

        cache_mod._fingerprint_memo.pop(str(pkg))
        after_py = code_fingerprint(str(pkg))
        assert after_py != before
        # a compiled kernel's source counts too
        (pkg / "k.c").write_text("int x = 1;\n")
        cache_mod._fingerprint_memo.pop(str(pkg))
        with_c = code_fingerprint(str(pkg))
        assert with_c != after_py
        (pkg / "k.c").write_text("int x = 2;\n")
        cache_mod._fingerprint_memo.pop(str(pkg))
        assert code_fingerprint(str(pkg)) != with_c


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, cache):
        cache.put(JOB, execute_job(JOB))
        path = cache._path(cache.key(JOB))
        with open(path, "w") as f:
            f.write("{not json")
        assert cache.get(JOB) is None

    @pytest.mark.parametrize("rows", ["garbage", None, [1, 2], [{"ok": 1}, "no"]])
    def test_parseable_but_malformed_rows_are_a_miss(self, cache, rows):
        path = cache._path(cache.key(JOB))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"rows": rows}, f)
        assert cache.get(JOB) is None
        assert cache.hits == 0

    def test_entry_file_is_debuggable_json(self, cache):
        cache.put(JOB, execute_job(JOB))
        with open(cache._path(cache.key(JOB))) as f:
            payload = json.load(f)
        assert payload["executor"] == "accel_run"
        assert payload["params"]["model"] == "alexnet"
        assert payload["rows"]

    def test_directory_created_lazily(self, tmp_path):
        target = os.path.join(str(tmp_path), "deep", "nested")
        cache = ResultCache(target)
        cache.get(JOB)  # miss, must not create anything
        assert not os.path.exists(target)
        cache.put(JOB, [{"x": 1}])
        assert os.path.exists(target)
