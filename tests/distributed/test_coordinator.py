"""CoordinatorState machine semantics in virtual time: lease grant,
expiry and re-dispatch, heartbeat renewal, idempotent commit,
checkpoint migration, graceful deregistration, cache-served units,
epoch fencing, failure fast-path, and who has heard ``done`` — no
sockets, no sleeping."""

import pytest

from repro.checkpoint import CHECKPOINT_VERSION
from repro.distributed import CoordinatorState, LOCAL_WORKER, StaleWorkerError
from repro.distributed.protocol import ProtocolError, rows_digest
from repro.experiments.jobs import Job


def make_jobs(n):
    return [Job("simulate", f'{{"i": {i}}}') for i in range(n)]


def make_rows(jobs, tag="r"):
    return [[{"job": job.params_json, "tag": tag}] for job in jobs]


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_state(n_units=2, unit_jobs=2, **kwargs):
    clock = Clock()
    units = [make_jobs(unit_jobs) for _ in range(n_units)]
    state = CoordinatorState(units, fingerprint="fp", lease_seconds=10.0,
                             clock=clock, **kwargs)
    return state, units, clock


def admit(state, *workers):
    """Seed fixed worker ids as if they had registered. Most tests here
    predate epoch fencing and speak readable ids like ``"w1"``;
    ``register()`` mints unique ids, so admit the fixed ones directly."""
    now = state.clock()
    for worker in workers:
        state._workers[worker] = now


class TestLeaseLifecycle:
    def test_grant_then_wait_then_done(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1", "w2")
        lease = state.lease("w1")
        assert lease["event"] == "lease"
        assert lease["lease_seconds"] == 10.0
        # everything leased: a second worker waits
        assert state.lease("w2")["event"] == "wait"
        state.commit("w1", lease["unit"], lease["key"], lease["lease"],
                     make_rows(units[0]))
        assert state.lease("w1")["event"] == "done"
        assert state.done

    def test_expired_lease_redispatches_unit(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1", "w2")
        first = state.lease("w1")
        clock.advance(10.1)  # past the lease term, no heartbeat
        second = state.lease("w2")
        assert second["event"] == "lease"
        assert second["unit"] == first["unit"]
        assert second["lease"] != first["lease"]
        assert state.counters["lease_expirations"] == 1
        snap = state.snapshot()
        assert snap["redispatches"] == 1

    def test_heartbeat_extends_lease(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1", "w2")
        lease = state.lease("w1")
        for _ in range(5):
            clock.advance(6.0)  # under the 10s term each step
            reply = state.heartbeat("w1", [lease["lease"]])
            assert reply["renewed"] == [lease["lease"]]
            assert reply["lost"] == []
        # 30s elapsed, lease still live: nothing to re-dispatch
        assert state.lease("w2")["event"] == "wait"
        assert state.counters["lease_renewals"] == 5

    def test_heartbeat_reports_lost_lease(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1")
        lease = state.lease("w1")
        clock.advance(11.0)
        reply = state.heartbeat("w1", [lease["lease"]])
        assert reply["renewed"] == []
        assert reply["lost"] == [lease["lease"]]


class TestEpochFence:
    """Only ids minted by this coordinator incarnation may lease, renew,
    commit, or upload — a stale id is rejected with the current epoch so
    the worker knows to re-register, not retry."""

    def test_unknown_worker_rejected_with_epoch(self):
        state, _, _ = make_state()
        with pytest.raises(StaleWorkerError) as excinfo:
            state.lease("never-registered")
        assert excinfo.value.worker == "never-registered"
        assert excinfo.value.epoch == 0
        assert state.counters["stale_worker_rejects"] == 1
        assert state.counters["workers_registered"] == 0

    def test_all_fenced_verbs_reject_unknown_ids(self):
        state, units, clock = make_pipeline_state()
        with pytest.raises(StaleWorkerError):
            state.heartbeat("ghost", [])
        with pytest.raises(StaleWorkerError):
            state.commit("ghost", 0, "key", "lease", [[{"r": 1}]])
        with pytest.raises(StaleWorkerError):
            state.checkpoint("ghost", 0, "key", "lease", make_envelope())
        assert state.counters["stale_worker_rejects"] == 3

    def test_fail_and_deregister_stay_lenient(self):
        """A failure report or a drain from a stale id is information,
        not a request for work — rejecting it would only hide signal."""
        state, units, clock = make_state(n_units=1)
        assert state.deregister("ghost")["released"] == 0
        state.fail("ghost", 0, state._units[0].key,
                   {"executor": "e", "params": "{}", "cause": "boom"})
        assert state.done

    def test_local_worker_exempt_from_fence(self):
        state, units, clock = make_state(n_units=1)
        lease = state.lease(LOCAL_WORKER)
        assert lease["event"] == "lease"

    def test_register_mints_usable_id(self):
        state, _, _ = make_state()
        reply = state.register("crunch")
        assert reply["event"] == "registered"
        assert reply["worker"].startswith("crunch-")
        assert state.counters["workers_registered"] == 1
        assert state.lease(reply["worker"])["event"] == "lease"

    def test_every_reply_carries_the_epoch(self):
        state, units, clock = make_state(n_units=1)
        registered = state.register("w")
        worker = registered["worker"]
        assert registered["epoch"] == 0
        lease = state.lease(worker)
        assert lease["epoch"] == 0
        assert state.heartbeat(worker, [lease["lease"]])["epoch"] == 0
        commit = state.commit(worker, lease["unit"], lease["key"],
                              lease["lease"], make_rows(units[0]))
        assert commit["epoch"] == 0
        assert state.lease(worker)["epoch"] == 0  # the "done" reply too


class TestIdempotentCommit:
    def test_duplicate_equal_result_dropped_with_metric(self):
        """The lease-expired-then-returned worker: both copies answer;
        the second is verified byte-equal and dropped."""
        state, units, clock = make_state(n_units=1)
        admit(state, "w1", "w2")
        first = state.lease("w1")
        clock.advance(10.5)
        second = state.lease("w2")  # re-dispatch after expiry
        rows = make_rows(units[0])
        reply = state.commit("w2", second["unit"], second["key"],
                             second["lease"], rows)
        assert reply["event"] == "committed"
        # w1 returns from the dead with the same (pure-function) rows
        late = state.commit("w1", first["unit"], first["key"],
                            first["lease"], make_rows(units[0]))
        assert late["event"] == "duplicate"
        assert state.counters["duplicate_results_dropped"] == 1
        assert state.counters["units_completed"] == 1

    def test_duplicate_mismatch_counted_first_result_kept(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1", "w2")
        lease = state.lease("w1")
        good = make_rows(units[0], tag="good")
        state.commit("w1", lease["unit"], lease["key"], lease["lease"], good)
        bad = make_rows(units[0], tag="evil")
        reply = state.commit("w2", lease["unit"], lease["key"], None, bad)
        assert reply["event"] == "duplicate"
        assert state.counters["duplicate_result_mismatches"] == 1
        assert state.results()[0] == good

    def test_commit_after_expiry_still_lands(self):
        """A valid result with a dead lease is committed, not wasted —
        recomputing bits we already hold helps no one."""
        state, units, clock = make_state(n_units=1)
        admit(state, "w1")
        lease = state.lease("w1")
        clock.advance(60.0)
        reply = state.commit("w1", lease["unit"], lease["key"],
                             lease["lease"], make_rows(units[0]))
        assert reply["event"] == "committed"
        assert state.counters["expired_lease_commits"] == 1

    def test_wrong_key_rejected(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1")
        lease = state.lease("w1")
        with pytest.raises(ProtocolError):
            state.commit("w1", lease["unit"], "stale-key", lease["lease"],
                         make_rows(units[0]))
        assert state.counters["invalid_results"] == 1
        assert not state.done

    def test_wrong_row_count_rejected(self):
        state, units, clock = make_state(n_units=1, unit_jobs=2)
        admit(state, "w1")
        lease = state.lease("w1")
        with pytest.raises(ProtocolError):
            state.commit("w1", lease["unit"], lease["key"], lease["lease"],
                         make_rows(units[0][:1]))
        assert state.counters["invalid_results"] == 1

    def test_commit_digest_matches_rows_digest(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1")
        lease = state.lease("w1")
        rows = make_rows(units[0])
        state.commit("w1", lease["unit"], lease["key"], lease["lease"], rows)
        assert state._units[0].digest == rows_digest(rows)


FINGERPRINT = {"spec": {"type": "streaming", "nbytes": 4096},
               "schemes": ["np", "bp"], "scheme_params": {"np": {}, "bp": {}},
               "chunk_requests": 64}


def make_pipeline_state(**kwargs):
    clock = Clock()
    units = [[Job("pipeline_run", '{"workload": "streaming"}')]]
    state = CoordinatorState(units, fingerprint="fp", lease_seconds=10.0,
                             clock=clock, unit_fingerprints=[FINGERPRINT],
                             checkpoint_every=2, **kwargs)
    return state, units, clock


def make_envelope(cursor=128, fingerprint=None, **overrides):
    chunks = cursor // 64 if isinstance(cursor, int) else 0
    envelope = {"version": CHECKPOINT_VERSION, "kind": "trace-pipeline",
                "fingerprint": FINGERPRINT if fingerprint is None else fingerprint,
                "meta": {}, "cursor": cursor, "chunks": chunks,
                "schemes": {}}
    envelope.update(overrides)
    return envelope


class TestCheckpointMigration:
    def test_pipeline_lease_advertises_checkpointing(self):
        state, units, clock = make_pipeline_state()
        admit(state, "w1")
        lease = state.lease("w1")
        assert lease["pipeline"] is True
        assert lease["checkpoint_every"] == 2
        assert "checkpoint" not in lease  # nothing migrated yet

    def test_regrant_carries_latest_envelope_and_counts_resume(self):
        state, units, clock = make_pipeline_state()
        admit(state, "w1", "w2")
        lease = state.lease("w1")
        state.checkpoint("w1", lease["unit"], lease["key"], lease["lease"],
                         make_envelope(cursor=64))
        state.checkpoint("w1", lease["unit"], lease["key"], lease["lease"],
                         make_envelope(cursor=128))
        clock.advance(11.0)  # w1 dies; lease expires
        regrant = state.lease("w2")
        assert regrant["event"] == "lease"
        assert regrant["checkpoint"]["cursor"] == 128
        assert state.counters["checkpoints_migrated"] == 2
        assert state.counters["resumed_units"] == 1

    def test_upload_renews_the_lease(self):
        state, units, clock = make_pipeline_state()
        admit(state, "w1", "w2")
        lease = state.lease("w1")
        clock.advance(8.0)  # near expiry, no heartbeat
        state.checkpoint("w1", lease["unit"], lease["key"], lease["lease"],
                         make_envelope(cursor=64))
        clock.advance(8.0)  # 16s since grant, 8s since upload: still live
        assert state.lease("w2")["event"] == "wait"
        assert state.counters["lease_expirations"] == 0

    def test_stale_cursor_never_overwrites_fresher_envelope(self):
        state, units, clock = make_pipeline_state()
        admit(state, "w1")
        lease = state.lease("w1")
        state.checkpoint("w1", lease["unit"], lease["key"], lease["lease"],
                         make_envelope(cursor=128))
        reply = state.checkpoint("w1", lease["unit"], lease["key"],
                                 lease["lease"], make_envelope(cursor=64))
        assert reply["event"] == "stale"
        assert state._units[0].checkpoint["cursor"] == 128
        assert state.counters["checkpoints_migrated"] == 1

    @pytest.mark.parametrize("envelope", [
        make_envelope(version="\x00garbage\x00"),   # corrupt version
        make_envelope(kind="sweep"),                # wrong kind
        make_envelope(fingerprint={"spec": "other"}),  # different computation
        make_envelope(cursor="not-an-int"),         # unusable cursor
        make_envelope(cursor=-3),
    ], ids=["version", "kind", "fingerprint", "cursor-type", "cursor-neg"])
    def test_invalid_envelope_rejected_and_stores_nothing(self, envelope):
        state, units, clock = make_pipeline_state()
        admit(state, "w1", "w2")
        lease = state.lease("w1")
        with pytest.raises(ProtocolError):
            state.checkpoint("w1", lease["unit"], lease["key"],
                             lease["lease"], envelope)
        assert state.counters["checkpoint_rejects"] == 1
        assert state._units[0].checkpoint is None
        # the successor gets a plain grant: falls back to unit start
        clock.advance(11.0)
        assert "checkpoint" not in state.lease("w2")

    def test_checkpoint_for_non_pipeline_unit_rejected(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1")
        lease = state.lease("w1")
        with pytest.raises(ProtocolError):
            state.checkpoint("w1", lease["unit"], lease["key"],
                             lease["lease"], make_envelope())

    def test_checkpoint_after_commit_is_stale(self):
        state, units, clock = make_pipeline_state()
        admit(state, "w1")
        lease = state.lease("w1")
        rows = [[{"scheme": "np"}]]
        state.commit("w1", lease["unit"], lease["key"], lease["lease"], rows)
        reply = state.checkpoint("w1", lease["unit"], lease["key"],
                                 lease["lease"], make_envelope())
        assert reply["event"] == "stale"

    def test_commit_clears_migrated_envelope(self):
        state, units, clock = make_pipeline_state()
        admit(state, "w1")
        lease = state.lease("w1")
        state.checkpoint("w1", lease["unit"], lease["key"], lease["lease"],
                         make_envelope())
        state.commit("w1", lease["unit"], lease["key"], lease["lease"],
                     [[{"scheme": "np"}]])
        assert state._units[0].checkpoint is None


class TestDeregister:
    def test_deregister_releases_leases_for_immediate_redispatch(self):
        state, units, clock = make_state(n_units=1)
        admit(state, "w1", "w2")
        lease = state.lease("w1")
        reply = state.deregister("w1")
        assert reply["released"] == 1
        # no clock advance needed: the unit is grantable right now
        regrant = state.lease("w2")
        assert regrant["event"] == "lease"
        assert regrant["unit"] == lease["unit"]
        assert state.counters["leases_released"] == 1
        assert state.counters["workers_deregistered"] == 1

    def test_deregister_drops_live_count_immediately(self):
        state, units, clock = make_state()
        admit(state, "w1")
        state.lease("w1")
        assert state.live_remote_workers() == 1
        state.deregister("w1")
        assert state.live_remote_workers() == 0


class TestCacheServedUnits:
    def test_whole_unit_hit_served_without_dispatch(self):
        hits = {0: [[{"cached": True}], [{"cached": True}]]}
        state, units, clock = make_state(
            n_units=2, unit_jobs=2, cache_lookup=hits.get)
        admit(state, "w1")
        lease = state.lease("w1")
        # unit 0 was answered from the cache; only unit 1 is leased
        assert lease["event"] == "lease"
        assert lease["unit"] == 1
        assert state.counters["cache_served_units"] == 1
        state.commit("w1", lease["unit"], lease["key"], lease["lease"],
                     make_rows(units[1]))
        assert state.done
        assert state.results()[0] == hits[0]

    def test_probe_happens_once_per_unit(self):
        calls = []

        def lookup(index):
            calls.append(index)
            return None

        state, units, clock = make_state(n_units=2, cache_lookup=lookup)
        admit(state, "w1", "w2")
        state.lease("w1")
        state.lease("w2")
        assert sorted(calls) == [0, 1]  # not re-probed on the second lease

    def test_commit_skipped_for_cache_served_units(self):
        committed = []
        state, units, clock = make_state(
            n_units=1, unit_jobs=2,
            cache_lookup=lambda i: [[{"c": 1}], [{"c": 2}]],
            on_commit=lambda *args: committed.append(args))
        admit(state, "w1")
        assert state.lease("w1")["event"] == "done"
        assert committed == []  # rows came *from* the cache; no rewrite


class TestFailureAndObservation:
    def test_deterministic_failure_fails_fast(self):
        state, units, clock = make_state(n_units=2)
        admit(state, "w1", "w2")
        lease = state.lease("w1")
        state.fail("w1", lease["unit"], lease["key"],
                   {"executor": "e", "params": "{}", "cause": "boom"})
        assert state.done
        assert state.failure["cause"] == "boom"
        # everyone is told to disperse
        assert state.lease("w2")["event"] == "done"
        assert state.counters["unit_failures"] == 1

    def test_live_workers_excludes_local_and_stale(self):
        state, units, clock = make_state()
        admit(state, "remote")
        state.lease("remote")
        state.lease(LOCAL_WORKER)
        assert state.live_remote_workers() == 1
        clock.advance(100.0)  # > 2 lease terms
        assert state.live_remote_workers() == 0

    def test_snapshot_shape(self):
        state, units, clock = make_state(n_units=2)
        admit(state, "w1")
        lease = state.lease("w1")
        state.commit("w1", lease["unit"], lease["key"], lease["lease"],
                     make_rows(units[lease["unit"]]))
        snap = state.snapshot()
        assert snap["units_total"] == 2
        assert snap["units_remaining"] == 1
        assert snap["live_workers"] == 1
        assert snap["epoch"] == 0
        assert snap["unit_seconds"]["count"] == 1
        assert snap["counters"]["units_completed"] == 1

    def test_snapshot_per_worker_health(self):
        """Operators can tell a partitioned worker (stale heartbeat,
        leases still held) from an idle one (fresh heartbeat, none)."""
        state, units, clock = make_state(n_units=2)
        admit(state, "holding", "idle")
        holding = state.lease("holding")
        assert holding["event"] == "lease"
        clock.advance(8.0)  # silent since its grant, lease still live
        state.lease(LOCAL_WORKER)
        state.heartbeat("idle", [])
        workers = {w["worker"]: w for w in state.snapshot()["workers"]}
        assert workers["holding"]["held_leases"] == 1
        assert workers["holding"]["last_seen_age_seconds"] == pytest.approx(8.0)
        assert workers["idle"]["held_leases"] == 0
        assert workers["idle"]["last_seen_age_seconds"] == pytest.approx(0.0)
        assert LOCAL_WORKER in workers  # the fallback is visible too

    def test_snapshot_surfaces_heartbeat_failures(self):
        """A worker self-reports its heartbeat-thread error count; the
        coordinator pins it to the worker row so a flaky link is visible
        from this side too."""
        state, units, clock = make_state()
        admit(state, "flaky", "healthy")
        state.heartbeat("flaky", [], failures=3)
        state.heartbeat("healthy", [])
        workers = {w["worker"]: w for w in state.snapshot()["workers"]}
        assert workers["flaky"]["heartbeat_failures"] == 3
        assert workers["healthy"]["heartbeat_failures"] == 0

    def test_awaiting_done_counts_recent_workers_not_yet_told(self):
        """A worker learns that the run is over only from a lease reply:
        ``awaiting_done`` counts the remote workers seen within the last
        lease term that no reply has answered ``done`` yet."""
        state, units, clock = make_state(n_units=1)
        admit(state, "holder", "napper", "leaver", "silent")
        lease = state.lease("holder")
        assert state.lease("napper")["event"] == "wait"
        clock.advance(6.0)
        assert state.lease("napper")["event"] == "wait"
        state.deregister("leaver")
        clock.advance(5.0)  # "silent" was last seen 11 s ago
        state.commit("holder", lease["unit"], lease["key"], lease["lease"],
                     make_rows(units[0]))
        assert state.done
        assert state.awaiting_done() == 2  # holder and napper
        assert state.lease("holder")["event"] == "done"
        assert state.lease(LOCAL_WORKER)["event"] == "done"
        assert state.awaiting_done() == 1
        clock.advance(4.0)  # napper seen 9 s ago: still within the term
        assert state.awaiting_done() == 1
        assert state.lease("napper")["event"] == "done"
        assert state.awaiting_done() == 0
        # a worker registering after the end counts until it is told
        late = state.register("late")["worker"]
        assert state.awaiting_done() == 1
        assert state.lease(late)["event"] == "done"
        assert state.awaiting_done() == 0

    def test_results_raise_until_complete(self):
        state, units, clock = make_state(n_units=1)
        with pytest.raises(RuntimeError):
            state.results()
