"""Tests of the benchmark's own helpers (no simulation runs here).

    python3 -m pytest perfbench -q
"""

import json

import pytest

from dse import check_sweep
from helpers import (NOMINAL_SLICE_S, PINNED_KEYS, HostSpeed, Tally,
                     at_nominal_speed, beyond, highest_supported,
                     import_program, latency_summary, percentile,
                     pinned_mismatches, scheme_invariants)


def _pipeline_rows():
    return {
        "np": {"cycles": 100, "bursts": 10, "metadata_bytes": 0,
               "vn_bytes": 0, "mac_bytes": 0, "tree_bytes": 0},
        "guardnn-c": {"cycles": 100, "bursts": 10, "metadata_bytes": 0,
                      "vn_bytes": 0, "mac_bytes": 0, "tree_bytes": 0},
        "guardnn-ci": {"cycles": 104, "bursts": 11, "metadata_bytes": 64,
                       "vn_bytes": 0, "mac_bytes": 64, "tree_bytes": 0},
        "bp": {"cycles": 140, "bursts": 15, "metadata_bytes": 320,
               "vn_bytes": 128, "mac_bytes": 128, "tree_bytes": 64},
    }


# -- percentiles -------------------------------------------------------------


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_ten_beyond_rule_picks_the_highest_supported_percentile():
    # 100 samples leave exactly 10 above p90 and 1 above p99
    assert beyond(list(range(100)), 0.9) == 10
    assert highest_supported(list(range(100))) == 0.9
    # 99 samples leave only 9 above p90, so only the median qualifies
    assert beyond(list(range(99)), 0.9) == 9
    assert highest_supported(list(range(99))) == 0.5
    # 1000 samples support p99 (10 beyond)
    assert highest_supported(list(range(1000))) == 0.99
    assert highest_supported([1.0] * 5) is None


def test_latency_summary_reports_count_and_tail_support():
    summary = latency_summary([i / 1000 for i in range(1, 201)])
    assert summary["samples"] == 200
    assert summary["p50_ms"] == pytest.approx(100.0)
    assert summary["p90_ms"] == pytest.approx(180.0)
    assert summary["beyond_p90"] == 20
    assert summary["highest_supported"] == 0.9


# -- host speed ---------------------------------------------------------------


def test_host_factor_is_the_median_slice_over_nominal():
    speed = HostSpeed()
    assert speed.sample(3) == pytest.approx(sum(speed.samples))
    speed.samples = [NOMINAL_SLICE_S * k for k in (1.0, 2.0, 1.5, 9.0, 1.2)]
    assert speed.factor == pytest.approx(1.5)


def test_at_nominal_speed_scales_times_and_rates_only():
    assert at_nominal_speed(300.0, "ms", 1.5) == pytest.approx(200.0)
    assert at_nominal_speed(3.0, "s", 1.5) == pytest.approx(2.0)
    assert at_nominal_speed(30.0, "ns", 1.5) == pytest.approx(20.0)
    assert at_nominal_speed(2.0, "1/s", 1.5) == pytest.approx(3.0)
    assert at_nominal_speed(40.0, "MB", 1.5) == 40.0


# -- error accounting ---------------------------------------------------------


def test_error_rate_counts_failures_against_attempts():
    tally = Tally()
    tally.ok()
    tally.check([])
    tally.check(["cycles moved"])
    tally.fail("HTTP 429")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == 0.5
    # a later check can turn a counted success into a failure
    tally.retract("service rows differ")
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.reasons == ["cycles moved", "HTTP 429", "service rows differ"]


def test_error_rate_with_nothing_attempted_is_total_failure():
    assert Tally().error_rate == 1.0


# -- invariant checker --------------------------------------------------------


def test_invariants_hold_on_a_consistent_row_set():
    assert scheme_invariants(_pipeline_rows()) == []


@pytest.mark.parametrize("scheme, field, value, fragment", [
    ("guardnn-c", "cycles", 101, "GuardNN-C cycles"),
    ("guardnn-ci", "vn_bytes", 64, "not MAC-only"),
    ("guardnn-ci", "cycles", 100, "np < guardnn-ci"),
    ("bp", "cycles", 104, "guardnn-ci < bp"),
    ("np", "metadata_bytes", 64, "NP moves metadata"),
    ("bp", "metadata_bytes", 64, "not below BP"),
])
def test_invariants_flag_a_deliberately_wrong_row(scheme, field, value, fragment):
    rows = _pipeline_rows()
    rows[scheme][field] = value
    problems = scheme_invariants(rows, where="case")
    assert any(fragment in problem for problem in problems), problems
    assert all(problem.startswith("case: ") for problem in problems)


def test_analytic_invariants_allow_aes_cost_but_keep_the_order():
    rows = _pipeline_rows()
    rows["guardnn-c"]["cycles"] = 102  # AES bandwidth may cost GuardNN-C
    assert scheme_invariants(rows, analytic=True) == []
    assert scheme_invariants(rows) != []
    rows["guardnn-c"]["cycles"] = 105  # but never more than GuardNN-CI
    assert scheme_invariants(rows, analytic=True) != []


def test_invariants_skip_absent_schemes_and_per_kind_bytes():
    rows = {name: {"cycles": row["cycles"], "metadata_bytes": row["metadata_bytes"]}
            for name, row in _pipeline_rows().items() if name != "guardnn-c"}
    assert scheme_invariants(rows) == []


def test_pinned_mismatch_names_the_field():
    rows = _pipeline_rows()
    expected = {name: {key: row[key] for key in PINNED_KEYS}
                for name, row in rows.items()}
    assert pinned_mismatches(rows, expected) == []
    rows["bp"]["bursts"] += 1
    assert pinned_mismatches(rows, expected) == ["bp bursts 16 != pinned 15"]
    del rows["np"]
    assert "schemes" in pinned_mismatches(rows, expected)[0]


def test_sweep_check_flags_a_golden_mismatch_and_a_broken_order():
    def row(scheme, cycles, mac=0, vn=0, tree=0):
        return {"model": "alexnet", "scheme_key": scheme, "mode": "inference",
                "batch": 1, "total_cycles": cycles, "data_read_bytes": 10,
                "data_write_bytes": 0, "metadata_read_bytes": mac + vn + tree,
                "metadata_write_bytes": 0, "vn_bytes": vn, "mac_bytes": mac,
                "tree_bytes": tree}

    rows = [row("np", 10), row("guardnn-c", 10), row("guardnn-ci", 11, mac=4),
            row("bp", 15, mac=4, vn=4, tree=4)]
    assert check_sweep(rows, None, "s") == []
    golden = {("alexnet", "np", "inference", 1): {
        "total_cycles": 9, "data_bytes": 10, "metadata_bytes": 0,
        "vn_bytes": 0, "mac_bytes": 0, "tree_bytes": 0}}
    assert check_sweep(rows, golden, "s") == [
        "s: alexnet/np/inference differs from golden_traffic.json"]
    rows[3]["total_cycles"] = 10
    assert any("guardnn-ci <= bp" in p for p in check_sweep(rows, None, "s"))


# -- seeded inputs ------------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    import_program()
    from dse import POINTS, bandwidth_points
    from serve_mixed import request_mix

    assert bandwidth_points(3) == bandwidth_points(3) != bandwidth_points(4)
    points = bandwidth_points(3)
    assert points[0] is None and len(set(points)) == POINTS + 1
    assert request_mix(3, 400) == request_mix(3, 400) != request_mix(4, 400)


def test_request_mix_composition():
    import_program()
    from serve_mixed import request_mix

    mix = request_mix(11, 800)
    identities = [json.dumps(request, sort_keys=True) for request in mix]
    repeats = len(identities) - len(set(identities))
    sweeps = sum(request["kind"] == "sweep" for request in mix)
    assert repeats == pytest.approx(0.25 * len(mix), abs=2)
    assert sweeps == len(mix) // 2
    bandwidths = [request["spec"]["configs"][0]["dram_bandwidth_gbps"]
                  for request in mix if request["kind"] == "sweep"]
    distinct_sweeps = {json.dumps(r, sort_keys=True) for r in mix if r["kind"] == "sweep"}
    assert len(set(bandwidths)) == len(distinct_sweeps)
