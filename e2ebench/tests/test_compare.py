"""Compare verdicts and exit codes."""

from __future__ import annotations

import pytest

from e2ebench.compare import compare_payloads, new_payload, quartiles, verdict
from e2ebench.spec import load_spec
from repro.bench.compare import EXIT_OK, EXIT_REGRESSION, EXIT_SCHEMA_MISMATCH
from repro.bench.suite import load_payload, save_payload

SPEC = load_spec()


def _payload(scale=1.0, sets=3, correct=True, jitter=0.0):
    payload = new_payload(20)
    for name in SPEC.workload_names:
        payload["workloads"][name] = [
            {"correct": correct, "attempted": 10, "failed": 0,
             "metrics": {m.name: scale * (1.0 + jitter * (i - 1)) for m in SPEC.end_to_end}}
            for i in range(sets)
        ]
    return payload


def test_quartiles_follow_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


@pytest.mark.parametrize("baseline, candidate, better, expected", [
    ([10.0, 10.1, 9.9], [10.05, 10.0, 10.1], "lower", "ok"),
    ([10.0, 10.1, 9.9], [11.5, 11.6, 11.4], "lower", "regressed"),
    ([10.0, 10.1, 9.9], [8.0, 12.0, 10.2], "lower", "unresolved"),
    # Wide spread, but every candidate run beats every baseline run.
    ([10.0, 14.0, 12.0], [7.0, 9.5, 8.0], "lower", "ok"),
    ([10.0, 10.1, 9.9], [8.5, 8.6, 8.4], "higher", "regressed"),
    ([10.0, 10.1, 9.9], [11.5, 11.6, 11.4], "higher", "ok"),
])
def test_verdicts(baseline, candidate, better, expected):
    assert verdict(baseline, candidate, better, 0.1)[0] == expected


def test_change_and_spread_are_shares_of_the_median():
    outcome, change, spread = verdict([10.0, 10.0, 10.0], [12.0, 12.0, 12.0], "lower", 0.1)
    assert (outcome, change, spread) == ("regressed", pytest.approx(0.2), 0.0)


def test_identical_payloads_compare_ok(tmp_path):
    path = tmp_path / "a.json"
    save_payload(_payload(jitter=0.01), str(path))
    report = compare_payloads(load_payload(str(path)), _payload(jitter=0.01), SPEC)
    assert report.exit_code == EXIT_OK
    assert len(report.rows) == len(SPEC.workload_names) * len(SPEC.end_to_end)
    assert "OK" in report.render()


def test_slower_candidate_regresses():
    report = compare_payloads(_payload(), _payload(scale=1.3), SPEC)
    assert report.exit_code == EXIT_REGRESSION
    assert {row.verdict for row in report.rows} == {"regressed"}


def test_noisy_candidate_is_unresolved_not_ok():
    report = compare_payloads(_payload(), _payload(jitter=0.3), SPEC)
    assert report.exit_code == EXIT_REGRESSION
    assert {row.verdict for row in report.rows} == {"unresolved"}


def test_incorrect_candidate_fails():
    report = compare_payloads(_payload(), _payload(correct=False), SPEC)
    assert report.exit_code == EXIT_REGRESSION
    assert any("incorrect" in error for error in report.errors)


@pytest.mark.parametrize("candidate", [
    _payload(sets=2),
    {**_payload(), "schema_version": 99},
    {**_payload(), "seconds": 5},
])
def test_incomparable_payloads(candidate):
    assert compare_payloads(_payload(), candidate, SPEC).exit_code == EXIT_SCHEMA_MISMATCH


def test_payload_has_no_clock():
    assert set(new_payload(20)["environment"]) == {
        "python", "implementation", "machine", "system", "numpy"
    }
