"""``BENCHMARK.json`` schema, and its agreement with the runner's code."""

from __future__ import annotations

import copy
import json
import re

import pytest

from e2ebench.layers import MOVES, SELF_TIME_METRIC, interaction_table, layer_metrics
from e2ebench.spec import ROOT, SPEC_PATH, SpecError, load_spec, parse_spec
from e2ebench.workloads import WORKLOADS

RAW = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_file_matches_the_schema():
    spec = load_spec()
    assert 2 <= len(spec.workloads) <= 8
    assert 1 <= len(spec.end_to_end) <= 16
    assert 1 <= len(spec.per_layer) <= 128
    names = list(spec.workload_names) + [m.name for m in spec.end_to_end + spec.per_layer]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert len(SPEC_PATH.read_bytes()) <= 64 * 1024


def test_command_and_paths_stay_inside_the_benchmark():
    assert 1 <= len(RAW["paths"]) <= 16
    for path in RAW["paths"]:
        assert PATH_RE.fullmatch(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    command = RAW["command"]
    assert len(command) <= 32 and all(len(arg) <= 200 for arg in command)
    for arg in command[1:]:
        assert any(arg == p or arg.startswith(p + "/") for p in RAW["paths"])


def test_workloads_are_defined_by_the_runner():
    assert set(load_spec().workload_names) == set(WORKLOADS)


def test_every_layer_metric_names_what_it_should_move():
    spec = load_spec()
    e2e = {metric.name for metric in spec.end_to_end}
    assert set(MOVES) == {metric.name for metric in spec.per_layer}
    for name, (moves, workloads) in MOVES.items():
        assert moves and set(moves) <= e2e, name
        assert workloads and set(workloads) <= set(spec.workload_names), name


def test_readme_carries_the_interaction_table():
    readme = (ROOT / "e2ebench" / "README.md").read_text(encoding="utf-8")
    assert interaction_table() in readme


def test_spans_give_exactly_the_declared_layer_metrics():
    spans = [{"name": name, "start": 0.0, "end": 1.0, "parent": None, "attrs": {}}
             for name in SELF_TIME_METRIC]
    assert set(layer_metrics(spans, {})) == {metric.name for metric in load_spec().per_layer}


def test_setup_has_the_largest_bound():
    spec = load_spec()
    setup = next(metric for metric in spec.end_to_end if metric.name == "setup_s")
    assert setup.bound == max(metric.bound for metric in spec.end_to_end)


@pytest.mark.parametrize("mutate, message", [
    (lambda raw: raw.update(extra=1), "top-level keys"),
    (lambda raw: raw["workloads"][0].update(name="bad name"), "bad workload name"),
    (lambda raw: raw["workloads"].__delitem__(slice(1, None)), "2 to 8 workloads"),
    (lambda raw: raw["end_to_end"][0].update(bound=0.3), "bound must be"),
    (lambda raw: raw["end_to_end"][0].update(better="equal"), "better must be"),
    (lambda raw: raw["per_layer"][0].update(unit="x" * 17), "bad unit"),
    (lambda raw: raw["per_layer"].append(dict(raw["per_layer"][0])), "more than once"),
    (lambda raw: raw.update(end_to_end=[m for m in raw["end_to_end"] if m["name"] != "setup_s"]),
     "setup_s"),
    (lambda raw: raw.update(run_seconds=61), "run_seconds"),
])
def test_malformed_declarations_are_refused(mutate, message):
    raw = copy.deepcopy(RAW)
    mutate(raw)
    with pytest.raises(SpecError, match=message):
        parse_spec(raw)


def test_report_refuses_undeclared_and_missing_metrics():
    spec = load_spec()
    values = {metric.name: 1.5 for metric in spec.end_to_end}
    report = spec.report(values, layer=False)
    assert report["reproduce_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(SpecError, match="undeclared"):
        spec.report({**values, "made_up_s": 1.0}, layer=False)
    del values["setup_s"]
    with pytest.raises(SpecError, match="missing"):
        spec.report(values, layer=False)
    with pytest.raises(SpecError, match="missing"):
        spec.report({metric.name: 1.0 for metric in spec.end_to_end}, layer=True)
