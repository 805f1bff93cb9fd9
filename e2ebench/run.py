"""Time-to-reproduce benchmark runner.

Run from the repository root::

    python3 e2ebench/run.py --workload all-cold --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py list
    python3 e2ebench/run.py sets --sets 3 -o a.json [--trace]
    python3 e2ebench/run.py compare a.json b.json

A measuring run prints one JSON line last — ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``,
or with ``--trace 1`` its per-layer metrics) — and exits 0, or 1 when an
output was wrong.  It exits 2 without a result when it cannot run at
all, e.g. outside a checkout that holds the program's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":
    # Run as a script: import this file's directory as the ``e2ebench``
    # package, not as loose top-level modules.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from e2ebench.spec import ROOT, Spec, SpecError, load_spec  # noqa: E402


def _terminate(_signum: int, _frame: object) -> None:
    raise SystemExit(143)


def measure_once(spec: Spec, workload_name: str, seconds: float,
                 trace: bool) -> Dict[str, object]:
    """One benchmark run: the result object of the output line."""
    from e2ebench.workloads import WORKLOADS, Session

    session = Session(WORKLOADS[workload_name])
    try:
        values = session.trace(seconds) if trace else session.measure(seconds)
    finally:
        session.close()
    return {
        "correct": session.tally.correct,
        "attempted": session.tally.attempted,
        "failed": session.tally.failed,
        "metrics": spec.report(values, layer=trace),
    }


def _check_setup(spec: Spec) -> Optional[str]:
    """Why this checkout cannot run the benchmark, if it cannot."""
    from e2ebench.workloads import WORKLOADS

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        return "the program's sources (src/repro) are not in this checkout"
    if set(spec.workload_names) != set(WORKLOADS):
        return (f"BENCHMARK.json declares {sorted(spec.workload_names)}, "
                f"the runner defines {sorted(WORKLOADS)}")
    return None


def cmd_measure(spec: Spec, args: argparse.Namespace) -> int:
    if args.workload is None or args.seed is None:
        print("error: --workload and --seed are required", file=sys.stderr)
        return 2
    if args.workload not in spec.workload_names:
        print(f"error: unknown workload {args.workload!r}; "
              f"declared: {', '.join(spec.workload_names)}", file=sys.stderr)
        return 2
    problem = _check_setup(spec)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from e2ebench.workloads import BenchError

    seconds = spec.run_seconds if args.seconds is None else args.seconds
    try:
        result = measure_once(spec, args.workload, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def cmd_list(spec: Spec, _args: argparse.Namespace) -> int:
    from e2ebench.layers import MOVES

    print(f"run_seconds: {spec.run_seconds}")
    print("workloads:")
    for name, why in spec.workloads:
        print(f"  {name:<10} {why}")
    print("end-to-end metrics (name, unit, better, bound):")
    for metric in spec.end_to_end:
        print(f"  {metric.name:<14} {metric.unit:<6} {metric.better:<7} {metric.bound:.0%}")
    print("per-layer metrics (name, unit, better -> end-to-end metrics it should move, on):")
    for metric in spec.per_layer:
        moves, on = MOVES[metric.name]
        print(f"  {metric.name:<24} {metric.unit:<6} {metric.better:<7}"
              f" -> {', '.join(moves)} on {', '.join(on)}")
    return 0


def cmd_sets(spec: Spec, args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from e2ebench.compare import new_payload
    from repro.bench.suite import save_payload

    problem = _check_setup(spec)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    seconds = spec.run_seconds if args.seconds is None else args.seconds
    payload = new_payload(seconds)
    all_correct = True
    for set_no in range(args.sets):
        for name in spec.workload_names:
            for trace in (False, True) if args.trace else (False,):
                result = measure_once(spec, name, seconds, trace)
                all_correct = all_correct and bool(result["correct"])
                print(json.dumps({"set": set_no, "workload": name, "trace": trace, **result},
                                 sort_keys=True), flush=True)
                section = "layers" if trace else "workloads"
                payload[section].setdefault(name, []).append({
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {key: entry["value"] for key, entry in result["metrics"].items()},
                })
    save_payload(payload, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0 if all_correct else 1


def cmd_compare(spec: Spec, args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from e2ebench.compare import compare_payloads
    from repro.bench.suite import load_payload

    report = compare_payloads(load_payload(args.baseline), load_payload(args.candidate), spec)
    print(report.render())
    return report.exit_code


def cmd_child(args: argparse.Namespace) -> int:
    from e2ebench import child

    return child.traced(args.experiments, Path(args.spans))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="declared workload to measure")
    parser.add_argument("--seed", type=int,
                        help="workload seed (both workloads are the CLI's fixed grid: "
                             "every seed gives the same inputs)")
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="print the declared workloads and metrics")
    sets = sub.add_parser("sets", help="run every workload N times and save a payload")
    sets.add_argument("--sets", type=int, default=3)
    sets.add_argument("--seconds", type=float)
    sets.add_argument("--trace", action="store_true", help="add a traced run per workload and set")
    sets.add_argument("-o", "--output", required=True)
    compare = sub.add_parser("compare", help="compare two payloads against the bounds")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    child = sub.add_parser("child", help="(internal) a traced workload process")
    child.add_argument("--spans", required=True, help="where to write the spans")
    child.add_argument("experiments", nargs="+", help="`run` experiments to trace")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "child":
        return cmd_child(args)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        spec = load_spec()
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    commands = {"list": cmd_list, "sets": cmd_sets, "compare": cmd_compare}
    return commands.get(args.command, cmd_measure)(spec, args)


if __name__ == "__main__":
    sys.exit(main())
