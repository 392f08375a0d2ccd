"""Run one workload of the repository benchmark, or all of them.

    python3 perfbench/run.py --workload loopback-burst --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout: it imports ``repro`` from ``src``.
With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` it measures an untraced half and a traced
half and reports the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record (provenance,
correctness gates, sample counts, tails and work counts). The exit code
is 0 only if every correctness gate held. ``--workload all`` prints
every metric of every workload by name with its unit instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("loopback-burst", "sim-faults", "tcp-mixed")
END_TO_END = {
    "setup_s": "s",
    "commit_rate": "commits/s",
    "cpu_ms_per_commit": "ms",
    "peak_rss_mb": "MB",
    "set_p50_ms": "ms",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Any:
    """Run one workload; returns its :class:`common.Outcome`."""
    if workload == "tcp-mixed":
        import tcp_mixed

        return tcp_mixed.measure(seed, seconds, traced)
    import inprocess

    return inprocess.measure(workload, seed, seconds, traced)


def result_line(outcome: Any, traced: bool) -> dict[str, Any]:
    from layers import UNITS

    units = UNITS if traced else END_TO_END
    values = outcome.per_layer if traced else outcome.end_to_end
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from common import provenance

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "checks": outcome.checks,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "detail": outcome.detail,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(outcome, bool(args.trace))))
    if not outcome.correct:
        failed = sorted(name for name, ok in outcome.checks.items() if not ok)
        print(f"error: correctness gates failed: {failed}", file=sys.stderr)
        return 1
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced; a table of every metric with its unit."""
    from common import provenance
    from layers import UNITS

    print(json.dumps({"provenance": provenance()}, sort_keys=True))
    status = 0
    for workload in WORKLOADS:
        outcome = measure(workload, seed, seconds, traced=False)
        print(f"\n{workload}: correct={outcome.correct} "
              f"attempted={outcome.attempted} failed={outcome.failed}")
        for name, unit in END_TO_END.items():
            print(f"  {name:<24} {outcome.end_to_end[name]:>14.4f} {unit}")
        print(f"  {'failed_ratio':<24} {outcome.detail['failed_ratio']:>14.4f} ratio")
        for name, value in sorted(outcome.detail.get("extra", {}).items()):
            print(f"  {name:<24} {value:>14.4f} {UNITS[name]}")
        if not outcome.correct:
            failed = sorted(name for name, ok in outcome.checks.items() if not ok)
            print(f"  correctness gates failed: {failed}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
