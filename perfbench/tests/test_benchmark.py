"""Self-tests of the benchmark: deterministic counts, layer coverage, contract.

Run from the checkout root:

    python3 -m pytest -q perfbench/tests

Each test runs small inputs, so the suite takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inprocess  # noqa: E402
import loopback_burst  # noqa: E402
import run  # noqa: E402
import sim_faults  # noqa: E402
from layers import PER_LAYER, span_times  # noqa: E402
from rounds import run_rounds  # noqa: E402
from tracing import ENCODE_FRAME, SELF_METRICS, Tracer, merge  # noqa: E402

#: Small inputs, ``seed -> (build, drive)``: a 32-set burst; 16 clients
#: with 4 requests each.
SMALL = {
    loopback_burst.NAME: lambda seed: loopback_burst.inputs(seed, size=32),
    sim_faults.NAME: lambda seed: sim_faults.inputs(seed, requests_per_client=4),
}


def one_round(workload: str, seed: int, tracer: Tracer | None = None):
    (first,) = run_rounds(lambda _index: SMALL[workload](seed), 1e-9, True, tracer)
    return first


def traced_round(workload: str, seed: int):
    """One traced round of the small input; returns (round, module, window)."""
    tracer = Tracer()
    tracer.install()
    try:
        first = one_round(workload, seed, tracer)
    finally:
        tracer.uninstall()
    return first, inprocess.MODULES[workload], first.trace


def work_counts(workload: str, seed: int) -> dict:
    """Every count of one traced round that must repeat exactly."""
    first, module, window = traced_round(workload, seed)
    return {
        "calls": window["calls"],
        "wire_bytes": window["wire_bytes"],
        "cert_entries": window["cert_entries"],
        "canonical_unique": window["canonical_unique"],
        "layers": module.layer_counts(first.counts),
        "digest": first.digest,
        "checks": first.checks,
    }


def _counts_in_subprocess(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, __file__, workload, str(seed)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout)


def test_counts_repeat_across_runs_with_one_seed():
    for workload in SMALL:
        first = _counts_in_subprocess(workload, 5, "1")
        second = _counts_in_subprocess(workload, 5, "2")
        assert all(first["checks"].values()), first["checks"]
        assert first == second, workload


def test_tracing_changes_no_work():
    for workload in SMALL:
        plain = one_round(workload, 3)
        traced, _module, _window = traced_round(workload, 3)
        assert plain.counts == traced.counts, workload
        assert plain.digest == traced.digest, workload


def test_sim_faults_gates_hold_where_the_world_never_goes_quiescent():
    # Input seed 95 (run seed 11) ends with replica 2 re-requesting
    # state forever (NOTES.md, "Known program defect"); the outputs are
    # still right, so the round must pass.
    build, drive = sim_faults.inputs(95)
    (first,) = run_rounds(lambda _index: (build, drive), 1e-9, False)
    assert all(first.checks.values()), first.checks
    assert first.failed == 0


def test_sim_faults_makes_no_wire_calls():
    _round, _module, window = traced_round(sim_faults.NAME, 2)
    wire = {name: n for name, n in window["calls"].items() if ".net.wire." in name}
    assert wire == {}
    assert window["wire_bytes"] == 0


def test_loopback_burst_runs_the_wire_codec():
    _round, _module, window = traced_round(loopback_burst.NAME, 2)
    assert window["calls"][ENCODE_FRAME] > 0


def test_self_times_and_other_add_up_to_wall_time():
    for workload in SMALL:
        first, _module, window = traced_round(workload, 4)
        layers = span_times(merge([window]), first.commits)
        total = sum(layers[name] for name in SELF_METRICS)
        assert abs(total - layers["trace.wall_ms"]) <= 1e-6 * layers["trace.wall_ms"]
        assert layers["other.self_ms"] >= 0


def test_per_layer_reports_every_metric_once():
    names = [name for name, _unit, _better in PER_LAYER]
    assert len(names) == len(set(names))
    assert set(SELF_METRICS) <= set(names)
    first, module, _window = traced_round(loopback_burst.NAME, 1)
    assert set(inprocess.per_layer([first], module)) == set(names)


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tcp_mixed_traced_run_reaches_the_replica_processes():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tcp-mixed",
         "--seed", "3", "--seconds", "4", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    # Consensus runs only inside the replicas: its spans came from the hook.
    assert metrics["consensus.engine_self_ms"] > 0
    assert metrics["net.wire.frames"] > 0
    assert metrics["sim.events"] == 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loopback-burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


if __name__ == "__main__":
    print(json.dumps(work_counts(sys.argv[1], int(sys.argv[2])), sort_keys=True))
