"""Measure ``loopback-burst`` or ``sim-faults``: untraced, then traced rounds."""

from __future__ import annotations

from typing import Any

import loopback_burst
import sim_faults
from common import OUT, Outcome, provenance
from layers import PER_LAYER, span_counts, span_times
from rounds import Round, commit_rate, factor, input_seed, run_rounds, summarize
from tracing import Tracer, merge

#: Per-layer figures that are end-to-end in kind; a run reports the ones
#: its workload has in ``detail.extra``, traced or not.
EXTRA = ("wire_bytes_per_commit", "client_p99_vs", "catchup_vs")


MODULES = {module.NAME: module for module in (loopback_burst, sim_faults)}


def measure(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    module = MODULES[name]

    def make(index: int):
        return module.inputs(input_seed(seed, index))

    if not traced:
        return _finish(summarize(run_rounds(make, seconds, module.SCALE_EACH_ROUND)), module)
    plain = run_rounds(make, seconds / 2, module.SCALE_EACH_ROUND)
    outcome = _finish(summarize(plain), module)
    tracer = Tracer()
    tracer.install()
    try:
        traced_rounds = run_rounds(make, seconds / 2, module.SCALE_EACH_ROUND, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"spans-{name}.jsonl", {"workload": name, "seed": seed, **provenance()})
    outcome.checks.update(
        {f"traced_{key}": ok for key, ok in summarize(traced_rounds).checks.items()}
    )
    outcome.checks["tracing_changes_no_work"] = traced_rounds[0].counts == plain[0].counts
    outcome.per_layer = per_layer(traced_rounds, module)
    outcome.per_layer.update(outcome.detail["extra"])
    outcome.per_layer["trace.overhead_ratio"] = 1 - commit_rate(traced_rounds) / commit_rate(plain)
    outcome.per_layer["failed_ratio"] = outcome.detail["failed_ratio"]
    return outcome


def per_layer(rounds: list[Round], module: Any) -> dict[str, float]:
    """Every per-layer metric of a set of traced rounds (0 where unused)."""
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    window = merge([r.trace for r in rounds])
    values.update(span_times(window, sum(r.commits for r in rounds), factor(rounds)))
    # Counts come from the first round alone: it drives the same input in
    # every run with this seed, however many rounds fit in the time.
    values.update(span_counts(rounds[0].trace, rounds[0].commits))
    values.update(module.layer_counts(rounds[0].counts))
    return values


def _finish(outcome: Outcome, module: Any) -> Outcome:
    raw = outcome.detail.pop("counts")
    counts = module.layer_counts(raw)
    outcome.detail["work_counts"] = counts
    if "quiescent" in raw:
        # Whether the first round's world went quiescent (sim-faults).
        outcome.detail["quiescent"] = raw["quiescent"]
    outcome.detail["extra"].update({name: counts[name] for name in EXTRA if name in counts})
    return outcome
