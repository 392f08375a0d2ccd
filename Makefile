# Convenience targets; everything assumes the stdlib-only library with
# pytest available for the test/benchmark suites.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test campaign-smoke lossy-smoke service-smoke net-smoke perf-smoke mc-smoke faults-smoke zoo-smoke shard-smoke smoke docs-check bench-check benchmarks experiments

# -W error promotes every warning to a failure; the lone ignore shields
# the suite from a deprecation raised inside third-party plugin hooks.
test:
	$(PYTHON) -W error -W "ignore:mypy_extensions.TypedDict is deprecated" -m pytest -x -q

# Fast end-to-end fault-injection sweep (~60 scenarios, fixed master
# seed); exits non-zero if any scenario fails its oracles.
campaign-smoke:
	$(PYTHON) -m repro campaign run --preset smoke --master-seed 0

# The link-fault matrices (docs/NETWORK.md): consensus over lossy and
# partitioned wires behind the reliable transport with adaptive ◇M.
lossy-smoke:
	$(PYTHON) -m repro campaign run --preset lossy --master-seed 0
	$(PYTHON) -m repro campaign run --preset partition --master-seed 0

# The replicated-service preset (docs/SERVICE.md): four seeded
# deployments judged by the service oracles, run twice — the JSON
# records must be byte-identical (the determinism guarantee).
service-smoke:
	$(PYTHON) -m repro service campaign --preset smoke --out /tmp/service-smoke-a.json
	$(PYTHON) -m repro service campaign --preset smoke --out /tmp/service-smoke-b.json
	cmp /tmp/service-smoke-a.json /tmp/service-smoke-b.json
	rm -f /tmp/service-smoke-a.json /tmp/service-smoke-b.json

# The deployed runtime (docs/NET.md): 4 replica OS processes over real
# TCP commit >=100 commands while replica 2 is SIGKILLed and restarted
# mid-run (certified state transfer over sockets); asserts digest
# convergence and exactly-once at every replica.
net-smoke:
	$(PYTHON) -m repro net cluster --replicas 4 --requests 100 --kill 2

# The performance smoke (docs/PERFORMANCE.md): a short deterministic
# saturation run plus the cached/uncached equivalence check, run twice —
# the canonical JSON records must be byte-identical (cache counters are
# deterministic functions of the seeded event order).
perf-smoke:
	$(PYTHON) -m repro perf smoke --out /tmp/perf-smoke-a.json
	$(PYTHON) -m repro perf smoke --out /tmp/perf-smoke-b.json
	cmp /tmp/perf-smoke-a.json /tmp/perf-smoke-b.json
	rm -f /tmp/perf-smoke-a.json /tmp/perf-smoke-b.json

# The model-checking smoke (docs/MODELCHECK.md): a bounded breadth-first
# sweep of the real stack run twice — the repro.mc/v1 artifacts must be
# byte-identical — plus the checker self-test: a depth-first hunt under
# the known-bad mutation must find a counterexample (exit 1).
mc-smoke:
	$(PYTHON) -m repro mc run --max-depth 3 --out /tmp/mc-smoke-a.jsonl
	$(PYTHON) -m repro mc run --max-depth 3 --out /tmp/mc-smoke-b.jsonl
	cmp /tmp/mc-smoke-a.jsonl /tmp/mc-smoke-b.jsonl
	rm -f /tmp/mc-smoke-a.jsonl /tmp/mc-smoke-b.jsonl
	! $(PYTHON) -m repro mc run --strategy dfs --adversary 0 \
		--alphabet equivocate-current --mutation accept-any-current-quorum \
		--stop-on-violation --max-depth 40 --max-rounds 3 \
		--out /tmp/mc-smoke-hunt.jsonl
	$(PYTHON) -m repro mc replay /tmp/mc-smoke-hunt.jsonl --shrink
	rm -f /tmp/mc-smoke-hunt.jsonl

# The cross-fidelity fault campaign (docs/FAULTS.md): the smoke plan
# matrix (muteness, partition-then-heal, kill/rejoin, bit-flip) run at
# the two deterministic fidelities twice — the reports must be
# byte-identical — then once across all three fidelities, subprocess
# clusters included (SIGSTOP muteness, SIGKILL + --join rejoin,
# socket-level link faults), asserting identical verdicts everywhere.
# The net fidelity sits under a hard per-plan wall-clock timeout.
faults-smoke:
	$(PYTHON) -m repro campaign faults --preset smoke --fidelity sim,loopback \
		--out /tmp/faults-smoke-a.json
	$(PYTHON) -m repro campaign faults --preset smoke --fidelity sim,loopback \
		--out /tmp/faults-smoke-b.json
	cmp /tmp/faults-smoke-a.json /tmp/faults-smoke-b.json
	rm -f /tmp/faults-smoke-a.json /tmp/faults-smoke-b.json
	$(PYTHON) -m repro campaign faults --preset smoke \
		--fidelity sim,loopback,net --timeout 120

# The adversary zoo (docs/ADVERSARIES.md): one plan per family (message
# adversary, transient state corruption, timing attack, storage
# bit-flips) at the two deterministic fidelities twice — the reports
# must be byte-identical — then the message adversary once on a real
# subprocess cluster at fidelity 3 under a hard timeout, asserting
# verdict agreement across all three.
zoo-smoke:
	$(PYTHON) -m repro campaign zoo --preset smoke --fidelity sim,loopback \
		--out /tmp/zoo-smoke-a.json
	$(PYTHON) -m repro campaign zoo --preset smoke --fidelity sim,loopback \
		--out /tmp/zoo-smoke-b.json
	cmp /tmp/zoo-smoke-a.json /tmp/zoo-smoke-b.json
	rm -f /tmp/zoo-smoke-a.json /tmp/zoo-smoke-b.json
	$(PYTHON) -m repro campaign zoo --preset net-smoke \
		--fidelity sim,loopback,net --timeout 120

# The sharded deployment (docs/SHARDING.md): the deterministic loopback
# twin run twice — the JSON records must be byte-identical — then the
# real thing: 2 shards x 4 replica OS processes over TCP absorb a
# routed workload while one replica in one shard is SIGKILLed and
# rejoined (per-shard certified state transfer); asserts per-shard
# digest convergence, exactly-once against the routed counts, and zero
# blast radius on the untouched shard.
shard-smoke:
	$(PYTHON) -m repro shard loopback --out /tmp/shard-smoke-a.json
	$(PYTHON) -m repro shard loopback --out /tmp/shard-smoke-b.json
	cmp /tmp/shard-smoke-a.json /tmp/shard-smoke-b.json
	rm -f /tmp/shard-smoke-a.json /tmp/shard-smoke-b.json
	$(PYTHON) -m repro shard cluster --shards 2 --replicas-per-shard 4 \
		--requests 40 --kill-shard 1 --kill-pid 2

# Every smoke target in one call.
smoke: campaign-smoke lossy-smoke service-smoke net-smoke perf-smoke mc-smoke faults-smoke zoo-smoke shard-smoke

# Execute every ```python snippet in README.md and docs/*.md
# (tests/test_docs_snippets.py); keeps the documented examples honest.
docs-check:
	$(PYTHON) -m pytest tests/test_docs_snippets.py -q

# The repository benchmark's self-tests (perfbench/NOTES.md): its
# workloads wrap program functions by name, so a rename in src/ that
# breaks a wrapper fails here (about 30 s).
bench-check:
	python3 -m pytest -q perfbench/tests

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

experiments:
	$(PYTHON) -m repro experiments --list
