"""Start-up hook that traces a replica process of the ``tcp-mixed`` workload.

Python imports ``sitecustomize`` from its import path at start-up. The
traced ``tcp-mixed`` run puts this directory on the ``PYTHONPATH`` its
replica subprocesses inherit and names an output directory in
``PERFBENCH_TRACE_DIR``; without that variable the hook does nothing.
With it, the replica installs the benchmark's span wrappers before it
runs, marks the measured window on ``SIGUSR1`` (begin) and ``SIGUSR2``
(end), and writes the window and its spans when it exits.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import atexit
    import importlib.util
    import json
    import signal
    import sys
    from pathlib import Path

    def _load_tracing():
        path = Path(__file__).resolve().parents[1] / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return module

    def _install(out_dir: Path) -> None:
        tracing = _load_tracing()
        tracer = tracing.Tracer(max_spans=20_000)
        tracer.install()
        from repro.net.node import NetNode

        nodes = []
        init = NetNode.__init__

        def remembering_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            nodes.append(self)

        NetNode.__init__ = remembering_init
        marks = {}

        def mark(label: str) -> None:
            if label == "begin":
                tracer.reset_unique()
            marks[label] = {
                "tracer": tracer.snapshot(),
                "registry": [node.metrics.totals_by_module() for node in nodes],
            }

        def dump() -> None:
            tag = f"replica-{nodes[0].pid if nodes else 'x'}-{os.getpid()}"
            tracer.dump(out_dir / f"{tag}-spans.jsonl", {"os_pid": os.getpid()})
            with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as out:
                json.dump(marks, out)

        signal.signal(signal.SIGUSR1, lambda _signum, _frame: mark("begin"))
        signal.signal(signal.SIGUSR2, lambda _signum, _frame: mark("end"))
        atexit.register(dump)

    _install(Path(os.environ["PERFBENCH_TRACE_DIR"]))
