"""The benchmark's trace sites still resolve against the package.

perfbench/run.py --trace 1 wraps module attributes by name, so removing or
renaming one of them breaks the traced run.  This test loads
perfbench/workloads.py from source (no bytecode is written next to it),
asks it to register its sites with a recording stub, and checks that every
(module, attribute) pair names a callable.
"""

from __future__ import annotations

import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


class RecordingTracer:
    def __init__(self) -> None:
        self.sites: list[tuple[object, str]] = []

    def site(self, module, attr: str, name: str, count=None) -> None:
        self.sites.append((module, attr))


def test_trace_sites_resolve():
    workloads = types.ModuleType("perfbench_workloads")
    source = WORKLOADS.read_text(encoding="utf-8")
    exec(compile(source, str(WORKLOADS), "exec"), workloads.__dict__)
    tracer = RecordingTracer()
    workloads.register_sites(tracer)
    assert len(tracer.sites) == 23
    missing = [
        f"{target.__name__}.{attr}"
        for target, attr in tracer.sites
        if not callable(getattr(target, attr, None))
    ]
    assert missing == []
