#!/usr/bin/env python3
"""Pinned work counts for a small input set of every workload.

    python3 perfbench/selftest.py

Runs each workload on a tenth of its inputs (seed 1), traced, twice, and
checks that the two runs agree on every count.  It then compares the
counts with the values pinned in ``pinned_counts.json``.  A change in
work (hom calls, search results, colimits) is printed as a diff, so that
it shows as a count rather than as timing noise.  A change in what is
certified (squares, checked, fillers, output cells) fails the test: a
speedup never comes from checking less.  Exit code 0 when the counts
repeat, no certified count moved, no pinned call count went to or from
zero and every per-layer metric in ``BENCHMARK.json`` was produced by
some workload; 1 otherwise.  ``--write`` stores the
counts just observed as the new pins.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEED = 1
SCALE = 0.1
CERTIFIED = ("squares", "checked", "fillers", "cubes", "out_cells", "failed")
PINNED_FILE = Path(__file__).resolve().parent / "pinned_counts.json"
# Per-layer metrics that no workload reaches at this commit; see README.md.
NEVER_CALLED = ("cells.find_isomorphism.calls", "cells.find_isomorphism.self_s")


def traced_pass(wl, m, items) -> tuple[dict, set]:
    """Counts of one traced pass, and the names of every metric it made."""
    tracer = run.tracing.Tracer()
    tracer.install()
    try:
        result = run.run_pass(wl, m, items, tracer)
    finally:
        tracer.uninstall()
    for failure in result["failures"]:
        print(f"{wl.name}: input failed its check: {json.dumps(failure)}")
    counts = {k: int(v) for k, v in sorted(tracer.counts().items())}
    counts["failed"] = len(result["failures"])
    counts["out_cells"] = result["out_cells"]
    counts["squares"] = result["squares"]
    return counts, set(tracer.metrics())


def main() -> int:
    pinned = json.loads(PINNED_FILE.read_text()) if PINNED_FILE.exists() else {}
    # The two trace.* metrics are computed by run.traced, not by a layer.
    produced = {"trace.wall_s", "trace.overhead_s"}
    ok = True
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        observed = {}
        for name, wl in run.workloads.WORKLOADS.items():
            m, items = run.set_up(wl, SEED, scratch / name, SCALE)
            first, names = traced_pass(wl, m, items)
            second, _names = traced_pass(wl, m, items)
            if first != second:
                differ = sorted(k for k in first.keys() | second.keys()
                                if first.get(k) != second.get(k))
                print(f"{name}: two traced runs disagree on {differ}")
                ok = False
            observed[name] = first
            produced |= names
            for key in sorted(first.keys() | pinned.get(name, {}).keys()):
                want, got = pinned.get(name, {}).get(key), first.get(key)
                if want == got:
                    continue
                certified = key.rsplit(".", 1)[-1] in CERTIFIED
                # A layer that stops being called (or starts) usually means
                # a wrapper no longer reaches it, not a change in work.
                vanished = key.endswith(".calls") and not (want and got)
                print(f"{name}: {key} pinned {want} now {got}"
                      + ("  <- certified count moved" if certified else "")
                      + ("  <- layer reached by no call, or newly reached" if vanished else ""))
                ok = ok and not certified and not vanished
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    missing = [m["name"] for m in run.load_spec()["per_layer"]
               if m["name"] not in produced and m["name"] not in NEVER_CALLED]
    if missing:
        print(f"per-layer metrics no layer produces: {missing}")
        ok = False
    if "--write" in sys.argv:
        PINNED_FILE.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
        print(f"pinned counts written to {PINNED_FILE.name}")
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
