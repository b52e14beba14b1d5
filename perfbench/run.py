#!/usr/bin/env python3
"""Closed-loop benchmark of cofib's certification and compile paths.

One caller, one thread: the next input is sent only after the previous
verdict returns.  Usage, from the repository root:

    python3 perfbench/run.py --workload pcs-verify --seed 1 --seconds 30 --trace 0

The run sets the package up (import, inputs from the seed, warm caches),
then processes the whole input set in passes until ``--seconds`` have gone
by, checking every output against an answer that does not come from the
code under test.  Inputs are timed in CPU time, scaled to a reference
speed by a kernel timed between inputs (``calibration.py``).  Further cold
set-ups run in fresh processes spread over the run.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json``: the end-to-end ones untraced
(``--trace 0``), the per-layer ones from a traced pass (``--trace 1``).
A traced run also writes its per-input rows and spans under
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The seed used while the benchmark was written, and one held out from it:
# a performance claim has to hold on both.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9241

ITEM_CAP_S = 60.0
SETUPS = 7
MODULES = ("words", "cells", "pcs", "lifting", "blowup", "automata", "regex", "cli")

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from calibration import Calibration, clock  # noqa: E402
import workloads  # noqa: E402


class Capped(Exception):
    """An input ran past the per-input cap."""


@contextmanager
def cap(seconds: float):
    def expire(_signum, _frame):
        raise Capped(f"over {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_modules() -> SimpleNamespace:
    """Import ``cofib`` from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("cofib")
    if Path(package.__file__).resolve().parent != SRC / "cofib":
        raise ImportError(f"cofib imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{n: importlib.import_module(f"cofib.{n}") for n in MODULES})


def set_up(wl, seed: int, workdir: Path, scale: float = 1.0):
    """Import, build the inputs from the seed, warm the brick caches.
    ``scale`` shrinks the input set, for the self-test only."""
    m = load_modules()
    items = wl.make_items(random.Random(f"{wl.name}:{seed}"), m, scale)
    if hasattr(wl, "prepare"):
        workdir.mkdir()
        wl.prepare(items, m, str(workdir))
    for n in getattr(wl, "dims", ()):
        m.blowup.brick_generators(n)
    return m, items


def set_up_cold(wl, seed: int, workdir: Path) -> float:
    """One set-up in a fresh process: the CPU time that process spends
    from its start until its first input could be timed."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", wl.name, "--seed", str(seed),
         "--set-up-only", str(workdir)],
        capture_output=True, text=True, timeout=ITEM_CAP_S, check=True)
    return float(child.stdout.split()[-1])


def run_pass(wl, m, items, tracer=None, between=None) -> dict:
    """Every input once, back to back; checks run between inputs, untimed,
    and so does ``between()`` if given.  Each input's CPU time is recorded
    with the wall time it started at."""
    objs = [wl.materialize(item, m) for item in items]
    times, started, failures, out_cells, squares, rows = [], [], [], 0, 0, []
    for k, (item, obj) in enumerate(zip(items, objs)):
        if between is not None:
            between()
        before = {}
        if tracer is not None:
            before = tracer.counts()
            tracer.input_id, tracer.active = k, True
        try:
            with cap(ITEM_CAP_S):
                started.append(time.perf_counter())
                start = clock()
                try:
                    out = wl.run(obj, m)
                finally:
                    elapsed = clock() - start
        except Capped as exc:
            out, problem = None, f"capped: {exc}"
        except Exception as exc:  # a failing input is recorded, the run goes on
            out, problem = None, f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = False
        times.append(elapsed)
        if out is not None:
            try:
                cells, sq, problem = wl.check(item, out, m)
            except Exception as exc:
                cells, sq, problem = 0, 0, f"check raised {type(exc).__name__}: {exc}"
            out_cells += cells
            squares += sq
        if problem is not None:
            failures.append({"input": k, "family": item.family, "params": item.params,
                             "problem": problem})
        if tracer is not None:
            after = tracer.counts()
            counts = {key: after[key] - before.get(key, 0) for key in after
                      if after[key] != before.get(key, 0)}
            rows.append({"input": k, "family": item.family, "params": item.params,
                         "cells": item.cells, "traced_ms": round(elapsed * 1e3, 3),
                         "counts": counts})
        del out  # so the next input's peak memory does not include this output
    return {"wall_s": sum(times), "times": times, "started": started, "failures": failures,
            "out_cells": out_cells, "squares": squares, "rows": rows}


def passes_for(wl, m, items, seconds: float, between=None) -> list[dict]:
    """Whole passes within ``seconds``, at least one: a pass starts only if
    one more like the last still fits."""
    done = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not done or time.perf_counter() + last < deadline:
        began = time.perf_counter()
        done.append(run_pass(wl, m, items, between=between))
        last = time.perf_counter() - began
    return done


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; a performance claim "
                             f"must also hold on the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-only", metavar="DIR", type=Path,
                        help="set up in DIR, print the CPU time spent since this "
                             "process started, and exit (used by the timed runs)")
    args = parser.parse_args(argv)

    if not (SRC / "cofib" / "__init__.py").is_file():
        print(f"error: no cofib sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.set_up_only:
        set_up(wl, args.seed, args.set_up_only)
        print(clock())
        return 0
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        # This process's own set-up is cold too, and is the first sample.
        m, items = set_up(wl, args.seed, scratch / "setup0")
        setup_cpu = clock()
        if args.trace:
            result = traced(wl, m, items, args, spec)
        else:
            result = untraced(wl, m, items, args, spec, scratch, setup_cpu)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def summarize(passes: list[dict], items) -> tuple[bool, int, int]:
    """Correct when no input failed and every pass produced the same
    output sizes and square counts."""
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for f in p["failures"]:
            print(f"FAILED {json.dumps(f)}")
    steady = len({(p["out_cells"], p["squares"]) for p in passes}) == 1
    if not steady:
        print("FAILED output sizes or square counts differ between passes")
    return failed == 0 and steady, len(items) * len(passes), failed


def per_input_times(passes: list[dict], calib: Calibration | None = None) -> list[float]:
    """Each input's median time over the passes, each time first scaled to
    reference speed when ``calib`` is given."""
    if calib is None:
        return [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]
    scaled = [[t * calib.scale(at) for t, at in zip(p["times"], p["started"])] for p in passes]
    return [statistics.median(ts) for ts in zip(*scaled)]


def untraced(wl, m, items, args, spec, scratch: Path, setup_cpu: float) -> dict:
    calib = Calibration()
    # Cold set-ups, as (CPU seconds, wall time they ran around): this
    # process's own, then fresh processes spread over the run, so that
    # their median does not hang on one busy moment.
    setups = [(setup_cpu, time.perf_counter())]
    spacing = args.seconds / SETUPS
    due = time.perf_counter() + spacing / 2

    def between():
        nonlocal due
        calib.tick()
        if len(setups) < SETUPS and time.perf_counter() >= due:
            began = time.perf_counter()
            cpu = set_up_cold(wl, args.seed, scratch / f"setup{len(setups)}")
            setups.append((cpu, (began + time.perf_counter()) / 2))
            due += spacing

    passes = passes_for(wl, m, items, args.seconds, between)
    correct, attempted, failed = summarize(passes, items)
    per_input = per_input_times(passes, calib)
    values = {
        "setup_s": statistics.median(cpu * calib.scale(at) for cpu, at in setups),
        "wall_s": sum(per_input),
        "item_p50_ms": statistics.median(per_input) * 1e3,
        "item_p90_ms": statistics.quantiles(per_input, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "out_cells": passes[0]["out_cells"],
    }
    print(f"{wl.name} seed={args.seed}: {len(setups)} set-ups, {len(items)} inputs x "
          f"{len(passes)} passes; p50/p90 over {len(per_input)} per-input medians; "
          f"{len(calib.cpu)} kernel samples, median {statistics.median(calib.cpu) * 1e3:.3f} ms; "
          f"squares={passes[0]['squares']}, failed={failed}")
    metrics = {}
    for metric in spec["end_to_end"]:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<14} {value:>14.6f} {metric['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# Layers grouped by the premise each workload was chosen for.  Hom searches
# are split by who asked: the part under lifting spans counts as lifting,
# the part under euclidean_check as charts.
SHARE_GROUPS = {
    "lifting with its homs": ("lifting.unique_rlp", "lifting.rlp", "lifting.lifting_problems",
                              "lifting.solve_lifts", "lifting.codiagonal", "lifting.hom"),
    "charts (upward, euclidean_check with its homs)": (
        "pcs.upward", "pcs.euclidean_check", "pcs.is_local_embedding", "pcs.euclidean_check.hom"),
    "normalize and automata colimits": (
        "automata.normalize", "automata.cofibrant_replacement", "automata.coproduct",
        "automata.quotient", "automata.canonical_rename", "cells.pushout"),
    "other homs": ("pcs.hom_enumerate", "automata.hom"),
    "blowup build": ("blowup.blowup", "pcs.saturate", "pcs.validate"),
    "cli and json": ("cli.main", "pcs.from_json_dict", "pcs.to_json_dict"),
}


def self_time_shares(values: dict, wall: float) -> dict:
    """Share of the traced pass's wall time spent in each group's own code,
    largest first; what no span covers is the benchmark's own call code."""
    own = {key[: -len(".self_s")]: v for key, v in values.items() if key.endswith(".self_s")}
    split = own.get("lifting.hom", 0) + own.get("pcs.euclidean_check.hom", 0)
    total = sum(own.values()) - split
    grouped = {group: sum(own.get(layer, 0) for layer in layers)
               for group, layers in SHARE_GROUPS.items()}
    grouped["other homs"] -= split
    grouped["other layers"] = total - sum(grouped.values())
    grouped["outside any span"] = wall - total
    return {g: s / wall for g, s in sorted(grouped.items(), key=lambda kv: -kv[1])}


def traced(wl, m, items, args, spec) -> dict:
    """Untraced passes for half the time, then one traced pass: the per-layer
    numbers, and the tracing overhead as the traced pass's wall time minus
    the untraced ``wall_s``."""
    plain = passes_for(wl, m, items, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(wl, m, items, tracer)
    finally:
        tracer.uninstall()
    correct, attempted, failed = summarize(plain + [traced_pass], items)
    untraced_ms = per_input_times(plain)
    base = sum(untraced_ms)
    for row, t in zip(traced_pass["rows"], untraced_ms):
        row["ms"] = round(t * 1e3, 3)
    values = tracer.metrics()
    values["trace.wall_s"] = traced_pass["wall_s"]
    values["trace.overhead_s"] = traced_pass["wall_s"] - base

    stem = OUT / f"trace-{wl.name}-seed{args.seed}"
    n_spans = tracer.write_spans(f"{stem}-spans.csv.gz")
    metrics = {}
    for metric in spec["per_layer"]:
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
    shares = self_time_shares(values, traced_pass["wall_s"])
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "untraced_wall_s": base,
                   "spans": n_spans, "self_time_shares": shares, "metrics": metrics,
                   "rows": traced_pass["rows"]}, fh, indent=1)
    for row in traced_pass["rows"]:
        print("ROW " + json.dumps(row, sort_keys=True))
    print(f"{wl.name} seed={args.seed}: untraced wall {base:.3f}s, traced "
          f"{traced_pass['wall_s']:.3f}s, {n_spans} spans -> {stem}.json")
    print("self-time shares of the traced pass: "
          + ", ".join(f"{group} {share:.1%}" for group, share in shares.items()))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
