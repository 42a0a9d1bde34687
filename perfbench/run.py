"""Benchmark of the SCALD Timing Verifier: four workloads, layer by layer.

Run from the root of the repository::

    python3 perfbench/run.py --workload s1_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload,
                                                       # untraced and traced

Each workload is one process running a closed loop with one client (only
``case_pool`` adds its two pool workers); see ``workloads.py``.  A run
sets up several times, then runs operations until ``--seconds`` have
passed and at least the workload's minimum count is done, and checks
every output against an oracle outside the timer.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- median time from SCALD text to a ready state;
* ``op_p50_ref``, ``op_p90_ref`` -- per-operation wall latency, in
  units of a fixed piece of pure-Python work (``reference_s``) timed
  right before and right after the operation;
* ``peak_rss_mb`` -- peak resident memory of the process, plus on
  ``case_pool`` the largest private memory its pool workers held.

The latencies are reported relative to the reference work because the
speed of the machines this runs on switches between a fast and a slow
mode, 1.6 times apart, for seconds to minutes at a time, the same for
every workload.  Latencies in ms from runs a few minutes apart then
differ by more than many changes worth measuring; their ratio to the
work timed on both sides of them varies a half to a quarter as much.  The latencies in ms, as
measured, are printed above the JSON line and kept in the run record
as ``op_p50_ms`` and ``op_p90_ms``.

The names are shared by all workloads; in per-workload terms
``op_p50`` is ``cold_s`` on s1_cold, ``edit_p50_ms`` on edit_loop,
``fmax_s`` on fmax_sweep and ``case_p50_ms`` on case_pool, and
``op_p90`` is ``edit_p90_ms`` and ``case_p90_ms`` (100 or more
samples; on s1_cold and fmax_sweep it is the tail of a few).
``error_rate`` (failed / attempted) is printed with them; the JSON
carries it as ``failed`` and ``attempted``.

``--trace 1`` is a separate run that wraps every call into the program
in a span, traces two operations in every four, and reports the
per-layer metrics of ``PER_LAYER`` with the per-layer self times (and a
Table 3-1 for s1_cold).  Every per-layer metric is reported on every
workload; one outside the workload's ``CALLED`` set reads 0 there.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run
records and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402,F401  (fails here when the sources are missing)

from spans import NO_TRACE, Tracer  # noqa: E402
from workloads import WORKLOADS, Layers  # noqa: E402

OUT = ROOT / "perfbench" / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, in print order: (name, unit, what it should move).
#: A layer a workload does not call (see ``CALLED``) reads 0 there; the
#: prediction for it on that workload is no change.
PER_LAYER = (
    ("hdl.parser.parse_s", "s", "op_p50_ref on s1_cold; setup_s elsewhere"),
    ("hdl.parser.bytes_per_s", "B/s", "op_p50_ref on s1_cold; setup_s elsewhere"),
    ("hdl.expander.expand_s", "s", "op_p50_ref on s1_cold; setup_s elsewhere"),
    ("hdl.expander.pass1_s", "s", "op_p50_ref on s1_cold; setup_s elsewhere"),
    ("hdl.expander.pass2_s", "s", "op_p50_ref on s1_cold; setup_s elsewhere"),
    ("hdl.expander.macro_calls", "count", "op_p50_ref on s1_cold"),
    ("hdl.expander.primitives", "count", "op_p50_ref on s1_cold"),
    ("session.verify_s", "s", "op_p50_ref on s1_cold and fmax_sweep"),
    ("session.build_s", "s", "op_p50_ref on s1_cold and fmax_sweep"),
    ("session.run_s", "s", "op_p50_ref on s1_cold and fmax_sweep"),
    ("session.summary_s", "s", "op_p50_ref on s1_cold and fmax_sweep"),
    ("core.engine.events", "count", "op_p50_ref on s1_cold and fmax_sweep"),
    ("core.engine.evaluations", "count", "op_p50_ref on s1_cold and fmax_sweep"),
    ("core.engine.memo_hit_rate", "ratio", "op_p50_ref on s1_cold and fmax_sweep"),
    ("core.engine.intern_hit_rate", "ratio", "op_p50_ref on s1_cold and fmax_sweep"),
    ("core.engine.prepared_hit_rate", "ratio", "op_p50_ref on s1_cold and fmax_sweep"),
    ("session.edit_ms", "ms", "op_p50_ref, op_p90_ref on edit_loop and case_pool"),
    ("session.reverify_ms", "ms", "op_p50_ref, op_p90_ref on edit_loop"),
    ("core.engine.dirty_primitives", "count", "op_p50_ref, op_p90_ref on edit_loop"),
    ("core.engine.reused_waveforms", "count", "op_p50_ref, op_p90_ref on edit_loop"),
    ("core.engine.reverify_events", "count", "op_p50_ref, op_p90_ref on edit_loop"),
    ("sta.prescreen_ms", "ms", "op_p50_ref on edit_loop and case_pool"),
    ("sta.parametric.static_fmax_s", "s", "op_p50_ref on fmax_sweep"),
    ("sta.parametric.passes", "count", "op_p50_ref on fmax_sweep"),
    ("sta.parametric.static_evals", "count", "op_p50_ref on fmax_sweep"),
    ("sta.parametric.engine_runs", "count", "op_p50_ref on fmax_sweep"),
    ("sta.parametric.probe_s", "s", "op_p50_ref on fmax_sweep"),
    ("parallel.reverify_ms", "ms", "op_p50_ref, op_p90_ref on case_pool"),
    ("parallel.waveforms_shipped", "count", "op_p50_ref, op_p90_ref on case_pool"),
    ("parallel.waveform_refs", "count", "op_p50_ref, op_p90_ref on case_pool"),
    ("parallel.codec_hit_rate", "ratio", "op_p50_ref, op_p90_ref on case_pool"),
    ("parallel.edits_shipped", "count", "op_p50_ref, op_p90_ref on case_pool"),
    ("parallel.snapshots_fetched", "count", "op_p50_ref, op_p90_ref on case_pool"),
    ("parallel.pool_starts", "count", "op_p90_ref on case_pool (reforks)"),
    ("reporting.listing_s", "s", "op_p50_ref on s1_cold and edit_loop"),
    ("trace.overhead_ms", "ms", "nothing: traced minus untraced op median, noise can make it < 0"),
)

_FRONT_END = {m for m, _, _ in PER_LAYER if m.startswith("hdl.")}
_FULL_VERIFY = {
    "session.verify_s", "session.build_s", "session.run_s", "session.summary_s",
    "core.engine.events", "core.engine.evaluations", "core.engine.memo_hit_rate",
    "core.engine.intern_hit_rate", "core.engine.prepared_hit_rate",
}
_REVERIFY = {
    "session.edit_ms", "core.engine.dirty_primitives",
    "core.engine.reused_waveforms", "core.engine.reverify_events",
    "sta.prescreen_ms", "reporting.listing_s",
}
#: The per-layer metrics each workload samples: its operations' layers,
#: and the front end and full verify of its set-up.
CALLED = {
    "s1_cold": _FRONT_END | _FULL_VERIFY | {"reporting.listing_s", "trace.overhead_ms"},
    "edit_loop": _FRONT_END | _FULL_VERIFY | _REVERIFY
    | {"session.reverify_ms", "trace.overhead_ms"},
    "fmax_sweep": _FRONT_END | _FULL_VERIFY
    | {m for m, _, _ in PER_LAYER if m.startswith("sta.parametric.")}
    | {"trace.overhead_ms"},
    "case_pool": _FRONT_END | _FULL_VERIFY | _REVERIFY
    | {m for m, _, _ in PER_LAYER if m.startswith("parallel.")}
    | {"trace.overhead_ms"},
}

#: Span name -> (per-layer metric, factor from seconds).
SPAN_METRICS = {
    "hdl.parser.parse": ("hdl.parser.parse_s", 1),
    "hdl.expander.expand": ("hdl.expander.expand_s", 1),
    "session.verify": ("session.verify_s", 1),
    "session.edit": ("session.edit_ms", 1000),
    "session.reverify": ("session.reverify_ms", 1000),
    "parallel.reverify": ("parallel.reverify_ms", 1000),
    "reporting.listing": ("reporting.listing_s", 1),
    "sta.parametric.solve_static_fmax": ("sta.parametric.static_fmax_s", 1),
}

#: Table 3-1 of the thesis (minutes on the S-1 design) beside our rows.
TABLE_3_1 = (
    ("reading input (parse)", 1.92, "hdl.parser.parse_s"),
    ("Pass 1 of macro expansion", 8.42, "hdl.expander.pass1_s"),
    ("Pass 2 of macro expansion", 6.18, "hdl.expander.pass2_s"),
    ("reading input / building structures", 4.45, "session.build_s"),
    ("verifying circuit", 6.75, "session.run_s"),
    ("generating timing summary listing", 0.22, "session.summary_s"),
    ("error and cross-reference listings", 0.72, "reporting.listing_s"),
)


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def children_private_kb() -> int:
    """Private memory of this process's live children, in KiB.

    A forked pool worker shares its parent's pages until it writes to
    them; its private pages are the memory it adds, while the shared
    ones are already in the parent's peak.
    """
    me = os.getpid()
    total = 0
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry.name}/smaps_rollup") as f:
                total += sum(
                    int(line.split()[1]) for line in f if line.startswith("Private_")
                )
        except (OSError, ValueError, IndexError):
            continue  # the process ended meanwhile
    return total


#: The reference work is timed once for every this many seconds of each
#: operation (at least once), right after it.
REFERENCE_EVERY_S = 0.4


#: The reference work's data, built once: a dictionary lookup and some
#: integer arithmetic per step.
_REFERENCE_TABLE = {(i * 7919) % 10_007: i for i in range(4_096)}
_REFERENCE_KEYS = list(_REFERENCE_TABLE)


def reference_s() -> float:
    """Seconds for one fixed piece of pure-Python work: interpreter
    dispatch, hashing and small-integer arithmetic over a table that
    fits in the processor's caches.  It allocates nothing that outlives
    a step, so the state the program left in the heap and the allocator
    does not enter its time."""
    table, keys = _REFERENCE_TABLE, _REFERENCE_KEYS
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for _ in range(40):
            for k in keys:
                acc = (acc + table[k] * 31 + (k & 255)) & 0xFFFF
        return time.perf_counter() - t0
    finally:
        gc.enable()


def time_reference(after_s: float) -> list[float]:
    """The reference work's times, right after ``after_s`` seconds of
    measured work: once per ``REFERENCE_EVERY_S`` of it, at least once."""
    return [reference_s() for _ in range(max(1, round(after_s / REFERENCE_EVERY_S)))]


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value itself for
    a single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """One run of one workload; returns its record (see ``main``)."""
    wl = WORKLOADS[name](seed, scale)
    tracer = Tracer() if trace else NO_TRACE
    layers = Layers()
    problems: dict[int, list[str]] = {}

    setup_times = []
    # The largest private memory of the workload's worker processes, read
    # after every set-up and operation (outside the timers).
    children_kb = 0
    state = None
    for k in range(wl.setup_repeats):
        if state is not None:
            wl.discard(state)
            state = None
        tracer.op = f"setup-{k}"
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("setup"):
            state = wl.setup(tracer, layers)
        setup_times.append(time.perf_counter() - t0)
        children_kb = max(children_kb, children_private_kb())

    try:
        tracer.op = "prepare"
        t0 = time.perf_counter()
        bad = wl.prepare(state, tracer, layers)
        prepare_s = time.perf_counter() - t0
        if bad:
            problems[0] = bad
        # The reference times taken right before the next operation.
        before = time_reference(prepare_s)
        reference = list(before)

        walls: list[float] = []
        traced_walls: list[float] = []
        # Each operation's wall time over the mean reference time on both
        # sides of it.
        ratios: list[float] = []
        op_cpu: list[float] = []
        check_s = 0.0
        start = time.perf_counter()
        i = 0
        while True:
            # Traced runs trace the middle two operations of every four:
            # one odd and one even, so neither half of the edit loops'
            # alternating edit/revert pattern is favoured, and the first
            # operation after set-up is not always a traced one.
            tr = tracer if trace and i % 4 in (1, 2) else NO_TRACE
            tracer.op = f"op-{i}"
            out = None
            # Start every operation on a collected heap, so a collection
            # of earlier garbage (the previous operation's, the oracle's)
            # does not land inside this one's timer.
            gc.collect()
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                with tr.span("op"):
                    out = wl.op(state, tr, layers)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
            op_cpu.append(time.process_time() - c0)
            children_kb = max(children_kb, children_private_kb())
            after = time_reference(wall)
            reference += after
            if out is None:
                problems.setdefault(i, []).append("operation raised")
            else:
                (traced_walls if tr is tracer else walls).append(wall)
                ratios.append(wall / statistics.fmean(before + after))
                bad = wl.check(state, i, out)
                if bad:
                    problems.setdefault(i, []).extend(bad)
            before = after
            check_s += time.perf_counter() - t0 - wall
            i += 1
            if i >= wl.min_ops and time.perf_counter() - start >= seconds:
                break
            del out  # the last output stays alive for ``finish``
        attempted = i
        loop_s = time.perf_counter() - start

        self_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracer.op = "finish"
        t0 = time.perf_counter()
        for index, bad in wl.finish(state, out, tracer, layers).items():
            problems.setdefault(index % attempted, []).extend(bad)
        finish_s = time.perf_counter() - t0
    finally:
        wl.discard(state)  # stops a workload's worker processes
    peak_mb = (self_peak_kb + children_kb) / 1024

    all_walls = walls + traced_walls
    op_p50_s = statistics.median(all_walls) if all_walls else 0.0
    op_p90_s = percentile(all_walls, 90) if all_walls else 0.0
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "chips": wl.chips,
        "primitives": getattr(wl, "primitives", 0),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "attempted": attempted,
        "failed": len(problems),
        "problems": {str(k): v for k, v in sorted(problems.items())},
        "setup_times_s": setup_times,
        "phase_s": {
            "setup": sum(setup_times),
            "prepare": prepare_s,
            "loop": loop_s,
            "checks": check_s,
            "finish": finish_s,
        },
        "op_walls_s": all_walls,
        "op_cpu_s": op_cpu,
        "reference_s": reference,
        "as_measured": {
            "op_p50_ms": op_p50_s * 1000,
            "op_p90_ms": op_p90_s * 1000,
            "reference_ms": statistics.fmean(reference) * 1000,
        },
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "op_p50_ref": statistics.median(ratios) if ratios else 0.0,
            "op_p90_ref": percentile(ratios, 90) if ratios else 0.0,
            "peak_rss_mb": peak_mb,
        },
    }
    if trace:
        for span_name, (metric, factor) in SPAN_METRICS.items():
            for d in tracer.durations(span_name):
                layers.add(metric, d * factor)
        parse_s = layers.median("hdl.parser.parse_s")
        if parse_s:
            layers.add("hdl.parser.bytes_per_s", wl.text_bytes / parse_s)
        if walls and traced_walls:
            layers.add(
                "trace.overhead_ms",
                (statistics.median(traced_walls) - statistics.median(walls)) * 1000,
            )
        record["per_layer"] = {m: layers.median(m) for m, _, _ in PER_LAYER}
        record["sampled"] = sorted(layers.values)
        traced_ops = {s.op for s in tracer.spans if s.name == "op"}
        record["self_s"] = tracer.self_by_name(traced_ops)
        record["traced_ops"] = len(traced_ops)
        record["traced_op_s"] = sum(traced_walls)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


def print_record(rec: dict) -> None:
    """The human-readable part: metadata, metrics with units, tables."""
    print(
        f"workload {rec['workload']}  seed {rec['seed']}  scale {rec['scale']}  "
        f"chips {rec['chips']}  primitives {rec['primitives']}  "
        f"cpus {rec['cpus']}  python {rec['python']}  commit {rec['commit'][:12]}"
    )
    n = rec["attempted"]
    print(f"  operations {n}, failed {rec['failed']}, error_rate {rec['failed'] / n:.4f} ratio")
    for k, v in rec["problems"].items():
        print(f"  op {k}: {'; '.join(v)}")
    units = dict(END_TO_END)
    for m, v in rec["end_to_end"].items():
        print(f"  {m:<14} {v:14.4f} {units[m]}")
    for m, v in rec["as_measured"].items():
        print(f"  {m:<14} {v:14.4f} ms  as measured")
    if "per_layer" not in rec:
        return
    for m, unit, moves in PER_LAYER:
        note = f"moves {moves}" if m in rec["sampled"] else "not called"
        print(f"  {m:<34} {rec['per_layer'][m]:16.6f} {unit:<6} {note}")
    total = rec["traced_op_s"]
    print(f"  self time over {rec['traced_ops']} traced operations ({total:.3f} s):")
    for span, own in sorted(rec["self_s"].items(), key=lambda kv: -kv[1]):
        share = own / total if total else 0.0
        print(f"    {span:<34} {own:10.4f} s  {share:7.1%}")
    print(f"  spans written to {rec['spans_file']}")
    if rec["workload"] == "s1_cold":
        layer = rec["per_layer"]
        print("  Table 3-1, S-1 design: thesis (IBM 370/168 class) vs this run")
        print(f"    {'phase':<40} {'thesis min':>10} {'ours s':>10}")
        for label, minutes, metric in TABLE_3_1:
            print(f"    {label:<40} {minutes:>10.2f} {layer[metric]:>10.3f}")
        thesis = sum(minutes for _, minutes, _ in TABLE_3_1)
        ours = sum(layer[metric] for _, _, metric in TABLE_3_1)
        print(f"    {'total':<40} {thesis:>10.2f} {ours:>10.3f}")


def result_line(rec: dict) -> dict:
    metrics = rec.get("per_layer")
    units = {m: unit for m, unit, _ in PER_LAYER}
    if metrics is None:
        metrics, units = rec["end_to_end"], dict(END_TO_END)
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", args.scale,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}")
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for m, v in res["metrics"].items():
                combined["metrics"][f"{name}.{m}"] = v
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    print_record(rec)
    print(json.dumps(result_line(rec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
