"""The benchmark's own tests: tiny smoke runs and oracle self-checks.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.session import Session
from repro.sta.parametric import solve_fmax
from spans import NO_TRACE, Tracer
from run import CALLED, PER_LAYER
from workloads import (
    CasePool,
    ColdOutput,
    EditLoop,
    EditStream,
    FmaxSweep,
    Layers,
    S1Cold,
    WORKLOADS,
    check_cold,
    check_fmax,
    check_incremental,
    cold_digests,
    front_end,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[list[str], dict]:
    """Run the benchmark at tiny scale; its output lines and result."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args,
         "--seed", "5", "--seconds", "0.5", "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = bench("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    text = "\n".join(lines[:-1])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[2:3] == [m["unit"]]
            for line in lines[:-1]
        ), f"{m['name']} not printed with its unit"
    assert "error_rate 0.0000 ratio" in text
    if trace and workload == "s1_cold":
        assert "Table 3-1" in text
    if trace:
        record = json.loads(
            (ROOT / "perfbench" / "out" / f"{workload}-seed5-trace1.json").read_text()
        )
        assert set(record["sampled"]) == CALLED[workload]


def test_every_per_layer_metric_is_called_somewhere():
    assert [m for m, _, _ in PER_LAYER] == [m["name"] for m in SPEC["per_layer"]]
    assert set().union(*CALLED.values()) == {m for m, _, _ in PER_LAYER}


def test_all_runs_every_workload_untraced_and_traced():
    _, result = bench("--workload", "all")
    assert result["correct"] and result["failed"] == 0
    for w in WORKLOADS:
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert f"{w}.{m['name']}" in result["metrics"]


def test_self_times_add_up_to_the_root_span():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    own = tr.self_seconds()
    assert sum(own.values()) == pytest.approx(tr.spans[0].seconds)
    assert all(v >= 0 for v in own.values())


# ----------------------------------------------------------------------
# each oracle catches a corrupted output
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cold():
    wl = S1Cold(seed=3, scale="tiny")
    text = wl.setup(NO_TRACE, Layers())
    out = wl.op(text, NO_TRACE, Layers())
    return wl, text, out


def test_cold_oracle_passes_a_true_run_and_fails_corruption(cold):
    wl, text, out = cold
    wl.check(text, 0, out)
    assert wl.finish(text, out, NO_TRACE, Layers()) == {}
    reference = cold_digests(out)
    assert check_cold(cold_digests(out), reference) == []
    bad_error = ColdOutput(out.circuit, out.result, out.error + "\nextra line", out.xref)
    assert check_cold(cold_digests(bad_error), reference)
    bad_xref = ColdOutput(out.circuit, out.result, out.error, out.xref + "\n  EXTRA")
    assert check_cold(cold_digests(bad_xref), reference)
    assert check_cold(dict(reference, summary="0" * 64), reference)
    assert check_cold(dict(reference, ok=False), reference)


def test_cold_oracle_fails_a_run_that_differs_from_the_naive_engine(cold):
    wl, text, out = cold
    wl.digests = {0: dict(cold_digests(out), error="0" * 64)}
    assert 0 in wl.finish(text, out, NO_TRACE, Layers())


def run_steps(wl, steps: int):
    """Set up a tiny edit-loop workload and run ``steps`` checked steps."""
    wl.check_every = 1
    session = wl.setup(NO_TRACE, Layers())
    assert wl.prepare(session, NO_TRACE, Layers()) == []
    for i in range(steps):
        assert wl.check(session, i, wl.op(session, NO_TRACE, Layers())) == []
    return session


def test_incremental_oracle_fails_corruption():
    wl = EditLoop(seed=3, scale="tiny")
    session = run_steps(wl, 3)
    assert wl.finish(session, None, NO_TRACE, Layers()) == {}
    # A step whose recorded listing differs from the replay's.
    wl.digests[1] = dict(wl.digests[1], error="0" * 64)
    assert list(wl.finish(session, None, NO_TRACE, Layers())) == [1]
    # A delay changed behind the session's back leaves its converged
    # state stale: the from-scratch comparison must notice.
    name = next(n for n in wl.stream.comps if n.startswith("corr"))
    comp = session.circuit.components[name]
    lo, hi = comp.params["delay"]
    comp.params["delay"] = (lo, hi + 30_000)
    assert check_incremental(session)


def test_fmax_oracle_fails_a_corrupted_period():
    wl = FmaxSweep(seed=3, scale="tiny")
    circuit = wl.setup(NO_TRACE, Layers())
    assert wl.prepare(circuit, NO_TRACE, Layers()) == []
    result = solve_fmax(circuit)
    assert check_fmax(result, wl.engine_period_ps) == []
    off_by_one = dataclasses.replace(result, period_ps=result.period_ps + 1)
    assert check_fmax(off_by_one, wl.engine_period_ps)
    low_root = dataclasses.replace(result, static_period_ps=result.period_ps - 1)
    assert check_fmax(low_root, wl.engine_period_ps)


def test_pooled_oracle_fails_a_corrupted_listing():
    wl = CasePool(seed=3, scale="tiny")
    session = run_steps(wl, 3)
    try:
        assert wl.finish(session, None, NO_TRACE, Layers()) == {}
        wl.digests[-1] = dict(wl.digests[-1], xref="0" * 64)
        wl.digests[2] = dict(wl.digests[2], error="0" * 64)
        assert list(wl.finish(session, None, NO_TRACE, Layers())) == [-1, 2]
    finally:
        session.close()


def test_edit_stream_reverts_every_edit():
    circuit = front_end(EditLoop(seed=3, scale="tiny").text, NO_TRACE, Layers())
    original = {n: c.params.get("delay") for n, c in circuit.components.items()}
    session = Session(circuit)
    stream = EditStream(circuit, "revert-check")
    for _ in range(40):
        session.edit(stream.next())
    while stream.pending:
        session.edit(stream.pending.popleft()[1])
    assert {n: c.params.get("delay") for n, c in circuit.components.items()} == original
    assert all(n.wire_delay_ps is None for n in circuit.representatives()
               if n.name in stream.nets)
