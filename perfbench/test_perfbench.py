"""Tests of the benchmark itself: span arithmetic, the tail-percentile rule,
failure counting, agreement with BENCHMARK.json, and a one-operation smoke
pass of every workload.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository
root.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from trigjac import rconst, theta
from trigjac.errors import GeneralPositionFailure

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # begin and end each read the clock twice; repeat each instant
    instants = [0, 1, 2, 3, 5, 6, 8, 9]
    tr = spans.Tracer(clock=_fake_clock(itertools.chain.from_iterable((t, t) for t in instants)))
    outer = tr.begin("rconst.riemann_constant")   # 0
    a = tr.begin("periods.abel_point")            # 1
    q = tr.begin("quadrature")                    # 2
    tr.end(q)                                     # 3
    tr.end(a)                                     # 5
    t = tr.begin("theta")                         # 6
    tr.end(t)                                     # 8
    tr.end(outer)                                 # 9
    selfs = tr.self_times()
    assert selfs["quadrature"] == 1
    assert selfs["periods.abel_point"] == 3      # 4 minus its 1 s of quadrature
    assert selfs["theta"] == 2
    assert selfs["rconst.riemann_constant"] == 3  # 9 minus 4 and 2
    assert sum(selfs.values()) == 9


def test_layer_seconds_account_for_the_whole_wall():
    instants = [1, 2, 4, 7]
    tr = spans.Tracer(clock=_fake_clock(itertools.chain.from_iterable((t, t) for t in instants)))
    op = tr.begin("op")
    q = tr.begin("quadrature")
    tr.end(q)
    tr.end(op)
    layers = spans.layer_seconds(tr, wall=10)
    assert layers["quadrature"] == 2
    assert layers["benchmark"] == 8               # 4 s of op self plus 4 s outside
    assert sum(layers.values()) == 10


@pytest.mark.parametrize("n, rank, pct, beyond", [
    (1, 1, 100.0, 0),
    (19, 19, 100.0, 0),
    (20, 10, 50.0, 10),
    (40, 30, 75.0, 10),
    (100, 90, 90.0, 10),
])
def test_tail_percentile_has_ten_samples_beyond(n, rank, pct, beyond):
    samples = [float(k) for k in range(n, 0, -1)]  # unsorted on purpose
    assert run.tail_percentile(samples) == (float(rank), pct, beyond)


def test_failures_are_counted_and_never_abort():
    def raises(exc):
        def f():
            raise exc
        return f

    ops = [
        workloads.Op("pass", lambda: [12.5]),
        workloads.Op("check", raises(workloads.CheckFailed("residual too large"))),
        workloads.Op("package", raises(GeneralPositionFailure("no decisive sheet"))),
        workloads.Op("crash", raises(ZeroDivisionError("boom"))),
        workloads.Op("pass again", lambda: [3.0, 4.0]),
    ]
    seen = []
    attempted, failed = run.run_ops(ops, lambda op, secs, m, err: seen.append((op.label, m, err)))
    assert (attempted, failed) == (5, 3)
    assert [label for label, _, err in seen if err is None] == ["pass", "pass again"]
    assert seen[2][2].startswith("GeneralPositionFailure")


def test_band_margin_sign():
    tol, floor = 1e-20, 1e-10
    assert spans.band_margin_digits(1e-25, 1, tol, floor) == pytest.approx(5)
    assert spans.band_margin_digits(1e-7, 1, tol, floor) == pytest.approx(3)
    assert spans.band_margin_digits(1e-12, 1, tol, floor) == pytest.approx(-2)


def test_instrument_restores_every_patched_function():
    before = (rconst.theta_value, theta.theta_value, rconst.riemann_constant)
    with spans.instrument(spans.Tracer()):
        assert rconst.theta_value is not before[0]
        assert rconst.theta_value is theta.theta_value
    assert (rconst.theta_value, theta.theta_value, rconst.riemann_constant) == before


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == spans.PER_LAYER


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theta-g3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_smoke_pass(name):
    workload = workloads.WORKLOADS[name]
    with run.scratch_dir() as cache_dir:
        state = workload.setup(cache_dir)
    ops = workload.round(state, 2, 0, run.scratch_dir)[:1]
    outcomes = []
    attempted, failed = run.run_ops(ops, lambda op, secs, m, err: outcomes.append((secs, m, err)))
    assert (attempted, failed) == (1, 0), outcomes
    secs, margins, _ = outcomes[0]
    assert secs > 0 and margins and min(margins) > 0


def test_traced_run_reports_every_per_layer_metric():
    raw = run.measure(workloads.WORKLOADS["theta-g3"], seed=1, seconds=0, traced=True,
                      setup_reps=1)
    assert raw["failed"] == 0
    setup_tracer, round_tracer = raw["tracers"]
    got = spans.layer_metrics([(setup_tracer, sum(raw["setup_times"]), 1),
                               (round_tracer, sum(raw["round_times"]), 1)])
    assert set(got) | {"trace.wall_s"} == set(spans.PER_LAYER)
    assert got["theta.verdicts_none"] == 0
    assert got["theta.verdicts_true"] + got["theta.verdicts_false"] == 8 * workloads.THETA_PER_TOP
    assert got["periods.cache_misses"] == 1 and got["periods.cache_hits"] == 1
    assert got["quadrature.plain_calls"] == 0
