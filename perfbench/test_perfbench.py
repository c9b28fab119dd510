"""Tests of the benchmark itself: tiny runs, span arithmetic, output checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, self_times

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import wearsim.cli  # noqa: E402

TINY = {
    "crowded_sweep": run.Size(2.0, seeds=1),
    "suit_long": run.Size(1.0),
    "crowded_loop": run.Size(3.0),
}


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run(in_tmp, workload, traced):
    result = run.run_workload(workload, 3, 0.0, traced, size=TINY[workload])
    assert result.correct, result.errors
    assert result.failed == 0 and result.attempted >= 1
    expected = run.PER_LAYER if traced else run.END_TO_END
    assert list(result.metrics) == list(expected)
    assert not (in_tmp / run.WORK / workload).exists()
    if not traced:
        assert all(v > 0 for v, _ in result.metrics.values())
    else:
        assert set(run.FINGERPRINT_COUNTS) <= set(result.fingerprint)
        assert result.metrics["motion.readings"][0] > 0


def test_same_seed_same_inputs_and_outputs(in_tmp):
    plans = [run.prepare("crowded_sweep", 5, TINY["crowded_sweep"]) for _ in range(2)]
    assert plans[0].commands[0].argv == plans[1].commands[0].argv
    reps = [run.run_once(plans[1], wearsim.cli.main, Tracer()) for _ in range(2)]
    assert reps[0].fingerprint == reps[1].fingerprint
    other = run.prepare("crowded_sweep", 6, TINY["crowded_sweep"])
    assert run.run_once(other, wearsim.cli.main).fingerprint["digest"] \
        != reps[0].fingerprint["digest"]


class FakeClock:
    """Advances one unit per reading unless a test moves it further."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_times_of_a_synthetic_tree():
    spans = [Span("root", 0.0, 10.0, None),
             Span("a", 1.0, 4.0, 0),
             Span("leaf", 2.0, 3.0, 1),
             Span("b", 5.0, 6.0, 0),
             Span("leaf", 7.0, 9.0, 0)]
    assert self_times(spans) == {"root": 4.0, "a": 2.0, "b": 1.0, "leaf": 3.0}


def test_tracer_self_time_matches_the_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock, aggregate=frozenset())

    def leaf():
        clock.now += 2.0

    t_leaf = tracer.wrap("leaf", leaf)
    t_middle = tracer.wrap("middle", lambda: (t_leaf(), t_leaf()))
    tracer.wrap("root", lambda: (t_middle(), t_leaf()))()

    assert [s.name for s in tracer.spans] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
    expected = self_times(tracer.spans)
    assert {n: t.self_s for n, t in tracer.totals.items()} == expected
    assert tracer.totals["leaf"].calls == 3
    assert expected["leaf"] == 3 * 3.0

    # Aggregating the leaf keeps the totals and drops only its spans.
    clock2 = FakeClock()
    agg = Tracer(clock=clock2, aggregate=frozenset({"leaf"}))

    def leaf2():
        clock2.now += 2.0

    a_leaf = agg.wrap("leaf", leaf2)
    a_middle = agg.wrap("middle", lambda: (a_leaf(), a_leaf()))
    agg.wrap("root", lambda: (a_middle(), a_leaf()))()
    assert [s.name for s in agg.spans] == ["root", "middle"]
    assert {n: t.self_s for n, t in agg.totals.items()} == expected


def test_timed_counts_in_reference_chunks():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    result, seconds = run.timed(lambda: [run.reference_chunk() for _ in range(200)])
    assert len(result) == 200
    # The work is 200 chunks, so it takes about 200 nominal chunk times.
    assert 0.7 < seconds / (200 * run.REF_CHUNK_S) < 1.4
    assert signal.getsignal(signal.SIGALRM) is before


def test_installed_restores_every_target():
    import wearsim
    from wearsim import cli, radio

    before = (cli.execute, radio.InterferenceField.busy, cli.load_scenario)
    with Tracer().installed(wearsim):
        assert cli.execute is not before[0]
        assert wearsim.runner.execute is cli.execute
    assert (cli.execute, radio.InterferenceField.busy, cli.load_scenario) == before


def _corrupting(edit, real_main=wearsim.cli.main):
    def main(argv):
        code = real_main(argv)
        edit(argv)
        return code
    return main


def _out(argv) -> Path:
    return Path(argv[argv.index("--out") + 1])


def _break_ledger(argv):
    path = _out(argv) / "metrics.json"
    m = json.loads(path.read_text())
    m["sources"]["master"]["sent"] += 1
    path.write_text(json.dumps(m))


def _break_recording(argv):
    path = _out(argv) / "recording.csv"
    lines = path.read_text().splitlines()
    lines[1], lines[-1] = lines[-1], lines[1]
    path.write_text("\n".join(lines) + "\n")


def _break_bench(argv):
    path = _out(argv) / "bench.json"
    m = json.loads(path.read_text())
    st = next(iter(m["per_run"]["cw"].values()))["per_sensor"]["1"]
    st["recorded"] += 1
    path.write_text(json.dumps(m))


@pytest.mark.parametrize("workload, edit", [
    ("suit_long", _break_ledger),
    ("suit_long", _break_recording),
    ("crowded_sweep", _break_bench),
])
def test_corrupted_output_counts_as_failed(in_tmp, workload, edit):
    plan = run.prepare(workload, 1, TINY[workload])
    assert run.run_once(plan, wearsim.cli.main).failed == 0
    rep = run.run_once(plan, _corrupting(edit))
    assert rep.failed == 1 and rep.errors


def test_failures_reach_the_result(in_tmp, monkeypatch):
    monkeypatch.setattr(wearsim.cli, "main", _corrupting(_break_ledger))
    result = run.run_workload("suit_long", 1, 0.0, False, size=TINY["suit_long"])
    assert not result.correct
    assert result.failed / result.attempted > 0


@pytest.mark.parametrize("field, value", [("pearson", 0.98), ("mae_deg", 0.5)])
def test_compare_check_catches_wrong_figures(in_tmp, field, value):
    plan = run.prepare("crowded_loop", 3, TINY["crowded_loop"])

    def edit(argv):
        if argv[0] == "compare":
            path = _out(argv) / "comparison.json"
            m = json.loads(path.read_text())
            m[field] = value
            path.write_text(json.dumps(m))

    rep = run.run_once(plan, _corrupting(edit))
    assert rep.failed == 1 and rep.errors[0].startswith("compare")


def _bench_report(proto: str, unrecorded: list[int]) -> dict:
    other = "ble-baseline" if proto == "cw" else "cw"
    balanced = {"sent": 600, "delivered": 590, "recorded": 590, "host_dropped": 0}
    short = {str(s + 1): dict(balanced, recorded=590 - n)
             for s, n in enumerate(unrecorded)}
    return {"per_run": {proto: {"7": {"per_sensor": short}},
                        other: {"7": {"per_sensor": {"1": balanced}}}}}


@pytest.mark.parametrize("proto, unrecorded, ok", [
    ("cw", [0, 0, 1], True),       # the one response in flight at the end
    ("cw", [0, 1, 1], False),
    ("cw", [0, 0, 2], False),
    ("ble-baseline", [0, 1], False),
])
def test_bench_check_allows_one_unrecorded_cw_frame(in_tmp, proto, unrecorded, ok):
    (in_tmp / "bench.json").write_text(json.dumps(_bench_report(proto, unrecorded)))
    if ok:
        run.check_bench(in_tmp, 1)
    else:
        with pytest.raises(run.BenchError, match="not recorded"):
            run.check_bench(in_tmp, 1)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.FULL)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == [run.HERE.name]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_last(in_tmp, monkeypatch, capsys, trace):
    monkeypatch.setitem(run.FULL, "suit_long", TINY["suit_long"])
    code = run.main(["--workload", "suit_long", "--seed", "1", "--seconds", "0",
                     "--trace", trace])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    assert not (in_tmp / run.WORK).exists()
    if trace == "1":
        spans = [json.loads(line) for line in run.SPANS.read_text().splitlines()]
        assert spans[0]["name"] == "cli.simulate" and spans[0]["parent"] is None
        assert all(spans[s["parent"]]["start"] <= s["start"] for s in spans[1:])


def test_without_the_program_it_fails_cleanly(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "suit_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
