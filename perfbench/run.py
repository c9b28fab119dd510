"""wearsim benchmark: drives ``wearsim.cli.main`` in-process on generated inputs.

    python3 perfbench/run.py --workload crowded_sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports wearsim from ``src/`` and
writes its scratch files under ``.perfbench_work/``, which it removes at
exit. One caller runs each operation after the previous one finishes
(a closed loop in one process). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = Path(".perfbench_work")
SPANS = Path(".perfbench_spans.jsonl")  # the first traced operation's spans
SETUP_PROBES = 5
SAMPLE_EVERY_S = 0.05        # wall time between reference samples in a command
SETUP_SAMPLE_EVERY_S = 0.01  # the same while setting up, which is short
REF_CHUNK_S = 0.0015         # reference_chunk's time at the speed figures are scaled to

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from spans import Span, Tracer, write_spans  # noqa: E402

# End-to-end times are reference seconds (see ``timed``).
END_TO_END = ("setup_s", "seeds_per_ref_s", "sim_s_per_ref_s", "peak_rss_mb")


class BenchError(Exception):
    """An operation's output failed its check."""


# Inputs -------------------------------------------------------------------

@dataclass(frozen=True)
class Size:
    """How much work one operation of a workload does."""

    duration_s: float   # simulated length of one session
    seeds: int = 1      # protocol-bench seeds per operation


FULL = {
    "crowded_sweep": Size(10.0, seeds=8),
    "suit_long": Size(60.0),
    "crowded_loop": Size(60.0),
}


def scenario_mapping(workload: str, seed: int, size: Size) -> dict:
    """The scenario of one workload, built from the workload seed alone."""
    if workload == "crowded_sweep":
        # Zero noise keeps each sampler reading to one kinematic chain. The
        # session seed is the first of protocol-bench's consecutive seeds.
        return {"session": {"duration_s": size.duration_s, "seed": seed * size.seeds},
                "motion": {"preset": "arm-raise", "noise": "zero"},
                "protocol": {"kind": "cw"},
                "interference": {"preset": "crowded"}}
    band = {"suit_long": "clean", "crowded_loop": "crowded"}[workload]
    return {"session": {"duration_s": size.duration_s, "seed": seed},
            "motion": {"preset": "half-jacks", "params": {"sensors": 12}},
            "protocol": {"kind": "cw"},
            "interference": {"preset": band}}


@dataclass
class Command:
    argv: list[str]
    check: Callable[[], None]
    kind: str  # the CLI command, for timing


@dataclass
class Plan:
    """The generated inputs of one workload and the commands of one operation."""

    root: Path
    commands: list[Command]
    outputs: list[Path]      # directories whose bytes form the digest
    sim_dir: Path | None     # simulate's output directory, if any
    sim_seconds: float       # simulated session seconds per operation
    seeds: int               # seeds completed per operation


def prepare(workload: str, seed: int, size: Size, work: Path = WORK) -> Plan:
    """Write the workload's scenario file and plan one operation.

    Paths stay relative to the current directory so that outputs which
    quote them (bench.json, comparison.json) are the same in every checkout.
    """
    import yaml

    root = work / workload
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    scenario = root / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(scenario_mapping(workload, seed, size),
                                       sort_keys=True), encoding="utf-8")
    if workload == "crowded_sweep":
        out = root / "bench"
        return Plan(root,
                    [Command(["protocol-bench", "--scenario", str(scenario),
                              "--out", str(out), "--seeds", str(size.seeds)],
                             lambda: check_bench(out, size.seeds), "protocol-bench")],
                    [out], None, 2 * size.duration_s * size.seeds, size.seeds)
    sim = root / "sim"
    commands = [Command(["simulate", "--scenario", str(scenario), "--out", str(sim)],
                        lambda: check_simulation(sim), "simulate")]
    outputs = [sim]
    if workload == "crowded_loop":
        analysis, comparison = root / "analysis", root / "compare"
        commands += [
            Command(["analyze", "--recording", str(sim / "recording.csv"),
                     "--out", str(analysis)],
                    lambda: check_analysis(analysis, sim), "analyze"),
            Command(["compare", str(sim / "recording.csv"),
                     str(sim / "ground_truth_left_shoulder.csv"),
                     "--joint", "left shoulder", "--out", str(comparison)],
                    lambda: check_comparison(comparison, analysis, sim), "compare"),
        ]
        outputs += [analysis, comparison]
    return Plan(root, commands, outputs, sim, size.duration_s, 1)


# Output checks ------------------------------------------------------------

def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"{path}: {exc}") from None


# Deliveries a session may count but never record. The cw master logs a
# response when it starts, so the one response in flight when the session
# ends is counted delivered but never received (a boundary defect of
# protocol.master_run). The half-duplex link carries one response at a
# time, so that is at most one frame per cw session. ble-baseline logs a
# transmission when it ends and must balance exactly.
UNRECORDED_LIMIT = {"cw": 1, "ble-baseline": 0}


def check_bench(out: Path, seeds: int) -> None:
    """Every sensor of every run: recorded + host_dropped <= delivered <= sent,
    and the shortfall per run is within ``UNRECORDED_LIMIT``."""
    report = _load_json(out / "bench.json")
    for proto, limit in UNRECORDED_LIMIT.items():
        runs = report.get("per_run", {}).get(proto, {})
        if len(runs) != seeds:
            raise BenchError(f"bench.json has {len(runs)} {proto} runs, expected {seeds}")
        for seed, run in runs.items():
            unrecorded = 0
            for sid, st in run["per_sensor"].items():
                if not (st["recorded"] + st["host_dropped"] <= st["delivered"]
                        <= st["sent"]):
                    raise BenchError(f"{proto} seed {seed} sensor {sid}: {st}")
                unrecorded += st["delivered"] - st["recorded"] - st["host_dropped"]
            if unrecorded > limit:
                raise BenchError(f"{proto} seed {seed}: {unrecorded} delivered frames "
                                 f"not recorded (at most {limit}): {run['per_sensor']}")


def check_simulation(sim: Path) -> None:
    """Per-source conservation in metrics.json; recording.csv re-reads."""
    from wearsim.pipeline import RecordingError, read_recording

    metrics = _load_json(sim / "metrics.json")
    for source, c in metrics["sources"].items():
        if c["sent"] != c["delivered"] + c["collided"] + c["floor_lost"]:
            raise BenchError(f"source {source} breaks conservation: {c}")
    try:
        frames = read_recording(sim / "recording.csv")
    except (OSError, RecordingError) as exc:
        raise BenchError(f"recording.csv does not re-read: {exc}") from None
    recorded = sum(st["recorded"] for st in metrics["per_sensor"].values())
    if len(frames) != recorded:
        raise BenchError(f"recording.csv holds {len(frames)} frames, "
                         f"metrics.json records {recorded}")


def check_analysis(analysis: Path, sim: Path) -> None:
    summary = _load_json(analysis / "analysis.json")
    joints = _load_json(sim / "session.json")["joints"]
    for label in joints:
        if summary["joints"].get(label, {}).get("count", 0) < 1:
            raise BenchError(f"analysis.json has no angles for {label!r}")


def check_comparison(comparison: Path, analysis: Path, sim: Path) -> None:
    """The reported MAE and Pearson recomputed with numpy from analyze's
    angle series and the 100 Hz ground truth.

    AC4's tracking floor (MAE < 5 deg, Pearson > 0.99) is not applied: it
    holds for a clean session, and in the crowded band the suit loses sync,
    so Pearson falls to 0.96-0.99 on correct outputs.
    """
    import numpy as np

    report = _load_json(comparison / "comparison.json")
    err, corr = report["mae_deg"], report["pearson"]
    a = np.loadtxt(analysis / "angles_left_shoulder.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(sim / "ground_truth_left_shoulder.csv", delimiter=",", skiprows=1)
    a = a[(a[:, 0] >= b[0, 0]) & (a[:, 0] <= b[-1, 0])]
    vb = np.interp(a[:, 0], b[:, 0], b[:, 1])
    want = (float(np.mean(np.abs(a[:, 1] - vb))), float(np.corrcoef(a[:, 1], vb)[0, 1]))
    if not np.allclose((err, corr), want, rtol=1e-6, atol=1e-9):
        raise BenchError(f"compare reports MAE {err!r}, Pearson {corr!r}; "
                         f"recomputed {want}")


# Running ------------------------------------------------------------------

def reference_chunk() -> float:
    """A fixed interpreter-bound snippet like the simulator's inner loops:
    a heap of events, float math and dict updates."""
    heap: list = []
    counts: dict[int, float] = {}
    acc = 0.0
    for i in range(1500):
        heapq.heappush(heap, (((i * 7919) % 1009) / 7.0, i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            acc += math.sin(t) * math.sqrt(j + 1.0)
            counts[j % 97] = counts.get(j % 97, 0.0) + acc
    return acc


def timed(fn: Callable[[], object], every_s: float = SAMPLE_EVERY_S) -> tuple:
    """Run ``fn()`` and return its result and its time in reference seconds.

    On a shared host this process's speed moved by up to 2x within a
    minute, in wall time and in CPU time alike. So a SIGALRM timer runs
    ``reference_chunk`` every ``every_s`` seconds while ``fn`` runs (and
    once after it), and times each run of it. The wall time of ``fn``,
    minus the time spent in the chunk, divided by the chunk's mean time
    over ``REF_CHUNK_S``, is the wall time ``fn`` would take at the speed
    where the chunk takes ``REF_CHUNK_S``. The chunk adds about 4%.
    """
    samples: list[float] = []

    def sample(*_) -> None:
        t0 = time.perf_counter()
        reference_chunk()
        samples.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - sum(samples)
        signal.signal(signal.SIGALRM, previous)
    sample()
    return result, wall * REF_CHUNK_S / statistics.fmean(samples)


@dataclass
class Rep:
    """One operation: its command timings and what it produced."""

    times: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)


def output_fingerprint(plan: Plan) -> dict:
    """Digest of every output byte, plus the bytes simulate wrote."""
    digest = hashlib.sha256()
    for out in plan.outputs:
        # A failed command may have left no directory; rglob then yields nothing.
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(plan.root)).encode() + b"\0")
            digest.update(path.read_bytes())
    written = 0
    if plan.sim_dir is not None and plan.sim_dir.is_dir():
        written = sum(p.stat().st_size for p in plan.sim_dir.iterdir() if p.is_file())
    return {"digest": digest.hexdigest(), "runner.bytes_written": written}


def run_once(plan: Plan, main: Callable[[list[str]], int],
             tracer: Tracer | None = None) -> Rep:
    """Run one operation. Only the commands are timed (and traced); the
    output checks and the digest run afterwards."""
    import wearsim

    rep = Rep()
    for out in plan.outputs:
        shutil.rmtree(out, ignore_errors=True)
    counts: dict[str, int] = {}
    install = (tracer.installed(wearsim, layer_observers(counts)) if tracer
               else contextlib.nullcontext())
    exits = []
    with install:
        for cmd in plan.commands:
            def call(argv: list[str] = cmd.argv) -> int | str:
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        return main(argv)
                except Exception as exc:  # a crash fails the operation, not the run
                    return f"{type(exc).__name__}: {exc}"
            code, rep.times[cmd.kind] = timed(call)
            exits.append((cmd, code))
            if code != 0:
                break
    for cmd, code in exits:
        rep.attempted += 1
        try:
            if code != 0:
                raise BenchError(f"exit {code}")
            cmd.check()
        except (BenchError, OSError, ValueError, LookupError, TypeError) as exc:
            # A malformed or missing output fails its operation, not the run.
            rep.failed += 1
            rep.errors.append(f"{cmd.kind}: {exc}")
    rep.fingerprint = output_fingerprint(plan)
    if tracer is not None:
        rep.layers = layer_metrics(tracer, counts, rep.fingerprint)
        rep.spans = tracer.spans
        rep.fingerprint.update({k: rep.layers[k] for k in FINGERPRINT_COUNTS})
    return rep


def e2e_values(plan: Plan, rep: Rep) -> dict[str, float]:
    total = sum(rep.times.values())
    sim = rep.times.get("simulate", rep.times.get("protocol-bench"))
    return {"seeds_per_ref_s": plan.seeds / total,
            "sim_s_per_ref_s": plan.sim_seconds / sim,
            "analyze_s": rep.times.get("analyze", 0.0),
            "compare_s": rep.times.get("compare", 0.0),
            "op_s": total}


# Layers -------------------------------------------------------------------

FINGERPRINT_COUNTS = ("radio.bursts", "radio.busy_calls", "radio.collided_ratio",
                      "protocol.tx", "protocol.hops", "protocol.resyncs",
                      "motion.readings", "runner.bytes_written",
                      "pipeline.angle_points")

PER_LAYER = (
    "scenario.load_calls", "scenario.load_s",
    "radio.build_field_calls", "radio.build_field_s", "radio.bursts",
    "radio.busy_calls", "radio.busy_s", "radio.busy_true_ratio",
    "radio.arbitrate_calls", "radio.arbitrate_s", "radio.collided_ratio",
    "radio.sched_events",
    "protocol.master_run_s", "protocol.master_self_s", "protocol.ble_run_s",
    "protocol.ble_self_s", "protocol.tx", "protocol.host_us_per_tx",
    "protocol.delivered_ratio", "protocol.hops", "protocol.resyncs",
    "protocol.session_metrics_s",
    "motion.readings", "motion.reading_s", "motion.us_per_reading",
    "motion.truth_calls", "motion.truth_s",
    "runner.execute_s", "runner.writers_s", "runner.bytes_written",
    "pipeline.write_recording_s", "pipeline.read_recording_s",
    "pipeline.frames_read", "pipeline.joint_angle_series_s",
    "pipeline.angle_points", "pipeline.mae_s", "pipeline.pearson_s",
    "pipeline.rate_series_s",
    "skeleton.animate_frame_calls", "skeleton.animate_frame_s",
    "cli.analyze_s", "cli.compare_s",
    "trace.overhead_s", "trace.overhead_ratio",
)


def layer_observers(counts: dict[str, int]) -> dict[str, Callable]:
    """Counters the traced run reads off wrapped calls' return values."""
    from wearsim.radio import COLLIDED, DELIVERED

    def add(key: str, n: int) -> None:
        counts[key] = counts.get(key, 0) + n

    def session(result) -> None:
        add("tx", len(result.trace))
        add("delivered", sum(1 for r in result.trace if r.outcome == DELIVERED))
        add("hops", result.hop_count)
        add("resyncs", result.resync_count)

    return {
        "radio.build_field": lambda f: add("bursts", len(f.all_bursts())),
        "radio.busy": lambda busy: add("busy_true", int(busy)),
        "radio.arbitrate": lambda outcome: add("collided", int(outcome == COLLIDED)),
        "protocol.master_run": session,
        "protocol.ble_run": session,
        "pipeline.read_recording": lambda frames: add("frames_read", len(frames)),
        "pipeline.joint_angle_series": lambda s: add("angle_points", len(s.points)),
    }


def layer_metrics(tracer: Tracer, counts: dict[str, int], outputs: dict) -> dict:
    t = tracer.total
    writers = 0.0
    for span in tracer.spans:
        if span.name == "runner.run_scenario":
            writers += span.duration - sum(
                c.duration for c in tracer.spans
                if c.parent is not None and tracer.spans[c.parent] is span
                and c.name == "runner.execute")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    tx = counts.get("tx", 0)
    loop_self = t("protocol.master_run").self_s + t("protocol.ble_run").self_s
    return {
        "scenario.load_calls": t("scenario.load").calls,
        "scenario.load_s": t("scenario.load").total_s,
        "radio.build_field_calls": t("radio.build_field").calls,
        "radio.build_field_s": t("radio.build_field").total_s,
        "radio.bursts": counts.get("bursts", 0),
        "radio.busy_calls": t("radio.busy").calls,
        "radio.busy_s": t("radio.busy").total_s,
        "radio.busy_true_ratio": ratio(counts.get("busy_true", 0), t("radio.busy").calls),
        "radio.arbitrate_calls": t("radio.arbitrate").calls,
        "radio.arbitrate_s": t("radio.arbitrate").total_s,
        "radio.collided_ratio": ratio(counts.get("collided", 0),
                                      t("radio.arbitrate").calls),
        "radio.sched_events": t("radio.sched_at").calls,
        "protocol.master_run_s": t("protocol.master_run").total_s,
        "protocol.master_self_s": t("protocol.master_run").self_s,
        "protocol.ble_run_s": t("protocol.ble_run").total_s,
        "protocol.ble_self_s": t("protocol.ble_run").self_s,
        "protocol.tx": tx,
        "protocol.host_us_per_tx": ratio(loop_self * 1e6, tx),
        "protocol.delivered_ratio": ratio(counts.get("delivered", 0), tx),
        "protocol.hops": counts.get("hops", 0),
        "protocol.resyncs": counts.get("resyncs", 0),
        "protocol.session_metrics_s": t("protocol.session_metrics").total_s,
        "motion.readings": t("motion.reading").calls,
        "motion.reading_s": t("motion.reading").total_s,
        "motion.us_per_reading": ratio(t("motion.reading").total_s * 1e6,
                                       t("motion.reading").calls),
        "motion.truth_calls": t("motion.truth").calls,
        "motion.truth_s": t("motion.truth").total_s,
        "runner.execute_s": t("runner.execute").total_s,
        "runner.writers_s": writers,
        "runner.bytes_written": outputs["runner.bytes_written"],
        "pipeline.write_recording_s": t("pipeline.write_recording").total_s,
        "pipeline.read_recording_s": t("pipeline.read_recording").total_s,
        "pipeline.frames_read": counts.get("frames_read", 0),
        "pipeline.joint_angle_series_s": t("pipeline.joint_angle_series").total_s,
        "pipeline.angle_points": counts.get("angle_points", 0),
        "pipeline.mae_s": t("pipeline.mae").total_s,
        "pipeline.pearson_s": t("pipeline.pearson").total_s,
        "pipeline.rate_series_s": t("pipeline.rate_series").total_s,
        "skeleton.animate_frame_calls": t("skeleton.animate_frame").calls,
        "skeleton.animate_frame_s": t("skeleton.animate_frame").total_s,
    }


# The run ------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    fingerprint: dict
    errors: list[str]
    spans: list[Span]

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}})


LAYER_UNITS = {"_s": "s", "_calls": "count", "_ratio": "ratio", "_per_tx": "us",
               "_per_reading": "us", "bytes_written": "bytes"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 size: Size | None = None, setup_s: float | None = None) -> Result:
    """Repeat the workload's operation for about ``seconds`` of wall time.

    It stops before an operation that would end past ``seconds``, judged by
    the last one, but always runs one. A traced run alternates untraced and
    traced operations, so that both see the same machine state and their
    difference is the tracing overhead. Every repetition must leave the
    same fingerprint.
    """
    from wearsim.cli import main

    size = size or FULL[workload]
    plan, setup = timed(lambda: prepare(workload, seed, size), SETUP_SAMPLE_EVERY_S)
    setup = setup if setup_s is None else setup_s

    untraced: list[Rep] = []
    traced_reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        untraced.append(run_once(plan, main))
        if traced:
            traced_reps.append(run_once(plan, main, Tracer()))
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    shutil.rmtree(plan.root, ignore_errors=True)

    reps = traced_reps + untraced
    reference = reps[0].fingerprint
    errors = [e for r in reps for e in r.errors]
    failed = sum(r.failed for r in reps)
    for r in reps[1:]:
        drift = sorted(k for k in reference
                       if k in r.fingerprint and r.fingerprint[k] != reference[k])
        if drift:
            errors.append(f"fingerprint differs between repetitions: {drift}")
            failed += 1

    def median(reps_: list[Rep], key: str) -> float:
        return statistics.median(e2e_values(plan, r)[key] for r in reps_)

    if traced:
        op_untraced = median(untraced, "op_s")
        op_traced = median(traced_reps, "op_s")
        metrics = {}
        for name in PER_LAYER:
            if name in ("cli.analyze_s", "cli.compare_s"):
                value = median(untraced, name.split(".")[1])
            elif name == "trace.overhead_s":
                value = op_traced - op_untraced
            elif name == "trace.overhead_ratio":
                value = op_traced / op_untraced - 1.0
            else:
                value = statistics.median(r.layers[name] for r in traced_reps)
            metrics[name] = (value, layer_unit(name))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup, "s"),
                   "seeds_per_ref_s": (median(untraced, "seeds_per_ref_s"), "seeds/s"),
                   "sim_s_per_ref_s": (median(untraced, "sim_s_per_ref_s"), "ratio"),
                   "peak_rss_mb": (rss_mb, "MB")}
    spans = traced_reps[0].spans if traced else []
    return Result(failed == 0, sum(r.attempted for r in reps), failed, metrics,
                  reference, errors, spans)


def setup_probe(workload: str, seed: int) -> float:
    """Import wearsim and generate the inputs, timed from a fresh interpreter."""
    def setup() -> None:
        import wearsim.cli  # noqa: F401
        prepare(workload, seed, FULL[workload], WORK / "setup")
    return timed(setup, SETUP_SAMPLE_EVERY_S)[1]


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    shutil.rmtree(WORK / "setup", ignore_errors=True)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    sys.path.insert(0, str(SRC))
    if not (SRC / "wearsim" / "cli.py").is_file():
        print(f"error: no wearsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    import wearsim.cli  # noqa: F401  (warm the bytecode cache before timing set-up)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              setup_s=setup_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        write_spans(result.spans, SPANS)
    print(f"fingerprint {json.dumps(result.fingerprint, sort_keys=True)}")
    for err in result.errors:
        print(f"error: {err}")
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
