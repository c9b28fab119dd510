"""Command line front end.

Exit codes are stable so scripts can branch on failure class:

    0  success
    2  configuration problem (bad scenario or --seed, a --seeds run past seed
       2**63 - 1, unknown joint, a joint the recording's placement does not
       cover, a name repeated in a flag's list, bad flag combo)
    3  I/O or parse failure (missing file, malformed CSV/JSON/YAML, an int
       cell or sensor key other than str() of an int, or a key outside 1..12,
       a session sidecar of the wrong shape or one whose q_calib lacks a
       placement sensor, a file that is not UTF-8, a non-finite angle, a
       recording timestamp outside -2**63..2**63 - 1)
    4  validation failure (inconsistent recording, a frame of a sensor not in
       the placement, angle CSV timestamps not increasing, disjoint series,
       a first series with no sample inside the overlap, an MAE or Pearson
       result that overflows)
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from .bounds import INT_LIMIT
# read_recording is not called here, but perfbench's span table resolves
# cli.read_recording: a traced run raises KeyError without the name.
from .pipeline import (ANGLE_CSV, RECORDING_CSV, AngleSeries, CsvSchema, ParseError,
                       RecordingColumns, ValidationError, file_slug, joint_angle_series, mae,
                       pearson, rate_series, read_angles, read_recording, write_csv,
                       write_json)
from .protocol import BLE_MAX_SENSORS, ConfigError
from .runner import execute, load_session, run_scenario, scenario_field
from .scenario import load_scenario, parse_scenario
from .skeleton import JOINTS, CalibrationRecord, SensorPlacement, Skeleton

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

RATES_CSV = CsvSchema(("sensor_id", int), ("time_us", int), ("rate_hz", float))
BENCH_CSV = CsvSchema(("protocol", str), ("seed", int), ("sensor_id", str),
                      ("recorded", int), ("pdr", float), ("mean_rate_hz", float),
                      ("min_window_rate_hz", float), ("host_dropped", int))


def cmd_simulate(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario, seed=args.seed)
    m = run_scenario(sc, args.out).metrics
    frames = sum(st["recorded"] for st in m["per_sensor"].values())
    print(f"wrote {args.out} (recording.csv, session_trace.csv, radio_trace.csv, "
          f"metrics.json, session.json, ground truth)")
    print(f"protocol {m['protocol']}  seed {sc.seed}  duration {m['duration_s']:g} s  "
          f"frames {frames}  hops {m['hop_count']}  "
          f"resyncs {m['resync_count']}")
    for sid, st in sorted(m["per_sensor"].items(), key=lambda kv: int(kv[0])):
        print(f"  sensor {sid}: {st['recorded']} frames  "
              f"mean {st['mean_rate_hz']:.2f} Hz  "
              f"min-window {st['min_window_rate_hz']:.1f} Hz  "
              f"pdr {st['pdr']:.3f}  host-dropped {st['host_dropped']}")
    return EXIT_OK


def _names(value: str, flag: str) -> list[str]:
    """The names of a comma-separated flag value: at least one, none twice."""
    names = [s.strip() for s in value.split(",") if s.strip()]
    if not names:
        raise ConfigError(f"{flag} lists no names")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{flag} repeats {name!r}")
    return names


def _require_joint(label: str, placement: SensorPlacement | None = None) -> None:
    """Refuse a joint label that is unknown or that placement, when given,
    does not cover."""
    if label not in JOINTS:
        raise ConfigError(f"unknown joint {label!r}; known joints: "
                          f"{', '.join(sorted(JOINTS))}")
    if placement is not None:
        try:
            placement.joint_sensors(JOINTS[label])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _recording(recording: Path, session: str | None, flag: str
               ) -> tuple[RecordingColumns, CalibrationRecord, dict]:
    """The recording's columns, each of a sensor in the sidecar's placement,
    and the sidecar: the session.json given by flag, or else the one next to it."""
    columns = RecordingColumns.read(recording)
    path = Path(session) if session else recording.with_name("session.json")
    if not path.exists():
        raise ConfigError(f"recording {recording} needs a session sidecar "
                          f"(none at {path}); pass {flag}")
    calib, meta = load_session(path)
    bones = calib.placement.bones
    if outside := [s for s in columns.first if s not in bones]:
        sensor = min(outside, key=columns.first.__getitem__)
        raise ValidationError(f"{recording} line {columns.first[sensor] + 2}: sensor {sensor} "
                              f"is not in placement {calib.placement.name!r}")
    return columns, calib, meta


def cmd_analyze(args: argparse.Namespace) -> int:
    recording, calib, meta = _recording(Path(args.recording), args.session, "--session")

    if args.joints is not None:
        labels = _names(args.joints, "--joints")
    else:
        labels = list(meta.get("joints", []))
    if not labels:
        raise ConfigError("nothing to analyze: the session lists no joints; pass --joints")
    for label in labels:
        _require_joint(label, calib.placement)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    skel = Skeleton.default()
    summary: dict = {"joints": {}, "rates": {}}
    poses: dict = {}  # each sensor's poses, shared by the joints it spans
    for label in labels:
        series = joint_angle_series(recording, calib, skel, JOINTS[label], poses)
        write_csv(out / f"angles_{file_slug(label)}.csv", ANGLE_CSV, series.points)
        values = [v for _, v in series.points]
        lo, hi = min(values), max(values)
        mean = math.fsum(values) / len(values)
        summary["joints"][label] = {
            "count": len(values), "min_deg": lo, "max_deg": hi, "mean_deg": mean,
            "range_deg": hi - lo, "zero_range": hi - lo <= 1e-9,
        }
        flag = "  [zero range]" if hi - lo <= 1e-9 else ""
        print(f"{label}: n={len(values)}  min {lo:.3f}  max {hi:.3f}  "
              f"mean {mean:.3f} deg{flag}")

    end_us = int(meta["duration_s"] * 1e6) if "duration_s" in meta else None
    rates = sorted(rate_series(recording, end_us=end_us).items())
    for sensor, pts in rates:
        stats = {"windows": len(pts)}
        if pts:
            vals = [hz for _, hz in pts]
            stats.update(min_hz=min(vals), max_hz=max(vals),
                         mean_hz=math.fsum(vals) / len(vals))
            print(f"sensor {sensor}: rate mean {stats['mean_hz']:.2f} Hz  "
                  f"min {stats['min_hz']:.1f}  max {stats['max_hz']:.1f}")
        summary["rates"][str(sensor)] = stats
    write_csv(out / "rates.csv", RATES_CSV,
              ((sensor, t, hz) for sensor, pts in rates for t, hz in pts))
    write_json(out / "analysis.json", summary)
    return EXIT_OK


def _angle_series_from(path: Path, joint: str | None,
                       session: str | None) -> AngleSeries:
    """An angle series from either a recording or a two-column export."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first != RECORDING_CSV.header:
        return read_angles(path)
    recording, calib, meta = _recording(path, session, "--session-a/--session-b")
    label = joint
    if label is None:
        joints = meta.get("joints", [])
        if len(joints) != 1:
            raise ConfigError(f"recording {path} covers joints {joints}; pick one "
                              f"with --joint")
        label = joints[0]
    _require_joint(label, calib.placement)
    return joint_angle_series(recording, calib, Skeleton.default(), JOINTS[label])


def cmd_compare(args: argparse.Namespace) -> int:
    if args.joint is not None:
        _require_joint(args.joint)  # the report names it, whatever the inputs
    series_a = _angle_series_from(Path(args.a), args.joint, args.session_a)
    series_b = _angle_series_from(Path(args.b), args.joint, args.session_b)
    err = mae(series_a, series_b)
    corr = pearson(series_a, series_b)
    print(f"mae_deg {err:.6g}")
    print(f"pearson {corr:.6g}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = {"a": str(args.a), "b": str(args.b), "joint": args.joint,
                  "mae_deg": err, "pearson": corr}
        write_json(out / "comparison.json", report)
    return EXIT_OK


def cmd_protocol_bench(args: argparse.Namespace) -> int:
    protocols = _names(args.protocols, "--protocols")
    for proto in protocols:
        if proto not in ("cw", "ble-baseline"):
            raise ConfigError(f"unknown protocol {proto!r}; choose cw or ble-baseline")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")

    # Parse the file once; each seed re-resolves the mapping, because the
    # seed drives every derived stream (noise, offsets, interferers).
    cfg = yaml.safe_load(Path(args.scenario).read_text(encoding="utf-8"))
    base = parse_scenario(cfg, seed=args.seed)
    last = base.seed + args.seeds - 1
    if last > INT_LIMIT:
        given = "--seed" if args.seed is not None else "session.seed"
        raise ConfigError(f"--seeds {args.seeds} from {given} {base.seed} reaches seed {last}, "
                          f"beyond 2**63 - 1")
    if "ble-baseline" in protocols and len(base.roster) > BLE_MAX_SENSORS:
        raise ConfigError(f"ble-baseline supports at most {BLE_MAX_SENSORS} sensors; "
                          f"scenario places {len(base.roster)}")

    rows = []
    per_run: dict[str, dict] = {p: {} for p in protocols}
    for i in range(args.seeds):
        seed = base.seed + i
        seed_sc = parse_scenario(cfg, seed=seed)
        # Every protocol of a seed meets the same interferers.
        field = scenario_field(seed_sc)
        for proto in protocols:
            m = execute(replace(seed_sc, protocol_kind=proto), field).metrics
            per_run[proto][str(seed)] = {
                "hop_count": m["hop_count"], "resync_count": m["resync_count"],
                "per_sensor": m["per_sensor"],
            }
            for sid, st in sorted(m["per_sensor"].items(), key=lambda kv: int(kv[0])):
                rows.append((proto, seed, sid, st["recorded"], st["pdr"],
                             st["mean_rate_hz"], st["min_window_rate_hz"],
                             st["host_dropped"]))

    report: dict = {"scenario": str(args.scenario), "base_seed": base.seed,
                    "seeds": args.seeds, "protocols": protocols,
                    "per_run": per_run,
                    "hop_count_total": {p: sum(r["hop_count"]
                                               for r in per_run[p].values())
                                        for p in protocols}}
    if "cw" in protocols and "ble-baseline" in protocols:
        dominate = starved = solid = 0
        for i in range(args.seeds):
            key = str(base.seed + i)
            cw = per_run["cw"][key]["per_sensor"]
            ble = per_run["ble-baseline"][key]["per_sensor"]
            if all(cw[k]["mean_rate_hz"] > ble[k]["mean_rate_hz"] for k in cw):
                dominate += 1
            if any(ble[k]["min_window_rate_hz"] < 10.0 for k in ble):
                starved += 1
            if all(cw[k]["min_window_rate_hz"] >= 40.0 for k in cw):
                solid += 1
        report["ordering"] = {
            "cw_mean_dominates_fraction": dominate / args.seeds,
            "ble_min_window_below_10_fraction": starved / args.seeds,
            "cw_min_window_at_least_40_fraction": solid / args.seeds,
        }
        print(f"cw mean rate beats ble-baseline on every sensor in "
              f"{dominate}/{args.seeds} seeds")
        print(f"ble-baseline min window < 10 Hz somewhere in {starved}/{args.seeds} seeds")
        print(f"cw min window >= 40 Hz everywhere in {solid}/{args.seeds} seeds")
    for proto in protocols:
        print(f"{proto}: total hops {report['hop_count_total'][proto]}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "bench.csv", BENCH_CSV, rows)
    write_json(out / "bench.json", report)
    print(f"wrote {out / 'bench.json'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wearsim",
        description="Deterministic simulator for a multi-sensor wearable "
                    "motion-capture system and its 2.4 GHz link")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sim = sub.add_parser("simulate", help="run a scenario, write recording + traces")
    sim.add_argument("--scenario", required=True, help="scenario YAML file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the scenario's session seed")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze",
                         help="joint angles and delivery rates from a recording")
    ana.add_argument("--recording", required=True, help="recording.csv path")
    ana.add_argument("--session", default=None,
                     help="session.json sidecar (default: next to the recording)")
    ana.add_argument("--joints", default=None,
                     help="comma-separated joint labels (default: session's joints)")
    ana.add_argument("--out", required=True, help="output directory")
    ana.set_defaults(func=cmd_analyze)

    cmp_ = sub.add_parser("compare",
                          help="MAE and Pearson correlation of two angle series")
    cmp_.add_argument("a", help="recording.csv or a time_us,angle_deg csv")
    cmp_.add_argument("b", help="recording.csv or a time_us,angle_deg csv")
    cmp_.add_argument("--joint", default=None,
                      help="joint label, needed when an input is a recording "
                           "covering several joints")
    cmp_.add_argument("--session-a", default=None, help="sidecar for input a")
    cmp_.add_argument("--session-b", default=None, help="sidecar for input b")
    cmp_.add_argument("--out", default=None, help="optional report directory")
    cmp_.set_defaults(func=cmd_compare)

    bench = sub.add_parser("protocol-bench",
                           help="run a scenario across seeds and protocols")
    bench.add_argument("--scenario", required=True, help="scenario YAML file")
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--protocols", default="cw,ble-baseline",
                       help="comma-separated subset of: cw, ble-baseline")
    bench.add_argument("--seeds", type=int, default=5, help="number of seeds to run")
    bench.add_argument("--seed", type=int, default=None,
                       help="base seed (default: the scenario's)")
    bench.set_defaults(func=cmd_protocol_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, yaml.YAMLError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
