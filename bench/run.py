"""Benchmark of marlift's verified chart points, end to end and per layer.

    python3 bench/run.py --workload shift-lifts --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

One process, one thread, closed loop: each operation starts when the
previous one ends. The run sets up several times, then repeats whole rounds
of its workload until `--seconds` have passed, checking every output. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
`--workload all` runs each workload in turn in its own process.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 11
NAMES = ("shift-lifts", "explicit-lifts", "support-routes", "cli-roundtrip")


def _fresh_workloads():
    """Import marlift and the workload module anew, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "marlift" or m.startswith("marlift.") or m == "workloads"]:
        del sys.modules[name]
    import workloads
    return workloads


def _setup(name, cases, out_dir):
    """Median of several set-ups: importing marlift, building the catalog
    entries and constructing the lifts of the first round."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mod = _fresh_workloads()
        workload = mod.WORKLOADS[name](out_dir)
        for case in cases:
            workload.build(case)
        times.append(time.perf_counter() - t0)
    import marlift
    if Path(marlift.__file__).resolve().parent != SRC / "marlift":
        raise SystemExit(f"marlift imported from {marlift.__file__}, not {SRC}")
    return workload, statistics.median(times)


def run_one(args):
    sys.path.insert(0, str(SRC))  # the script's own directory follows
    import tracing

    rng = random.Random(args.seed)
    out_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        mod = _fresh_workloads()
        first = mod.WORKLOADS[args.workload](out_dir).draw(rng)
        workload, setup_s = _setup(args.workload, first, out_dir)
        tracer = tracing.Tracer()
        if args.trace:
            import marlift
            tracer.install(marlift)

        rounds, cases = [], first
        deadline = time.perf_counter() + args.seconds
        while True:
            rounds.append(workload.run(cases, tracer))
            if time.perf_counter() >= deadline:
                break
            cases = workload.draw(rng)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.failures]
    for op in failed:
        known = f" [known fault: {op.known_fault}]" if op.known_fault else ""
        print(f"FAILED {op.name}: {'; '.join(op.failures)}{known}",
              file=sys.stderr)
    # an operation of a known program fault fails every round of every run;
    # `correct` speaks of the others
    correct = not any(not op.known_fault for op in failed)
    round_s = statistics.median(sum(op.seconds for op in r) for r in rounds)
    if args.trace:
        metrics = tracer.per_layer(len(rounds))
        metrics["bench.round_s"] = (round_s, "s")
        for key, label in (("cli.construct_s", "construct"),
                           ("cli.mesh_verify_s", "verify --mesh")):
            metrics[key] = (sum(op.seconds for op in ops if op.name == label)
                            / len(rounds), "s")
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.dump(), indent=1, sort_keys=True))
    else:
        pts = statistics.median(sum(op.points for op in r)
                                / sum(op.verify_s for op in r) for r in rounds)
        metrics = {
            "verify_pts_per_s": (pts, "points/s"),
            "round_s": (round_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(f"{args.workload} rounds={len(rounds)} attempted={len(ops)} "
          f"failed={len(failed)}")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in a process of its own, one after the other."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
