"""The qnull benchmark.

    python3 perfbench/run.py --workload {grid,lattice,elim} --seed N --seconds S --trace {0,1}

Run from the root of a qnull checkout; the program is used from ``src/``
as it is, nothing is built or installed.  Every workload is a closed loop: one
single-threaded client process issues one call at a time and checks each
result against a reference.  The last line of stdout is the result record

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the ``end_to_end`` metrics of BENCHMARK.json when --trace is 0 and its
``per_layer`` metrics when --trace is 1.  The line before it stamps the run
(nproc, Python and numpy versions, commit) and gives failed_frac and per-group
times; the same record is written under perfbench/out/.

--negative-control makes the correctness check see wrong results (see
workloads.py); such a run must report failed > 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("grid", "lattice", "elim")

# setup_s is the median over fresh processes, each set-up time scaled to
# reference speed by the speed probes of its process: the measuring process, and before
# it processes that only set up, at least SETUP_PROCS_MIN of them and more (up
# to SETUP_PROCS_MAX) until SETUP_SAMPLE_S of set-up time has been sampled.  A
# short set-up is noisy and cheap, so it gets more samples.
SETUP_PROCS_MIN = 2
SETUP_PROCS_MAX = 8
SETUP_SAMPLE_S = 2.0
# Every run must end within 180 s; leave room for the parent's own work.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[dict, float, object]:
    """Run worker.py with args; (its result, monotonic spawn time, its rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), t_spawn, rusage


def commit() -> str | None:
    """HEAD when the checkout is itself a git work tree (not one of its parents)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qnull")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def measure(args, names: list[str], deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.negative_control:
        common.append("--negative-control")
    if args.trace:
        res, _, _ = spawn(common + ["--trace", "1"], deadline)
        values = {**res["layers"], **res["extra"]}
        metrics = {n: values.get(n, 0.0) for n in names}
        info = {"wall_s": res["wall_s"], "traced_wall_s": res["traced_wall_s"]}
    else:
        setups: list[float] = []  # each scaled by its process's speed probes
        raw_setups: list[float] = []

        def setup_time(res: dict, t_spawn: float) -> None:
            raw_setups.append(res["ready"] - t_spawn - res["setup_probes_spent_s"])
            setups.append(raw_setups[-1] * res["setup_scale"])

        while len(setups) < SETUP_PROCS_MIN or (
            len(setups) < SETUP_PROCS_MAX and sum(setups) < SETUP_SAMPLE_S
        ):
            setup_time(*spawn(common + ["--setup-only"], deadline)[:2])
        res, t_spawn, rusage = spawn(common, deadline)
        setup_time(res, t_spawn)
        # wait4 reports the larger of the worker's peak and its reaped children's,
        # so the grid's CLI subprocess is included.
        values = {
            "wall_s": res["wall_s"],
            "cpu_s": res["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rusage.ru_maxrss / 1024,
        }
        metrics = {n: values[n] for n in names}
        info = {
            "raw_wall_s": res["raw_wall_s"],
            "raw_cpu_s": res["raw_cpu_s"],
            "setup_samples_s": setups,
            "raw_setup_samples_s": raw_setups,
            "speed_probes": res["probes"],
            "ops": res["ops"],
            "groups": res["groups"],
        }
    info.update(attempted=res["attempted"], failed=res["failed"], numpy=res["numpy"])
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "qnull", "__init__.py")):
        print("perfbench: src/qnull not found; run from the root of a qnull checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    try:
        metrics, info = measure(args, names, deadline)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared}
    attempted, failed = info.pop("attempted"), info.pop("failed")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "negative_control": args.negative_control,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": info.pop("numpy"),
        "commit": commit(),
        "src_sha256": source_digest(),
        "failed_frac": failed / attempted,
        **info,
    }
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"stamp": stamp, **record}, fh, indent=1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
