"""One benchmark process: set a workload up, then time it or trace it.

Started by run.py in a fresh interpreter, so that set-up time and peak memory
belong to one run.  Prints one JSON object as its last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import speed
from workloads import CRITERIA, RAISED, WORKLOADS, probe_ops, render_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


# Speed probes (see speed.py) are taken every PROBE_EVERY_CPU_S of the
# worker's CPU time, and BRACKET_PROBES of them before set-up, after set-up and
# after the last operation.
PROBE_EVERY_CPU_S = 0.25
BRACKET_PROBES = 2


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_op(op, probes: speed.Probes | None) -> tuple[object, float, float, float, float]:
    """(summary, start, end, wall s, cpu s) of one call.

    Wall and CPU time leave out the speed probes taken during the call; the
    CPU time of reaped child processes counts.  The summary is RAISED when the
    call raised: a failed operation is counted, never fatal.
    """
    spent = list(probes.spent) if probes else [0.0, 0.0]
    w0, c0, k0 = time.perf_counter(), time.process_time(), _child_cpu()
    try:
        result = op.run()
    except Exception as e:
        print(f"perfbench: {op.name}: {type(e).__name__}: {e}", file=sys.stderr)
        result = RAISED
    w1, c1, k1 = time.perf_counter(), time.process_time(), _child_cpu()
    if probes:
        spent = [probes.spent[0] - spent[0], probes.spent[1] - spent[1]]
    summary = RAISED if result is RAISED else op.summarize(result)
    return summary, w0, w1, w1 - w0 - spent[0], c1 - c0 + k1 - k0 - spent[1]


def timed(ops, seconds: float, probes: speed.Probes | None = None) -> dict:
    """One full pass, then further calls in the same order until `seconds` have passed.

    raw_wall_s and raw_cpu_s are one pass: the sum over operations of each
    one's median, less the probes taken inside it.  With `probes` running,
    wall_s and cpu_s are the same at reference speed.
    """
    samples: dict[str, list[tuple[float, float, float, float]]] = {op.name: [] for op in ops}
    summaries = []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        i += 1
        summary, t0, t1, wall, cpu = run_op(op, probes)
        a, f = op.verdict(summary)
        attempted += a
        failed += f
        samples[op.name].append((t0, t1, wall, cpu))
        if i <= len(ops):
            summaries.append(summary)
    if probes:
        for _ in range(BRACKET_PROBES):
            probes.take()

    per_op = {}
    groups: dict[str, float] = {}
    for op in ops:
        runs = samples[op.name]
        factors = [probes.scale(t0, t1) if probes else 1.0 for t0, t1, _, _ in runs]
        per_op[op.name] = {
            "wall_s": statistics.median(r[2] * f for r, f in zip(runs, factors)),
            "cpu_s": statistics.median(r[3] * f for r, f in zip(runs, factors)),
            "raw_wall_s": statistics.median(r[2] for r in runs),
            "raw_cpu_s": statistics.median(r[3] for r in runs),
            "samples": len(runs),
        }
        groups[op.group] = groups.get(op.group, 0.0) + per_op[op.name]["wall_s"]
    return {
        **{k: sum(v[k] for v in per_op.values())
           for k in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s")},
        "attempted": attempted,
        "failed": failed,
        "ops": per_op,
        "groups": groups,
        "summaries": summaries,
    }


def traced(wl, tracer, seed: int, negative_control: bool) -> dict:
    """Set-up and one pass with tracing on, one pass with it off; results must agree.

    Per-layer times are raw seconds, not scaled to reference speed.
    """
    tracer.install()
    ops = wl.setup(seed, negative_control)
    probe_rows = probe_ops() if wl.probe else []
    probe = timed(probe_rows, 0)
    tracer.uninstall()
    off = timed(ops, 0)
    tracer.install()
    on = timed(ops, 0)
    tracer.uninstall()

    # The criteria's rows: the whole grid on `grid`, one probe row each elsewhere.
    row_ops, row_run = (probe_rows, probe) if wl.probe else (ops, on)
    criteria = [f"c{i}" for i in range(1, len(CRITERIA) + 1)]
    extra = {f"reproduce.{c}.s": 0.0 for c in criteria}
    records = []
    for op, summary in zip(row_ops, row_run["summaries"]):
        if op.group in criteria:
            extra[f"reproduce.{op.group}.s"] += row_run["ops"][op.name]["raw_wall_s"]
            if summary is not RAISED:
                records += summary
    extra["reproduce.rows"] = len(records)
    extra["reproduce.rows_fail"] = sum(r["status"] == "FAIL" for r in records)
    if not wl.probe:
        extra["cli.stdout_bytes"] = len(render_stdout(records, extra["reproduce.rows_fail"]))
    extra["trace.overhead_s"] = on["raw_wall_s"] - off["raw_wall_s"]
    same = on["summaries"] == off["summaries"]
    return {
        "wall_s": off["raw_wall_s"],
        "traced_wall_s": on["raw_wall_s"],
        "attempted": probe["attempted"] + off["attempted"] + on["attempted"] + 1,
        "failed": probe["failed"] + off["failed"] + on["failed"] + int(not same),
        "extra": extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args(argv)

    if not args.trace:  # a traced run's per-layer times are not scaled
        probes = speed.Probes()
        for _ in range(BRACKET_PROBES):
            probes.take()
        probes.start(PROBE_EVERY_CPU_S)
    t0 = time.perf_counter()
    import qnull.cli  # noqa: F401  (imports every module)

    startup = time.perf_counter() - t0
    import numpy

    wl = WORKLOADS[args.workload]
    out: dict = {"numpy": numpy.__version__}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        out.update(traced(wl, tracer, args.seed, args.negative_control))
        out["extra"]["cli.startup.s"] = startup
        out["layers"] = {
            f"{layer}.{field}": v for layer, st in tracer.stats.items() for field, v in st.items()
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        ops = wl.setup(args.seed, args.negative_control)
        out["ready"] = time.monotonic()
        out["setup_probes_spent_s"] = probes.spent[0]
        for _ in range(BRACKET_PROBES):
            probes.take()
        # run.py scales the set-up time by the probes up to here.
        out["setup_scale"] = speed.REF_PROBE_S / statistics.fmean(w for _, w, _ in probes.samples)
        if not args.setup_only:
            out.update(timed(ops, args.seconds, probes))
            del out["summaries"]
        probes.stop()
        walls = [w for _, w, _ in probes.samples]
        out["probes"] = {"count": len(walls), "median_wall_s": statistics.median(walls),
                         "min_wall_s": min(walls), "max_wall_s": max(walls)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
