"""Benchmark of the taildep package.

Run from the repository root:

    python3 perfbench/run.py --workload report_daily --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client in one process runs the workload's op in a closed loop for
``--seconds`` (at least three ops), checks every op's outputs, and prints a
details line and then, as the last line, the result object.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` splits the time between an
untraced and a traced half and reports the per-layer metrics.  ``--workload
all`` runs every workload in turn, each in its own process, and prints every
metric by name with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("report_daily", "report_wide", "envelope_sweep")
OUT = Path("perfbench") / "out"
MIN_OPS = 3  # per run; each half of a traced run takes at least 2
SETUP_SAMPLES = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import taildep, taildep.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import taildep and taildep.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)  # writes bytecode
    times = [float(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                                  timeout=60).stdout) for _ in range(SETUP_SAMPLES)]
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np
    from workloads import tree_digest

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": tree_digest(ROOT / "src" / "taildep", "*.py"),
        "seed": seed,
    }


def run_ops(wl, tracer, seconds: float, min_ops: int, first_op: int, traced: bool) -> list[dict]:
    """Closed loop: the next op starts when the previous one has been checked,
    and only if an op as long as the last one still ends within ``seconds``
    (or fewer than ``min_ops`` ops have run)."""
    records = []
    t_end = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() + records[-1]["seconds"] <= t_end:
        wl.prepare()
        tracer.op = first_op + len(records) if traced else None
        dt = None
        t0 = time.perf_counter()
        try:
            result = wl.run(tracer)
            dt = time.perf_counter() - t0
            tracer.op = None
            problems, digest = wl.check(result)
        except Exception:  # a failed op is counted and the run goes on
            dt = time.perf_counter() - t0 if dt is None else dt
            tracer.op = None
            problems, digest = [traceback.format_exc()], ""
        records.append({"seconds": dt, "problems": problems, "digest": digest})
    return records


def tail(durations: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it, if the run has one."""
    n = len(durations)
    if n < 11:
        return None
    return {"value": sorted(durations)[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def run_workload(args) -> int:
    if not (ROOT / "src" / "taildep" / "__init__.py").is_file():
        print(f"error: no taildep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # One client, no extra threads: on a 2-vCPU box an idle-spinning BLAS
    # helper thread slowed the LP's own thread and made timings noisy.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import taildep

    if Path(taildep.__file__).resolve().parent != ROOT / "src" / "taildep":
        print(f"error: imported taildep from {taildep.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s = measure_setup() if args.trace == 0 else None

    tracer = tracing.Tracer()
    sink = io.StringIO()  # the report command prints a line per run
    with contextlib.redirect_stdout(sink):
        warm = workloads.make(args.workload, args.seed, work / "warm", True)
        warm.prepare()
        warm.run(tracer)  # first calls load lazily imported code
        wl = workloads.make(args.workload, args.seed, work, args.tiny)
        share, min_ops = (args.seconds, MIN_OPS) if args.trace == 0 else (args.seconds / 2, 2)
        plain = run_ops(wl, tracer, share, min_ops, 0, False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if args.trace:
            tracer.install()
            try:
                traced = run_ops(wl, tracer, share, min_ops, len(plain), True)
            finally:
                tracer.uninstall()
    probe = workloads.known_defect_probe(args.seed, work, args.tiny)
    shutil.rmtree(work, ignore_errors=True)

    records = plain + traced
    digest = next((rec["digest"] for rec in records if not rec["problems"]), "")
    for rec in records:
        if rec["digest"] != digest and not rec["problems"]:
            rec["problems"].append(f"output digest {rec['digest']} differs from the first good op's {digest}")
    failed = sum(1 for rec in records if rec["problems"])
    for rec in records:
        for problem in rec["problems"][:3]:
            print(f"op failed: {problem}", file=sys.stderr)

    durations = [rec["seconds"] for rec in plain]
    p50 = statistics.median(durations)
    items = "windows_per_s" if args.workload.startswith("report") else "queries_per_s"
    details = {
        "workload": args.workload,
        "tiny": args.tiny,
        "env": environment(args.seed),
        "ops": len(records),
        "op_seconds": durations,
        "setup_s": setup_s,
        "op_p50_s": p50,
        "op_tail_s": tail(durations),
        items: wl.items_per_op / p50,
        "items_per_op": wl.items_per_op,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / len(records),
        "output_digest": digest,
        "known_defect_probe": probe,
    }
    unstable = []
    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (p50, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        labels = [f"{m}.{label}" for m in workloads.ENVELOPE_MEASURES for _, label in workloads.SWEEP.grids]
        layer, unstable = tracing.run_metrics(tracer, labels)
        layer["trace.overhead_s"] = statistics.median(rec["seconds"] for rec in traced) - p50
        metrics = {name: (value, tracing.unit(name)) for name, value in layer.items()}
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        details["spans_file"] = spans_file.as_posix()
        details["unstable_counts"] = unstable
        for name in unstable:
            print(f"count {name} differs between traced ops", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and not unstable,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of metrics."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}")
            status = 1
            continue
        details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
        print(f"== {workload}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}  digest={details['output_digest'][:16]}")
        if args.trace == 0:
            tail_s = details["op_tail_s"]
            rows = [("setup_s", details["setup_s"], "s"), ("op_p50_s", details["op_p50_s"], "s")]
            if tail_s:
                rows.append((f"op_tail_s (p{tail_s['percentile']:.0f}, n={tail_s['n']})", tail_s["value"], "s"))
            else:
                rows.append((f"op_tail_s (n/a: {len(details['op_seconds'])} ops)", None, "s"))
            items = "windows_per_s" if workload.startswith("report") else "queries_per_s"
            rows += [(items, details[items], "1/s"), ("peak_rss_mb", details["peak_rss_mb"], "MB"),
                     ("failed_frac", details["failed_frac"], "frac")]
        else:
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        for name, value, unit in rows:
            shown = "-" if value is None else f"{value:.6g}"
            print(f"  {name:<34} {shown:>14} {unit}")
        print(f"  known-defect probe: exit {details['known_defect_probe']['exit']}: "
              f"{details['known_defect_probe']['stderr']}")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
