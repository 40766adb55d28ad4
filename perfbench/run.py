"""spanqa benchmark: one workload per process, inputs made from --seed.

    python3 perfbench/run.py --workload overfit_fixture --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root. With --trace 0 the last stdout line is a JSON
object whose metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, measured by wrappers around the
program's public functions, plus the tracing overhead against an untraced
run of the same units. `--workload all` runs every workload in its own
process, one after another. `--out FILE` appends a full record (metrics,
notes, checks, machine facts) to a JSON-lines file for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
NPROC = len(os.sched_getaffinity(0))

# BLAS threads must be fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
if not os.path.isfile(os.path.join(ROOT, "src", "spanqa", "__init__.py")):
    sys.exit(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'spanqa')}")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports numpy and spanqa)
from tracing import Tracer  # noqa: E402


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def machine_facts() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _declared_metrics(trace: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args) -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = workloads.Run(seed=args.seed, seconds=args.seconds, workdir=WORKDIR,
                        tracer=tracer)
    workloads.WORKLOADS[args.workload](run)
    run.finish_setup()
    run.metric("peak_rss_mib", _peak_rss_mib(), "MiB")
    machine = machine_facts()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    for name, ok, detail in run.checks:
        print(f"check    {'ok  ' if ok else 'FAIL'} {name} ({detail})")
    if tracer is not None:
        layer = tracer.layer_metrics(run.overhead_pct)
        for line in tracer.table(run.units):
            print("trace    " + line)
        span_file = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(span_file, workload=args.workload, seed=args.seed,
                     units=run.units, overhead_pct=run.overhead_pct)
        print(f"trace    spans written to {os.path.relpath(span_file, ROOT)}; "
              f"overhead {run.overhead_pct:+.1f}% against untraced units")
        reported = layer
        run.note("trace.units", run.units, "count")
    else:
        reported = run.metrics
    for name, (value, unit) in {**reported, **run.notes}.items():
        print(f"metric   {name:<34} {value:>14.6g} {unit}")
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"metric   {'failed_share':<34} {share:>14.6g} ratio "
          f"({run.failed}/{run.attempted})")

    declared = _declared_metrics(bool(args.trace))
    missing = [name for name in declared if name not in reported]
    if missing:
        print(f"check    FAIL metrics not measured: {', '.join(missing)}")
    correct = (not missing and run.failed == 0 and run.attempted > 0
               and all(ok for _, ok, _ in run.checks))
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed,
              "metrics": {name: {"value": reported[name][0], "unit": reported[name][1]}
                          for name in declared if name in reported}}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "machine": machine,
                  **result, "notes": {k: v for k, (v, _) in run.notes.items()},
                  "checks": run.checks}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", os.path.abspath(args.out)]
        done = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON record to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
