"""annealab benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload sweep-sv --seed 0 --seconds 28 --trace 0

Run it from a source checkout: the package is imported from the checkout's
`src/`. Every repetition runs in a fresh process, as every CLI invocation
does: it imports the program, builds the inputs (set-up time) and makes the
timed protocol call. Run-to-run differences that come with the process
(placement, memory layout) are then spread over the repetitions instead of
fixed for the run. While the protocol call runs, the process also times a
short slice of a fixed reference loop four times a second (reference.py;
the workload names the kind of slice). The timed metrics are the call's
wall time, less the slices, as a multiple of the median slice time
(`wall_rel`, unit `ref`) and the work done per slice time (`work_per_ref`),
which cancels most of a shared host's speed drift.
The raw `wall_s`, `work_per_s` and slice time are printed beside them. The
traced repetition takes no slices. With `--trace 0` repetitions continue
until `--seconds` is spent and the end-to-end metrics are their medians.
With `--trace 1` one untraced repetition is followed by one traced
repetition, which gives the per-layer metrics, the counter cross-checks and
the tracing overhead.

The parent checks every repetition's output files. Human-readable lines go
to stdout first; the last line is one JSON object {"correct", "attempted",
"failed", "metrics"}. Outputs, the run summary (`result.json`) and the spans
go under `.bench_out/<workload>/`. `--write-golden` re-records the default
seed's reference outputs in golden.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
OUT = Path(".bench_out")
REP_TIMEOUT_S = 150
WORKERS_ENV = "ANNEALAB_WORKERS"
THREAD_ENVS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def import_program() -> None:
    """Import annealab (with its CLI) from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import annealab
        import annealab.cli  # noqa: F401
    except ImportError as err:
        sys.exit(f"error: cannot import annealab from {src}: {err}")
    if src not in Path(annealab.__file__).resolve().parents:
        sys.exit(f"error: annealab imported from {annealab.__file__}, not from {src}")


def cap_threads() -> None:
    """Keep BLAS threads at or below the usable CPUs (set before numpy loads)."""
    cpus = len(os.sched_getaffinity(0))
    for name in THREAD_ENVS:
        if name in os.environ and os.environ[name].isdigit() and int(os.environ[name]) > cpus:
            os.environ[name] = str(cpus)


def cache_sizes() -> dict:
    """Data cache sizes in bytes from sysfs; empty where it is not readable."""
    sizes = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            sizes["l1d_bytes" if level == "1" else f"l{level}_bytes"] = \
                int(size.rstrip("KM")) * scale
    return sizes


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process (numpy's and scipy's)."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                out[Path(lib).name] = fn()
                break
    return out


def machine_info(workers_env) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        **{name: os.environ.get(name) for name in THREAD_ENVS},
        # popped before the run, so the batch protocols stay serial
        WORKERS_ENV: workers_env,
        **cache_sizes(),
    }


def child(wl, seed: int, traced: bool, base: Path) -> int:
    """One repetition, in a fresh process: import the program (done by the
    caller), build the inputs, then time the protocol call until its output
    files are written. Timings, peak memory and spans go to rep.json."""
    import reference
    import tracer as tracing

    inputs = wl.prepare(seed, base / "in")
    ready = time.time()
    out = base / "out"
    shutil.rmtree(out, ignore_errors=True)
    tracer = tracing.Tracer() if traced else None
    if traced:
        tracing.install(tracer)
        root = tracer.begin("bench.rep")
    sampler = reference.Sampler(wl.reference)
    with contextlib.nullcontext() if traced else sampler:
        t0 = time.perf_counter()
        wl.run(inputs, out)
        wall = time.perf_counter() - t0 - sampler.spent
    rep = {"ready": ready, "wall_s": wall, "slices": sampler.slices,
           "ref_s": statistics.median(sampler.slices) if sampler.slices else None,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        tracer.end(root)
        rep["layer"] = tracing.layer_metrics(tracer.spans)
        (base / "spans.json").write_text(json.dumps(tracer.to_json()))
    (base / "rep.json").write_text(json.dumps(rep))
    return 0


def spawn(workload: str, seed: int, traced: bool, base: Path) -> dict:
    """Run one repetition in a child process and wait for it. setup_s is the
    time from spawning the child until its inputs were built."""
    (base / "rep.json").unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--child"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"repetition process exited with {proc.returncode}: {last}")
    rep = json.loads((base / "rep.json").read_text())
    rep["setup_s"] = rep["ready"] - start
    return rep


# the end-to-end metrics, then raw times that are printed but not gated
UNITS = {"wall_rel": "ref", "work_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB",
         "wall_s": "s", "work_per_s": "1/s", "ref_s": "s"}
END_TO_END = ("wall_rel", "work_per_ref", "setup_s", "peak_rss_mb")


def measure(wl, args, inputs, golden: dict, base: Path) -> dict:
    """Repeat the workload in fresh processes and check every repetition's
    outputs. Untraced repetitions give the end-to-end samples; with --trace 1
    the second repetition is traced and gives the per-layer metrics."""
    import workloads

    out = base / "out"
    run = {"samples": {k: [] for k in UNITS}, "slices": [], "layer": None, "errors": [],
           "attempted": 0, "failed": 0}
    samples, durations, first_digests = run["samples"], [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and run["attempted"] == 1
        run["attempted"] += 1
        try:
            t0 = time.perf_counter()
            rep = spawn(wl.name, args.seed, traced, base)
            durations.append(time.perf_counter() - t0)
            errors = wl.check(inputs, out, golden, args.seed)
            digests = {n: workloads.digest(out / n) for n in wl.outputs}
            first_digests = first_digests or digests
            if digests != first_digests:
                errors.append("outputs differ from the first repetition's")
            if traced:
                layer = {k: tuple(v) for k, v in rep["layer"].items()}
                layer["experiments.output_bytes"] = (
                    sum((out / n).stat().st_size for n in wl.outputs), "bytes")
                layer["bench.trace_overhead_s"] = (rep["wall_s"] - samples["wall_s"][0], "s")
                errors += wl.cross_check(inputs, out, layer)
                run["layer"] = layer
            else:
                work, wall, ref = wl.work(out), rep["wall_s"], rep["ref_s"]
                samples["wall_rel"].append(wall / ref)
                samples["work_per_ref"].append(work / wall * ref)
                samples["work_per_s"].append(work / wall)
                for k in ("wall_s", "ref_s", "setup_s", "peak_rss_mb"):
                    samples[k].append(rep[k])
                run["slices"].append(rep["slices"])
        except Exception as err:  # a failed repetition is counted, not fatal
            errors = [f"{type(err).__name__}: {err}"]
        if errors:
            run["failed"] += 1
            run["errors"] += [f"repetition {run['attempted']}: {e}" for e in errors]
        if args.trace:
            if run["attempted"] == 2:
                return run
        elif time.perf_counter() + 0.5 * statistics.median(durations or [0.0]) > deadline:
            return run  # start another repetition only if at least half of it fits


def report(wl, args, run: dict, machine: dict, props: dict) -> None:
    """Human-readable lines: environment, workload properties, every metric."""
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("properties " + json.dumps(props, sort_keys=True))
    for name, values in run["samples"].items():
        label = {"work_per_s": f"work_per_s ({wl.work_name})",
                 "work_per_ref": f"work_per_ref ({wl.work_name[:-len('_per_s')]} per ref)",
                 }.get(name, name)
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{label:32s} median {q2:<10.6g} {UNITS[name]:4s} q1 {q1:<10.6g} "
              f"q3 {q3:<10.6g} n={len(values)}")
    print(f"{'failed_ratio':32s} {run['failed'] / run['attempted']:.6g}  "
          f"({run['failed']} of {run['attempted']} repetitions)")
    if run["layer"]:
        print(f"traced minus untraced wall_s: {run['layer']['bench.trace_overhead_s'][0]:+.6g} s")
        for name, (value, unit) in run["layer"].items():
            print(f"  {name:44s} {value:<12.6g} {unit}")
    for e in run["errors"]:
        print(f"FAIL {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true",
                    help="run the default seed once and re-record its reference outputs")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    os.chdir(ROOT)
    workers_env = os.environ.pop(WORKERS_ENV, None)
    cap_threads()
    import_program()
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    base = OUT / wl.name
    if args.child:
        return child(wl, args.seed, bool(args.trace), base)
    shutil.rmtree(base, ignore_errors=True)
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.write_golden:
        out = base / "out"  # the CLI manifest records this path, so keep it
        wl.run(wl.prepare(workloads.DEFAULT_SEED, base / "in"), out)
        golden_all[wl.name] = wl.golden(out)
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
        print(f"re-recorded the reference outputs of {wl.name} in {GOLDEN.name}")
        return 0
    if wl.name not in golden_all:
        print(f"error: {GOLDEN.name} has no reference outputs for {wl.name}", file=sys.stderr)
        return 1

    machine = machine_info(workers_env)
    inputs = wl.prepare(args.seed, base / "in")
    run = measure(wl, args, inputs, golden_all[wl.name], base)
    if not run["samples"]["wall_s"] or (args.trace and run["layer"] is None):
        print("error: no repetition completed: " + "; ".join(run["errors"]), file=sys.stderr)
        return 1
    props = wl.properties(inputs, base / "out", machine)
    report(wl, args, run, machine, props)

    if run["layer"]:
        metrics = run["layer"]
    else:
        metrics = {k: (statistics.median(run["samples"][k]), UNITS[k]) for k in END_TO_END}
    result = {
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                   machine=machine, properties=props, errors=run["errors"],
                   samples=run["samples"], slices=run["slices"])
    (base / "result.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
