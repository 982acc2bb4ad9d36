"""Benchmark of the lastlayer package.

Usage, from the repository root:

    python3 perfbench/run.py --workload experiment|train_fixed|posterior \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics every workload shares (``END_TO_END``); the report
above it adds the workload's own named detail metrics.  With ``--trace 1``
the run measures the workload untraced, then again with every layer wrapped,
and reports the per-layer metrics, writing its span dump under ``perfbench/out/``.  The
exit code is 0 only when every output check passed.  ``--quick`` shrinks
every budget for the smoke test; its figures are not comparable.
"""

import os

# One caller, one BLAS thread: pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# End-to-end metric -> unit; the same metrics on every workload.
END_TO_END = {"setup_s": "s", "round_s": "s", "part_ms.geomean": "ms"}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import lastlayer.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["experiment", "train_fixed", "posterior"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="tiny budgets for the smoke test")
    return parser.parse_args(argv)


def import_seconds():
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lastlayer").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(src_sha):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src_sha,
    }


def end_to_end(outcome, setup_s):
    """The shared end-to-end metrics of one untraced outcome.

    ``round_s`` is the median time of one round of the workload.
    ``part_ms.geomean`` is the geometric mean, over the round's parts, of
    each part's median time per call: every part weighs the same in it,
    however small its share of the round.
    """
    metrics = {"setup_s": setup_s}
    if outcome.unit_times:
        metrics["round_s"] = statistics.median(outcome.unit_times)
    medians = [statistics.median(samples) for samples in outcome.parts.values() if len(samples)]
    if medians and len(medians) == len(outcome.parts):
        metrics["part_ms.geomean"] = statistics.geometric_mean(medians) * 1e3
    return metrics


def print_table(title, metrics, units):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {units[name]}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lastlayer" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    reps = 1 if args.quick else 5

    sys.path.insert(0, str(SRC))
    import lastlayer

    if Path(lastlayer.__file__).resolve().parent != SRC / "lastlayer":
        print(f"error: imported lastlayer from {lastlayer.__file__}", file=sys.stderr)
        return 2
    import loadprobe
    import tracing
    import workloads

    setup, measure, detail_units = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="run-"))
    src_sha = src_digest()
    ctx = workloads.Context(
        seed=args.seed,
        quick=args.quick,
        scratch=scratch,
        digest_store=OUT / "digests.json",
        code_id=src_sha + ("-quick" if args.quick else ""),
    )
    try:
        # Load-corrected like every other timing (see loadprobe.py).
        meter = loadprobe.LoadMeter()
        imports = [meter.timed(import_seconds) for _ in range(reps)]
        setups = [meter.timed(lambda: setup(ctx)) for _ in range(reps)]
        state = setups[-1][0]
        outcomes = [measure(state, args.seconds)]
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                outcomes.append(measure(state, args.seconds, tracer))
    finally:
        shutil.rmtree(scratch)
    # The import is timed inside the fresh interpreter, the set-up here.
    import_times = [child_s / load for child_s, _, load in imports]
    setup_times = [took / load for _, took, load in setups]
    import_s = statistics.median(import_times)
    setup_s = import_s + statistics.median(setup_times)

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    untraced = outcomes[0]
    shared = end_to_end(untraced, setup_s)
    missing = sorted(set(END_TO_END) - set(shared))
    if missing:
        failures.append(f"metrics not measured: {missing}")
    correct = not failures

    env = environment(src_sha)
    print(f"lastlayer benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  setup: import {import_s:.3f} s + workload set-up median of {reps}: "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    print(f"  notes: {json.dumps(untraced.notes, sort_keys=True, default=str)}")

    if args.trace:
        traced = outcomes[1]
        sample_s = [t for st, _, _ in setups for t in st["sample_s"]]
        extra = {
            "flops_bll": tracing.nlml_flops(state["fit_rows"], workloads.SPEC_DIMS),
            "csv_bytes": traced.notes.get("csv_bytes", 0),
            "csv_rows": traced.notes.get("csv_rows", 0),
            "sample_ms": statistics.median(sample_s) * 1e3,
            "overhead_frac": (
                statistics.median(traced.unit_times) / statistics.median(untraced.unit_times) - 1.0
                if traced.unit_times and untraced.unit_times
                else 0.0
            ),
        }
        metrics = tracing.per_layer_metrics(tracer, extra)
        out_units = tracing.PER_LAYER_UNITS
        dump = OUT / f"spans_{args.workload}_seed{args.seed}.json"
        with open(dump, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "fields": ["name", "start_s", "end_s", "parent", "run_id"],
                    "spans": tracer.spans,
                },
                fh,
            )
        print(tracing.layer_table(tracer))
        print(f"  spans written to {dump.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        print_table("end-to-end, untraced", shared, END_TO_END)
    else:
        metrics = shared
        out_units = END_TO_END
    print_table(f"{args.workload} detail, untraced", untraced.detail, detail_units)
    print_table("per-layer (traced)" if args.trace else "end-to-end", metrics, out_units)
    print(f"  failed_frac {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} failed of {attempted} attempted)")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(value), "unit": out_units[name]} for name, value in metrics.items()
        },
    }
    record = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {
                **result,
                "detail": untraced.detail,
                "env": env,
                "notes": untraced.notes,
                "failures": failures,
            },
            indent=1,
            default=str,
        )
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
