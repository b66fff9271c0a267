"""Benchmark of photonlat's pipelines; see README.md in this directory.

Usage, from the repository root:

    python3 perfbench/run.py --workload sample_validate --seed 1 --seconds 10 --trace 0

Runs one workload in this process: set-up (repeated, median reported),
then whole rounds of ops for ``--seconds`` of op time, each op checked
after it ran and outside its timer. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. photonlat is imported from ``src/`` next to this directory
and nowhere else; without it the benchmark exits with code 1.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reconfigure", "sample_validate", "hom_reconstruct", "table_n5")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_photonlat():
    """Import photonlat from this checkout's ``src``; None when absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import photonlat
        import photonlat.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import photonlat from {src}: {exc}", file=sys.stderr)
        return None
    if src.resolve() not in Path(photonlat.__file__).resolve().parents:
        print(f"photonlat was imported from {photonlat.__file__}, not {src}",
              file=sys.stderr)
        return None
    return photonlat


def run_check(check, *args) -> list:
    """Errors a check reports; a check that raises reports its exception."""
    try:
        return check(*args)
    except Exception as exc:   # malformed output must fail the run, not crash it
        traceback.print_exc()
        return [f"{check.__qualname__} raised {exc!r}"]


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread: the load comes from this one process, and 32-mode
    # matrices gain nothing from a second thread
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    photonlat = import_photonlat()
    if photonlat is None:
        return 1
    import_s = time.perf_counter() - T_START

    from layertrace import Tracer
    from workloads import WORKLOADS

    run_dir = HERE / "_runs" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](photonlat, args.seed)
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(run_dir / f"setup{rep}")
            setup_times.append(time.perf_counter() - t0)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()

        op_times, failed, errors = [], 0, []
        # whole rounds only, so a workload that keeps a failing op in its
        # round fails the same share of ops in every run
        while not op_times or sum(op_times) < args.seconds \
                or len(op_times) % workload.ROUND:
            op_dir = run_dir / f"op{len(op_times)}"
            inputs = workload.next_inputs()
            result = None
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = workload.op(op_dir, inputs)
            except Exception:   # an op that raises counts as failed; the run goes on
                failed += 1
                traceback.print_exc()
            finally:
                op_times.append(time.perf_counter() - t0)
                if tracer:
                    tracer.active = False
            if result is not None:
                errors += run_check(workload.check, result)
            del result
            shutil.rmtree(op_dir, ignore_errors=True)
        errors += run_check(workload.final_check)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()

    n_ops = len(op_times)
    completed = n_ops - failed
    if tracer:
        metrics = tracer.metrics(n_ops)
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "ops_per_s": {"value": completed / sum(op_times), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{args.workload}: {n_ops} ops ({failed} failed) in {sum(op_times):.3f} s of "
          f"op time, {completed / sum(op_times):.4f} ops/s; import {import_s:.3f} s, "
          f"set-ups {[round(t, 3) for t in setup_times]} s; "
          f"near-threshold events {workload.near_threshold}")
    print(json.dumps({"correct": not errors, "attempted": n_ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
