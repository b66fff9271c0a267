"""Time photonlat's CLI as a user runs it: every command in a fresh process.

    python3 tools/cold_cli.py [--repeats N] [--out BENCH_cli.json]

Runs ``simulate`` and ``haar --device`` on a config that sets only the seed
(12345), so every other value is the CLI default, N times each, alternating
the commands. Each run is a fresh process started through the ``photonlat``
entry point: the console script where one is on PATH, else
``python -c "import sys; from photonlat.cli import main; sys.exit(main())"``,
which is what that script runs. Either way ``src/`` of the checkout this
file is in comes first on PYTHONPATH, so the run times this source.

Writes one JSON object: per command the median wall time and the median
``ru_minflt`` (minor page faults) of the finished child from ``getrusage``,
each run's numbers, the launcher, and the machine: CPU, nproc, Python,
numpy, BLAS and the ``MALLOC_*`` and ``*_NUM_THREADS`` variables set. A
run that exits other than 0 stops the tool with its exit code and its
standard error.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = {"simulate": ["simulate"], "haar_device": ["haar", "--device"]}
SEED = 12345


def machine() -> dict:
    """CPU, nproc, Python, numpy, BLAS and the MALLOC_* and *_NUM_THREADS
    variables set."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):       # a numpy without the dict form
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "malloc": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
            "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}}


def launcher() -> list:
    """The argv prefix that starts the ``photonlat`` entry point."""
    script = shutil.which("photonlat")
    if script:
        return [script]
    return [sys.executable, "-c", "import sys; from photonlat.cli import main; sys.exit(main())"]


def run_once(argv, env) -> dict:
    """Wall time and minor faults of one child running ``argv``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(done.returncode)
    return {"wall_s": wall,
            "minflt": resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="runs of each command")
    parser.add_argument("--out", default="BENCH_cli.json", help="where to write the JSON")
    args = parser.parse_args(argv)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = launcher()
    runs = {name: [] for name in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({"seed": SEED}))
        for k in range(args.repeats):
            for name, command in COMMANDS.items():
                out = Path(tmp) / f"{name}-{k}"
                runs[name].append(run_once(
                    start + command + ["--config", str(cfg), "--out", str(out)], env))
    result = {
        "commands": {name: {"argv": COMMANDS[name],
                            "median_wall_s": statistics.median(r["wall_s"] for r in done),
                            "median_minflt": statistics.median(r["minflt"] for r in done),
                            "runs": done}
                     for name, done in runs.items()},
        "config": {"seed": SEED}, "repeats": args.repeats, "launcher": start[0],
        "source": str(SRC), "machine": machine(),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for name, summary in result["commands"].items():
        print(f"{name}: median {summary['median_wall_s']:.3f} s, "
              f"{summary['median_minflt']:.0f} minor faults over {args.repeats} runs")


if __name__ == "__main__":
    main()
