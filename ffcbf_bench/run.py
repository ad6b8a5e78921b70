"""Run one workload of the ffcbf benchmark and print its metrics.

    python3 ffcbf_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: central-straight, central-left-turn, decentral-mixed, cli-compare
(see README.md next to this file).  Every metric is printed on its own line
with its unit; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer split from a traced pass.
The exit code is 1 when an outcome check or a digest comparison fails, and 2
when the ffcbf sources are not found next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_out")

# One BLAS/OpenMP thread, set before numpy loads; worker counts are passed
# explicitly, so FFCBF_THREADS must not leak in.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FFCBF_THREADS", None)

_SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "from ffcbf_bench import workloads; "
    "workloads.build_configs(sys.argv[3], int(sys.argv[4]))"
)


def setup_seconds(workload: str, seed: int, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing ffcbf and building
    the workload's configs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROBE, ROOT, SRC, workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be nonnegative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: 0.5 s trials, one round, one setup probe")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ffcbf", "__init__.py")):
        print(f"error: ffcbf sources not found under {SRC}", file=sys.stderr)
        return 2

    sys.path[:0] = [ROOT, SRC]
    import numpy
    import scipy

    from ffcbf_bench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    setup = None
    if not args.trace:
        setup = setup_seconds(args.workload, args.seed, 1 if args.tiny else 5)

    tiny = {"t_max": 0.5, "rounds": 1} if args.tiny else {}
    report = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), WORKDIR, **tiny)
    if setup is not None:
        report.metrics["setup_s"] = setup

    print(f"env nproc={workloads.available_cpus()} cpu={_cpu_model()!r} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for note in report.notes:
        print(note)
    units = {**workloads.END_TO_END, **workloads.REPORTED, **workloads.PER_LAYER}
    for name, value in report.metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    gated = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    result = {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit}
                    for name, unit in gated.items()},
    }
    print(json.dumps(result))
    return 1 if report.problems else 0


if __name__ == "__main__":
    sys.exit(main())
