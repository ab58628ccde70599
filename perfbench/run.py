"""Benchmark for sidforge: four seeded workloads, timed end to end, plus a
traced run that times each layer from outside the program.

    python3 perfbench/run.py --workload fit-m --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports sidforge from ``src/`` of
that checkout and nowhere else. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The line before it is a report with the environment, the
workload's own figures and any failed check. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# setup runs this many times per run; setup_s is their median
SETUP_REPEATS = 3

# the load is one caller in one process, so BLAS gets every CPU this
# process may run on and no more
BLAS_THREADS = len(os.sched_getaffinity(0))
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_program():
    """Import sidforge from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "sidforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sidforge sources under {src}")
    sys.path.insert(0, str(src))
    import sidforge
    if Path(sidforge.__file__).resolve().parent != (src / "sidforge").resolve():
        sys.exit(f"perfbench: sidforge imported from {sidforge.__file__}, not {src}")


class Checks:
    """Counts checked operations and failures across all repeats of a run.

    An operation fails when a check on its output fails or when its output
    digest differs from the first repeat's, so reruns must be byte-identical.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, str] = {}

    def record(self, name: str, problems: list[str], digest: str) -> None:
        self.attempted += 1
        if self._first.setdefault(name, digest) != digest:
            problems = problems + ["output differs from the first repeat"]
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {problems[0]}")

    def crash(self, name: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{name}: {traceback.format_exc(limit=3).strip()}")
        traceback.print_exc(file=sys.stderr)

    def add(self, repeat) -> None:
        for name, problems, digest in repeat.ops:
            self.record(name, problems, digest)

    def output_digest(self) -> str:
        """One digest over the first repeat's outputs, to compare commits by."""
        return hashlib.sha256("".join(self._first.values()).encode("ascii")).hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", out_dir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result, report)."""
    from tracing import PER_LAYER_UNITS, NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    out_dir = out_dir or ROOT / ".bench_out"
    workdir = out_dir / f"work-{workload}-{os.getpid()}"
    checks = Checks()
    setup_times, repeats, layer = [], [], {}
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            state = wl.setup(seed, size, workdir)
            setup_times.append(time.perf_counter() - start)

        if trace:
            # one untraced repeat, then the same repeat with every wrapper in place
            gc.collect()
            untraced = wl.repeat(state, NullTracer())
            checks.add(untraced)
            tracer = Tracer()
            tracer.install()
            gc.collect()
            try:
                traced = wl.repeat(state, tracer)
            finally:
                tracer.uninstall()
            checks.add(traced)
            repeats = [untraced, traced]
            layer = tracer.metrics(traced.wall_s, untraced.wall_s)
            tracer.write(out_dir / f"trace-{workload}-seed{seed}.jsonl")
        else:
            start = time.perf_counter()
            while True:
                gc.collect()  # no repeat pays for garbage left by the one before
                repeats.append(wl.repeat(state, NullTracer()))
                checks.add(repeats[-1])
                # another repeat only if it would end within half a repeat
                # of the budget, so a run never overshoots by much
                if time.perf_counter() - start + repeats[-1].wall_s / 2 >= seconds:
                    break
    except Exception:
        checks.crash(f"{workload} run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload,
        "size": size,
        "trace": trace,
        "environment": environment(seed),
        "error_rate": checks.failed / max(checks.attempted, 1),
        "output_digest": checks.output_digest(),
        "setup_s": setup_times,
        "wall_s": [r.wall_s for r in repeats],
        "values": {k: statistics.median(r.values[k] for r in repeats if k in r.values)
                   for k in sorted({k for r in repeats for k in r.values})},
        "problems": checks.problems[:20],
    }
    if trace:
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_times) if setup_times else 0.0,
            "wall_s": statistics.median(r.wall_s for r in repeats) if repeats else 0.0,
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": checks.failed == 0, "attempted": max(checks.attempted, 1),
              "failed": checks.failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit-m", "encode-paper", "decode-s", "cli-s"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    _import_program()

    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
