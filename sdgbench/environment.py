"""Machine and toolchain facts recorded next to the benchmark's numbers.

``collect`` reads only the interpreter and its environment variables, so
every run can print it.  ``single_blas_thread`` fixes the BLAS thread
variables for the benchmark's processes.  Run as a script from the
repository root, this module also records the CPU model and the git
commit and rewrites environment.json, the record of the machine the
reference grids and the bounds in BENCHMARK.json were measured on:

    python3 sdgbench/environment.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def single_blas_thread() -> None:
    """Run numpy's BLAS with one thread; call before numpy is imported.

    sdglab does its work in one thread.  With more than one CPU, OpenBLAS
    starts a worker thread when numpy is imported.  On a 2-vCPU machine
    that thread added about a quarter to set-up time and made it vary
    with where the scheduler put the thread, and no pass ran faster with
    it.  Children started by the benchmark inherit the setting.
    """
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))


def _version(pkg: str) -> str:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return "not installed"


def collect() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        # installed but not a declared dependency of sdglab
        "scipy": _version("scipy"),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
    }


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def main() -> None:
    here = Path(__file__).resolve().parent
    single_blas_thread()
    env = collect()
    env["cpu_model"] = _cpu_model()
    env["git_sha"] = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=here, capture_output=True, text=True, check=True
    ).stdout.strip()
    (here / "environment.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
    print(json.dumps(env, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
