"""Fast self-check of the benchmark itself, at tiny sizes.

    python3 sdgbench/selfcheck.py

Runs every workload through run.py with ``--tiny`` (500 paths, h = 1/32
and the like), once untraced and once traced, and asserts that each run
passes its checks and prints exactly the metrics BENCHMARK.json declares,
with their units.  Then runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's own files, where it must fail without
printing a result.  Takes about 30 s.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "sdgbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in declared["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(ROOT, w["name"], trace)
            tag = f"{w['name']} --trace {trace}"
            if out.returncode != 0:
                failures.append(f"{tag}: exit code {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{tag}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{tag}: checks failed\n{out.stdout}")
            print(f"{tag}: {result['attempted']} checks, {len(got)} metrics")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in declared["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p, ignore=shutil.ignore_patterns("__pycache__"))
        out = run(tmp, declared["workloads"][0]["name"], 0)
        last = out.stdout.strip().splitlines()[-1:] or [""]
        if out.returncode == 0 or last[0].startswith("{"):
            failures.append(f"bare directory: exit code {out.returncode}, output {out.stdout!r}")
        print(f"bare directory: exit code {out.returncode}")

    for f in failures:
        print("FAIL", f)
    print("self-check", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
