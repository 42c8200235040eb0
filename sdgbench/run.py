"""sdglab benchmark: one workload, closed loop, for a fixed number of seconds.

    python3 sdgbench/run.py --workload exit_mc --seed 7 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src``.
With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate; the
traced ones run with timing shims around sdglab's public calls and give
the per-layer metrics, and the difference between the two kinds of pass
is the tracing overhead.  Human-readable detail (check statistics,
digests, per-size solver times) precedes the result, which is the last
line: one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, the metrics being those BENCHMARK.json declares.  Metric
definitions are in METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment

environment.single_blas_thread()  # before numpy is imported

import numpy as np  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Check, PdeLadder  # noqa: E402

SETUP_PROBES = 7
LADDER_SIZES = tuple(
    [f"1d_h{n}" for n in PdeLadder.FULL["game_h"]] + [f"2d_h{n}" for n in PdeLadder.FULL["box_h"]]
)
# counts that must repeat exactly in every traced pass of a run
COUNT_KEYS = ("simulate.lanes", "simulate.steps", "simulate.drawn_path_steps",
              "simulate.alive_path_steps", "policies.calls", "policies.rows", "pde.fit_calls",
              "grids.interpolate_calls", "grids.interpolate_rows")


def import_sdglab():
    """Import sdglab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sdglab
    except ImportError as exc:
        sys.exit(f"cannot import sdglab from {src}: {exc}")
    if Path(sdglab.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"sdglab imported from {sdglab.__file__}, not from {src}")
    return sdglab


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        sys.exit(f"set-up probe failed with exit code {code}")
    return elapsed


def upper_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, float(np.percentile(samples, p))


def normal_draw_s(n_paths: int, d1: int) -> float:
    """Median time of one Philox normal draw of an ensemble step's shape."""
    rng = np.random.Generator(np.random.Philox(0))
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        rng.normal(0.0, 1.0, size=(n_paths, d1))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name (``<layer>.<base>[.<size>]``)."""
    base = name.split(".")[1]
    if base.endswith(("_share", "_fraction")):
        return "ratio"
    if "_ns_" in base:
        return "ns"
    if base.endswith("_per_s"):
        return "1/s"
    if base.endswith("_mb"):
        return "MB"
    if base.endswith("_s") or "_s_" in base:
        return "s"
    return "count"


def layer_record(tr: Tracer, wall: float) -> dict:
    """Per-layer numbers of one traced pass of ``wall`` seconds."""
    steps = sum(lane[2] for lane in tr.lanes)
    drawn = sum(lane[0] * lane[2] for lane in tr.lanes)
    alive = sum(lane[3] for lane in tr.lanes)
    sim_self = tr.layer_self_s("simulate")
    rec = {
        "simulate.lanes": len(tr.lanes),
        "simulate.steps": steps,
        "simulate.drawn_path_steps": drawn,
        "simulate.alive_path_steps": alive,
        "simulate.alive_fraction": alive / drawn if drawn else 0.0,
        "simulate.self_s": sim_self,
        "simulate.self_ns_per_alive_path_step": 1e9 * sim_self / alive if alive else 0.0,
        "policies.select_s": tr.total_s["select"],
        "policies.respond_s": tr.total_s["respond"],
        "policies.calls": tr.calls["select"] + tr.calls["respond"],
        "policies.rows": tr.counts["policies.rows"],
        "policies.build_selectors_s": tr.total_s["build_alpha_selector"] + tr.total_s["build_beta_selector"],
        "harness.estimate_value_s": tr.total_s["estimate_value"],
        "harness.self_s": tr.layer_self_s("harness"),
        "pde.fit_calls": tr.calls["IsaacsSolver.fit"],
        "pde.convergence_study_s": tr.total_s["convergence_study"],
        "grids.build_s": tr.total_s["DomainGrid.build"],
        "grids.build_calls": tr.calls["DomainGrid.build"],
        "grids.interpolate_s": tr.total_s["ValueField.interpolate"],
        "grids.interpolate_calls": tr.calls["ValueField.interpolate"],
        "grids.interpolate_rows": tr.counts["grids.interpolate_rows"],
    }
    for layer in LAYERS:
        if layer != "config":  # config is only called during set-up
            rec[f"{layer}.self_share"] = tr.layer_self_s(layer) / wall
    for size in sorted({f[0] for f in tr.fits} | set(LADDER_SIZES)):
        fits = [f for f in tr.fits if f[0] == size]
        evals = [e[1] for e in tr.evals if e[0] == size]
        fit_s = statistics.fmean(f[1] for f in fits) if fits else 0.0
        n_iter = max((f[2] for f in fits), default=0)
        eval_s = statistics.fmean(evals) if evals else 0.0
        rec[f"pde.fit_s.{size}"] = fit_s
        rec[f"pde.n_iter.{size}"] = n_iter
        rec[f"pde.interior_nodes.{size}"] = max((f[3] for f in fits), default=0)
        rec[f"pde.evaluate_H_s.{size}"] = eval_s
        rec[f"pde.linear_solve_s_per_iter.{size}"] = (
            (fit_s - (n_iter + 1) * eval_s) / n_iter if n_iter and evals else 0.0
        )
    return rec


def run_passes(workload, tracer, seconds):
    """Closed loop until ``seconds`` have passed; alternate traced passes if tracing."""
    walls, traced_walls, records, checks = [], [], [], []
    first_digests, first_counts, se = None, None, None
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            res = workload.run_pass()
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        checks += res.checks
        se = res.se
        first_digests = first_digests or res.digests
        for name, d in res.digests.items():
            checks.append(Check(f"digest_stable.{name}", d == first_digests[name], 0.0, d[:16]))
        if traced:
            traced_walls.append(wall)
            rec = layer_record(tracer, wall)
            counts = {k: rec[k] for k in COUNT_KEYS}
            first_counts = first_counts or counts
            checks.append(Check("trace_counts_stable", counts == first_counts, 0.0, ""))
            records.append(rec)
        else:
            walls.append(wall)
        if time.perf_counter() >= deadline and (tracer is None or traced_walls):
            return walls, traced_walls, records, checks, first_digests, se


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-check sizes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sdglab = import_sdglab()
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    if args.setup_probe:
        workload.setup(sdglab)
        print("ready", flush=True)
        return 0

    print("environment " + json.dumps(environment.collect(), sort_keys=True))
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    else:
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
        print("set-up probe seconds " + " ".join(f"{t:.4f}" for t in setup_samples))
    try:
        workload.setup(sdglab)
    finally:
        if tracer:
            tracer.uninstall()
    load_s = tracer.total_s["load_experiment"] if tracer else None

    walls, traced_walls, records, checks, digests, se = run_passes(workload, tracer, args.seconds)
    failed = sum(not c.ok for c in checks)
    print(f"workload {args.workload} seed {args.seed} (inputs do not depend on the seed): "
          f"{len(walls)} untraced and {len(traced_walls)} traced passes")
    print("untraced pass seconds " + " ".join(f"{w:.4f}" for w in walls))
    if traced_walls:
        print("traced pass seconds " + " ".join(f"{w:.4f}" for w in traced_walls))
    worst = {}
    for c in checks:  # a failure first, then the largest statistic
        if c.name not in worst or (not c.ok, c.statistic) > (not worst[c.name].ok, worst[c.name].statistic):
            worst[c.name] = c
    for c in worst.values():
        print(f"check {c.name:34s} {'PASS' if c.ok else 'FAIL'} statistic {c.statistic:.6g} {c.detail}")
    for name, d in sorted(digests.items()):
        print(f"sha256 {name} {d}")

    wall_s = statistics.median(walls)
    metrics = {"wall_s.samples": (len(walls), "count"),
               "failed_fraction": (failed / len(checks), "ratio")}
    pct = upper_percentile(walls)
    if pct:
        metrics[f"wall_s.p{pct[0]}"] = (pct[1], "s")
    if se is not None:
        metrics["se_max"] = (se, "1")
        metrics["time_to_se_1e-3_s"] = (wall_s * (se / 1e-3) ** 2, "s")
    if tracer:
        layer = dict(records[0])
        for k in layer:
            if unit_of(k) != "count":
                layer[k] = statistics.median(r[k] for r in records)
        draw = {key: normal_draw_s(*key) for key in {(n, d1) for n, d1, _, _ in tracer.lanes}}
        layer["simulate.draw_s_est"] = sum(draw[n, d1] * s for n, d1, s, _ in tracer.lanes)
        layer["simulate.alive_path_steps_per_s"] = layer["simulate.alive_path_steps"] / wall_s
        layer["config.load_experiment_s"] = load_s
        layer["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        layer["process.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics.update({k: (v, unit_of(k)) for k, v in layer.items()})
        print("simulate.draw_s_est is computed from timed draws, not traced; "
              "pde.linear_solve_s_per_iter.* is derived from fit and evaluate_H times")
    else:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
        metrics["wall_s"] = (wall_s, "s")
        metrics["time_to_accuracy_s"] = (metrics["time_to_se_1e-3_s"][0] if se is not None else wall_s, "s")
    for k, (v, unit) in metrics.items():
        print(f"metric {k:44s} {v:.9g} {unit}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {}
    for m in declared["per_layer" if tracer else "end_to_end"]:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            sys.exit(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
