"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload seq_noisy --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The lines
before it give the raw wall-clock figures beside the normalised ones.
"""

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads: two threads on the 2-core
# reference machine widened the normalised spread from 5% to 20%
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("seq_noisy", "stream_busy", "icp_cli")
SETUP_REPS = 3

# top-level layer calls of a replay; their sum is the traced time per pair
LAYER_CALLS = ("keypoints.extract", "descriptors.propose", "matching.compat", "matching.eigen",
               "matching.greedy_select", "se2.fit", "icp.match", "scan.load")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import radarodo from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "radarodo" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'radarodo'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import radarodo

    if Path(radarodo.__file__).resolve().parent != SRC / "radarodo":
        sys.exit(f"error: imported radarodo from {radarodo.__file__}, not {SRC}")


def mean(values):
    return statistics.fmean(values) if values else 0.0


def end_to_end(clock, tally, setup_s):
    return {
        "pairs_per_s": (tally.pairs / clock.norm["call"], "1/s"),
        "scan_latency_p50_ms": (1e3 * statistics.median(tally.latency), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "translation_err_median_cm": (100.0 * statistics.median(tally.t_err), "cm"),
        "rotation_err_median_deg": (math.degrees(statistics.median(tally.r_err)), "deg"),
    }


def per_layer(clock, tally, setup_clock, glue):
    """Normalised ms per pair for each layer (0 where the workload does not
    run it), and the layer counts as means. The call's time beyond the
    layer sum goes to the ``glue`` metric, if the workload has one."""
    ms = {name: 1e3 * total / tally.pairs for name, total in clock.norm.items()}
    get = lambda name: ms.get(name, 0.0)  # noqa: E731
    layer_sum = sum(get(n) for n in LAYER_CALLS)
    counts = tally.counts
    out = {
        "keypoints.score_ms": get("keypoints.score"),
        "keypoints.mark_ms": get("keypoints.mark"),
        "keypoints.emit_ms": get("keypoints.extract") - get("keypoints.score") - get("keypoints.mark"),
        "descriptors.matrix_ms": get("descriptors.matrix"),
        "descriptors.unary_ms": get("descriptors.propose") - get("descriptors.matrix"),
        "matching.compat_ms": get("matching.compat"),
        "matching.eigen_ms": get("matching.eigen"),
        "matching.greedy_ms": get("matching.greedy_select") - get("matching.eigengap"),
        "matching.eigengap_ms": get("matching.eigengap"),
        "se2.fit_ms": get("se2.fit"),
        "icp.match_ms": get("icp.match"),
        "scan.load_ms": get("scan.load"),
        "cli.glue_ms": 0.0,
        "odometry.glue_ms": 0.0,
        "simulate.render_ms": 1e3 * setup_clock.norm["simulate.render"]
        / setup_clock.calls["simulate.render"],
        "keypoints.per_scan": mean(counts["keypoints.per_scan"]),
        "keypoints.regions": mean(counts["keypoints.regions"]),
        "descriptors.candidates": mean(counts["descriptors.candidates"]),
        "matching.eigen_iterations": mean(counts["matching.eigen_iterations"]),
        "matching.selected": mean(counts["matching.selected"]),
        "matching.selected_per_candidate": (
            sum(counts["matching.selected"]) / sum(counts["descriptors.candidates"])
            if counts["descriptors.candidates"] else 0.0
        ),
        "icp.iterations": mean(counts["icp.iterations"]),
    }
    if glue:
        out[glue] = get("call") - layer_sum
    units = {True: "ms", False: "count"}
    traced = {"layer_sum_ms_per_pair": layer_sum, "call_ms_per_pair": get("call")}
    return {k: (v, units[k.endswith("_ms")]) for k, v in out.items()}, traced


def run(args, workdir):
    import checks
    import clock as clock_mod
    import workloads

    import_s = time.perf_counter() - _PROCESS_START
    # imports cannot be bracketed (the kernel needs numpy), so scale by one
    # kernel measured right after them
    import_norm = import_s * clock_mod.NOMINAL_KERNEL_S / clock_mod.kernel_seconds()

    workload = workloads.WORKLOADS[args.workload](workdir)
    setup_clock = clock_mod.Clock()
    setup_norm, inputs = [], None

    def setup_and_warm_up(span):
        made = workload.setup(span)
        workload.warm_up(made)
        return made

    setup_raw = []
    for _ in range(SETUP_REPS):
        raw_before = setup_clock.raw["setup"]
        made, norm = setup_clock.bracket(lambda span: span.time("setup", setup_and_warm_up, span))
        setup_norm.append(norm["setup"])
        setup_raw.append(setup_clock.raw["setup"] - raw_before)
        inputs = inputs or made
    setup_s = import_norm + statistics.median(setup_norm)
    # the scenes are fixed (see README.md); the seed sets the order in which
    # every round visits them
    inputs = random.Random(args.seed).sample(inputs, len(inputs))

    clock, tally = clock_mod.Clock(), workloads.Tally()
    round_fn = workload.trace_round if args.trace else workload.run_round
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        round_fn(inputs, clock, tally)
        rounds += 1
        now = time.perf_counter()
        # whole rounds only, and none that would end past --seconds
        if now - start + (now - t0) > args.seconds:
            break

    if not args.trace:
        workload.verify(inputs, tally)
    tally.problems += checks.check_accuracy(tally.t_err, workload.RANGE_RESOLUTION, tally.failed)
    if args.trace:
        metrics, traced = per_layer(clock, tally, setup_clock, workload.GLUE)
        info = {"rounds": rounds, "pairs": tally.pairs, **traced}
    else:
        metrics = end_to_end(clock, tally, setup_s)
        info = {
            "rounds": rounds,
            "pairs": tally.pairs,
            "raw_pairs_per_s": tally.pairs / clock.raw["call"],
            "raw_setup_s": import_s + statistics.median(setup_raw),
        }
    samples = clock.kernel_samples + setup_clock.kernel_samples
    info["kernel_median_ms"] = 1e3 * statistics.median(samples)
    info["nominal_kernel_ms"] = 1e3 * clock_mod.NOMINAL_KERNEL_S
    for key, value in info.items():
        print(f"{key} = {value!r}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.pairs,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    import_program()
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
