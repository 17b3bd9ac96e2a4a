"""ellipticlab benchmark: one closed-loop client driving one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the workload's inputs (set-up, repeated and timed), then cycles the
workload's fixed operation list for S seconds, one operation at a time in
this one process, checking every output.  Whole passes only: the loop stops
after the first pass that ends past S.  Times are sampled against a
calibration kernel while they run and reported in reference seconds
(hostspeed.py).  Prints every metric by name and
unit, then, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics instead.  ``--smoke`` runs every operation and
check once at tiny sizes.  See README.md next to this file.
"""

from __future__ import annotations

import os

# one thread: pin BLAS before numpy can be imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("manufacture", "certify", "regularity")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass (one of each kind with --trace 1)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package(clock):
    """Import ellipticlab from this checkout's src/; returns (package, region)."""
    src = ROOT / "src"
    if not (src / "ellipticlab" / "__init__.py").is_file():
        raise SystemExit("benchmark: no ellipticlab sources under %s" % src)
    sys.path.insert(0, str(src))
    with clock.region(hostspeed.SETUP_INTERVAL_S) as region:
        import ellipticlab
        import ellipticlab.cli  # noqa: F401  (the package does not import it)
    if Path(ellipticlab.__file__).resolve().parent != src / "ellipticlab":
        raise SystemExit("benchmark: imported ellipticlab from %s, not from %s"
                         % (ellipticlab.__file__, src))
    return ellipticlab, region


def run_pass(ops, clock, raised, wrong):
    """One pass over the operation list; returns ({metric: seconds}, host-speed
    samples).  An operation that raises is noted in ``raised``, one whose
    output breaks its check in ``wrong``."""
    from workloads import CheckFailed

    times, samples = {}, []
    for op in ops:
        out, error = None, None
        with clock.region() as region:
            try:
                out = op.run()
            except Exception:
                error = traceback.format_exc()
        times[op.metric] = region.seconds
        samples += region.samples
        if error is not None:
            raised.append("%s raised:\n%s" % (op.metric, error))
            continue
        try:
            op.check(out)
        except CheckFailed as exc:
            wrong.append(str(exc))
        except Exception:  # malformed output the check could not read
            wrong.append("%s output unreadable:\n%s" % (op.metric, traceback.format_exc()))
    return times, samples


def median_of_dicts(dicts):
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def main(argv=None):
    args = parse_args(argv)
    # traced runs time raw seconds: the sampler's kernel would land in spans
    clock = hostspeed.HostSpeed(enabled=not args.trace,
                                interval=hostspeed.SETUP_INTERVAL_S if args.smoke
                                else hostspeed.INTERVAL_S)
    el, import_region = import_package(clock)
    import workloads
    import tracer as tracing

    workdir = BENCH / "work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](el, args.seed, workdir, args.smoke)
        tracer = tracing.Tracer(el) if args.trace else None

        setup_regions = []
        for _ in range(1 if args.trace or args.smoke else SETUP_REPEATS):
            if tracer:
                tracer.install()
            with clock.region(hostspeed.SETUP_INTERVAL_S) as region:
                wl.setup()
            setup_regions.append(region)
            if tracer:
                tracer.remove()
        setup_layers = tracer.collect() if tracer else None

        raised, wrong = [], []
        control_failures = wl.control()
        ops = wl.operations()
        passes = []  # (traced, {metric: seconds}, host-speed samples)
        layer_passes = []
        loop_start = perf_counter()
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            if traced:
                tracer.install()
            times, samples = run_pass(ops, clock, raised, wrong)
            if traced:
                tracer.remove()
                layer_passes.append(tracer.collect())
            passes.append((traced, times, samples))
            enough = len(passes) >= (2 if tracer else 1)
            if enough and (args.smoke or perf_counter() - loop_start >= args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_samples = import_region.samples + [x for r in setup_regions for x in r.samples]
    run_samples += [x for _, _, samples in passes for x in samples]

    def factor(samples):
        """Reference seconds per second; a region too short to be sampled
        takes the whole run's factor."""
        if not clock.enabled:
            return 1.0
        return hostspeed.scale(samples or run_samples)

    pass_factors = [factor(samples) for _, _, samples in passes]
    raw_pass_times = [sum(t.values()) for _, t, _ in passes]
    pass_times = [s * f for s, f in zip(raw_pass_times, pass_factors)]
    plain = [{k: v * f for k, v in t.items()}
             for (traced, t, _), f in zip(passes, pass_factors) if not traced]
    op_medians = median_of_dicts(plain)
    setup_s = (import_region.seconds * factor(import_region.samples)
               + statistics.median(r.seconds * factor(r.samples) for r in setup_regions))

    def median_pass(kind):
        return statistics.median(s for (traced, _, _), s in zip(passes, pass_times)
                                 if traced == kind)

    if tracer:
        per_pass = median_of_dicts(layer_passes)
        metrics = {k: setup_layers[k] + per_pass[k] for k in per_pass}
        cands = metrics["viscosity.candidates"]
        metrics["viscosity.fired_per_candidate"] = \
            metrics["viscosity.fired"] / cands if cands else 0.0
        metrics["trace.overhead_s"] = median_pass(True) - median_pass(False)
        units = dict(tracing.per_layer_names())
        units["trace.overhead_s"] = "s"
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": median_pass(False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

    attempted = len(ops) * len(passes)
    failed_ops = len(raised) + len(wrong)
    correct = not control_failures and not wrong
    failures = control_failures + raised + wrong
    for message in failures:
        print("FAILED %s" % message, file=sys.stderr)

    import numpy
    import scipy
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": len(passes),
        "import_wall_s": import_region.seconds,
        "setup_wall_s": [r.seconds for r in setup_regions],
        "import_factor": factor(import_region.samples),
        "setup_factors": [factor(r.samples) for r in setup_regions],
        "pass_wall_s": raw_pass_times, "pass_factors": pass_factors,
        "pass_times_s": pass_times, "host_samples": len(run_samples),
        "operation_medians_s": op_medians,
        "metrics": metrics, "attempted": attempted, "failed": failed_ops,
        "correct": correct, "failures": failures,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    (results / (tag + ".json")).write_text(json.dumps(details, indent=1) + "\n")

    print("workload %s seed %d: %d passes, attempted %d, failed %d"
          % (args.workload, args.seed, len(passes), attempted, failed_ops))
    for name, value in metrics.items():
        print("  %-36s %.6g %s" % (name, value, units[name]))
    if not args.trace:
        for name, value in op_medians.items():
            print("  %-36s %.6g s  (median operation time)" % (name, value))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
