#!/usr/bin/env python3
"""Benchmark of the cglspiral package: k_*(q) sweeps, cold solves, field frames.

Usage, from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload sweep_n1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each run is one process with one closed-loop client: it sets the workload
up, then attempts whole rounds of operations for about ``--seconds``,
checks every output, and prints one JSON line as the last line of
standard output.  With ``--trace 0`` that line carries the end-to-end
metrics; with ``--trace 1`` the program's layers are wrapped in spans and
the line carries the per-layer metrics instead (see README.md).
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

import spans  # noqa: E402  (sibling modules, found through the script's dir)
import workloads  # noqa: E402

WORKLOADS = ("sweep_n1", "cold_n2", "field_frames")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN_BEFORE = 2
SETUP_CHILDREN_AFTER = 2
CHILD_TIMEOUT_S = 120


def make_workload(name, smoke=False):
    if name == "sweep_n1":
        return workloads.SweepN1()
    if name == "cold_n2":
        return workloads.SmokeColdN2() if smoke else workloads.ColdN2()
    WORK.mkdir(exist_ok=True)
    return workloads.FieldFrames(str(WORK))


def install_tracer(tracer, mods):
    """Wrap the module attributes through which the program's layers are called."""
    core, field, outer = mods["core"], mods["field"], mods["outer"]
    solver, specfun, wavenumber = mods["solver"], mods["specfun"], \
        mods["wavenumber"]
    profile_cache = core.solve_profile

    tracer.wrap(specfun, "k_imag_triple", "specfun.k_imag_triple")
    tracer.wrap(outer, "decay_slope", "outer.decay_slope",
                extra=lambda a, kw, res, pre: {"nuR": (a[0], a[1])})
    tracer.wrap(solver, "solve_bvp", "solver.solve_bvp",
                extra=lambda a, kw, res, pre: {"nodes": int(res.x.size),
                                               "niter": int(res.niter)})
    tracer.wrap(solver, "solve_spiral", "solver.solve_spiral")
    tracer.wrap(core, "solve_profile", "core.solve_profile",
                before=lambda: profile_cache.cache_info().hits,
                extra=lambda a, kw, res, pre: {
                    "hit": profile_cache.cache_info().hits > pre})
    tracer.wrap(wavenumber, "kappa_asym", "wavenumber.kappa_asym")
    for name in ("theta_of_r", "sample_field", "measure_arm_spacing"):
        tracer.wrap(field, name, "field." + name)
    tracer.wrap(field, "export", "field.export",
                extra=lambda a, kw, res, pre: {
                    "bytes": os.path.getsize(a[1])})


def child_setup_times(workload, count):
    """Set-up seconds measured in ``count`` fresh processes, one at a time."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def timed_loop(wl, rng, seconds, tracer=None, max_rounds=None):
    """Attempt whole rounds of operations for about ``seconds`` of wall time.

    A round starts only if a round as long as the previous one would reach
    its midpoint within ``seconds``, so a run lasts the whole number of
    rounds nearest to ``seconds`` and a small change of speed does not
    change that number; the first round always runs.  Only the operation
    itself is timed; checks run between operations with tracing paused,
    and each output is released before the next operation so one
    operation's memory does not add to the next one's.
    """
    latencies, problems = [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    last_round = 0.0
    while (rounds == 0 or
           time.perf_counter() - start + 0.5 * last_round <= seconds):
        if max_rounds is not None and rounds >= max_rounds:
            break
        round_start = time.perf_counter()
        for inp in wl.round_inputs(rng):
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception:
                failed += 1
                print(f"operation {attempted} failed on {inp!r}",
                      file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            latencies.append(time.perf_counter() - t0)
            problems += wl.check(inp, out)
            del out
            gc.collect()
        problems += wl.end_round()
        rounds += 1
        last_round = time.perf_counter() - round_start
    return latencies, attempted, failed, problems


def end_to_end(setup_times, latencies):
    done = len(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (done / sum(latencies) if done else 0.0, "1/s"),
        "op_p50_s": (statistics.median(latencies) if done else 0.0, "s"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def write_json(path, doc):
    RESULTS.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def run_workload(args):
    wl = make_workload(args.workload, smoke=args.smoke)
    tracer = spans.Tracer() if args.trace else None
    hook = (lambda mods: install_tracer(tracer, mods)) if tracer else None
    # set-up is also timed in fresh processes before and after the timed
    # loop, so the median spans the run rather than one moment of it
    sample_setups = not args.trace and not args.smoke
    setup_times = []
    if sample_setups:
        setup_times = child_setup_times(args.workload, SETUP_CHILDREN_BEFORE)
    t0 = time.perf_counter()
    wl.setup(hook)
    setup_times.append(time.perf_counter() - t0)
    try:
        if tracer is not None:
            tracer.active = False
        problems = wl.prepare_checks()
        latencies, attempted, failed, more = timed_loop(
            wl, random.Random(args.seed), args.seconds, tracer,
            max_rounds=1 if args.smoke else None)
        problems += more
    finally:
        if hasattr(wl, "close"):
            wl.close()
    if sample_setups:
        setup_times += child_setup_times(args.workload, SETUP_CHILDREN_AFTER)
    for line in problems[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(setup_times, latencies)
        if not args.smoke:
            write_json(RESULTS / f"{args.workload}-seed{args.seed}.json", {
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "setup_samples_s": setup_times,
                "latencies_s": latencies,
                "metrics": {k: v for k, (v, _) in metrics.items()}})
    else:
        tracer.unwrap()
        layer = spans.layer_metrics(tracer.spans, len(latencies))
        metrics = {k: (v, spans.unit(k)) for k, v in layer.items()}
        traced_rate = len(latencies) / sum(latencies) if latencies else 0.0
        overhead = {"traced_ops_per_s": traced_rate}
        base = RESULTS / f"{args.workload}-seed{args.seed}.json"
        rate = 0.0
        if base.is_file():
            with open(base) as fh:
                rate = json.load(fh)["metrics"]["ops_per_s"]
        if rate > 0.0:
            overhead.update(untraced_ops_per_s=rate, untraced_file=base.name,
                            traced_over_untraced=traced_rate / rate)
            print(f"tracing overhead: traced ops_per_s {traced_rate:.6g} vs "
                  f"untraced {rate:.6g} ({base.name}), ratio "
                  f"{traced_rate / rate:.4f}", file=sys.stderr)
        write_json(RESULTS / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "ops": len(latencies),
            "overhead": overhead, "metrics": layer,
            "span_fields": spans.SPAN_FIELDS, "spans": tracer.spans})
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }


def smoke_all():
    """One round of every workload, each in its own process, checks on."""
    summary, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--smoke"], capture_output=True, text=True, timeout=170)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            summary[name] = {"exit": proc.returncode}
            ok = False
            continue
        res = json.loads(proc.stdout.splitlines()[-1])
        summary[name] = res
        ok = ok and res["correct"] and res["failed"] == 0
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one round of the workload (of every workload when "
                        "none is named), all checks on")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cglspiral" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/cglspiral; run from the "
              "root of a cglspiral checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.smoke and args.workload is None:
        return smoke_all()
    if args.setup_only:
        t0 = time.perf_counter()
        make_workload(args.workload).setup()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    result = run_workload(args)
    print(json.dumps(result))
    if args.smoke:
        return 0 if result["correct"] and result["failed"] == 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
