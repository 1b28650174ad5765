"""Benchmark of the quandles command line, one workload per process.

    python3 perfbench/run.py --workload large-tables --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each call goes through the stable entry
point `quandles.cli.main(argv)`, in-process, with stdout and stderr
captured.  Load is a closed loop with one caller, since the CLI is a
one-shot tool whose caller waits for each answer.  Every output is checked
against `reference` (which never imports the library) and, at the default
seed, against a pinned digest of its bytes.

--trace 0 prints the end-to-end metrics: calls_per_s, call_ms.p50,
call_ms.p90, setup_s and peak_rss_mb (failed_frac is printed too; it also
is failed / attempted in the result).  --trace 1 alternates untraced and
traced passes over the workload and prints per-layer self times and counts
per pass, plus trace.overhead_frac.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics; the exit code is 1 when
any check failed.

--pin-digests rewrites perfbench/digests.json from the current program at
the default seed, after every output passed its reference check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

import spans  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402

SETUP_REPS = 3
MIN_CALLS = 100       # so that at least ten samples lie beyond p90
MAX_LOOP_S = 120.0    # stop even below MIN_CALLS, to stay within a 180 s run


def import_cli():
    """Import the package afresh, so each set-up repetition pays for it."""
    for name in [m for m in sys.modules if m == "quandles" or m.startswith("quandles.")]:
        del sys.modules[name]
    return importlib.import_module("quandles.cli")


def imported_from_checkout() -> bool:
    pkg = os.path.dirname(os.path.realpath(sys.modules["quandles"].__file__))
    return pkg == os.path.realpath(os.path.join(SRC, "quandles"))


def invoke(cli, argv):
    """(seconds, exit code, stdout, stderr, exception) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse rejects its input this way
            code = stop.code
        except Exception as raised:  # the loop goes on; the call counts as failed
            exc = raised
    return perf_counter() - start, code, out.getvalue(), err.getvalue(), exc


class Judge:
    """Decides whether a call's result is correct.

    The first run of each input gets the full reference check (and, at the
    default seed, the pinned digest); later runs of the same input must
    reproduce the verified exit code and output bytes.
    """

    def __init__(self, calls, pinned=None):
        self.calls = calls
        self.pinned = pinned
        self.verified = {}
        self.failures = []

    def __call__(self, i, code, out, err, exc) -> bool:
        call = self.calls[i]
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        if exc is not None:
            reason = "raised " + "".join(traceback.format_exception(exc))[-800:]
        elif i in self.verified:
            reason = None if self.verified[i] == (code, digest) else "output changed between runs"
        elif code != call.code:
            reason = f"exit code {code}, expected {call.code}: {err.strip()[:120]}"
        else:
            reason = call.check(out, err)
            if reason is None and self.pinned is not None and (
                    i >= len(self.pinned) or self.pinned[i] != digest):
                reason = "output differs from the pinned digest"
            if reason is None:
                self.verified[i] = (code, digest)
        if reason is not None:
            self.failures.append((call.stratum, " ".join(call.argv), reason))
        return reason is None


def write_inputs(calls, workdir):
    os.makedirs(workdir, exist_ok=True)
    for call in calls:
        for name, obj in call.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                json.dump(obj, handle)


def setup(workload, seed, workdir):
    """Import, input generation, input files and warm-up; returns its time."""
    start = perf_counter()
    cli = import_cli()
    calls = workloads.generate(workload, seed)
    write_inputs(calls, workdir)
    for argv in workloads.WARMUP[workload]:
        _, code, _, err, exc = invoke(cli, argv)
        if code != 0 or exc is not None:
            raise RuntimeError(f"warm-up call {argv} failed: {exc or err}")
    return perf_counter() - start, cli, calls


def timed_loop(cli, calls, judge, workdir, seconds):
    """Repeat whole passes until the run length is reached and at least
    MIN_CALLS calls were made.  Whole passes keep the stratum mix exact: a
    cut pass would include or drop its few largest calls by chance."""
    argvs = [call.resolved_argv(workdir) for call in calls]
    passes, failed = [], 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        done = len(passes) * len(calls)
        if (elapsed >= seconds and done >= MIN_CALLS) or elapsed >= MAX_LOOP_S:
            return passes, failed
        times = []
        for k, argv in enumerate(argvs):
            seconds_taken, code, out, err, exc = invoke(cli, argv)
            times.append(seconds_taken)
            failed += not judge(k, code, out, err, exc)
        passes.append(times)


def traced_loop(cli, calls, judge, workdir, seconds, tracer):
    """Alternate an untraced and a traced pass over the whole workload until
    the run length is reached; returns the pass count, per-mode call time,
    calls attempted and calls failed."""
    argvs = [call.resolved_argv(workdir) for call in calls]
    wall = {False: 0.0, True: 0.0}
    attempted = failed = passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for traced in (False, True):
            with tracer if traced else contextlib.nullcontext():
                for k, argv in enumerate(argvs):
                    seconds_taken, code, out, err, exc = invoke(cli, argv)
                    wall[traced] += seconds_taken
                    attempted += 1
                    failed += not judge(k, code, out, err, exc)
        passes += 1
    return passes, wall, attempted, failed


def percentile_90(samples):
    return statistics.quantiles(samples, n=10)[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(tracer, workload, seed):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "call"], "spans": tracer.spans},
                  handle)
    return os.path.relpath(path, ROOT)


def run(args, workdir) -> int:
    setup_times = []
    for rep in range(SETUP_REPS):
        # a fresh directory each time: truncating just-written files can
        # force a flush to disk, which is not the program's set-up cost
        inputs = os.path.join(workdir, f"rep{rep}")
        seconds_taken, cli, calls = setup(args.workload, args.seed, inputs)
        setup_times.append(seconds_taken)
    if not imported_from_checkout():
        print(f"perfbench: quandles was not imported from {SRC}", file=sys.stderr)
        return 2
    pinned = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as handle:
            pinned = json.load(handle).get(args.workload, [])
    judge = Judge(calls, pinned)
    counts = workloads.stratum_counts(calls)
    before = spans.binding_snapshot()
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "pass_calls": len(calls), "strata": counts,
        "setup_s_reps": [round(s, 4) for s in setup_times],
    }
    lines = []
    if args.trace:
        tracer = spans.Tracer()
        passes, wall, attempted, failed = traced_loop(cli, calls, judge, inputs,
                                                      args.seconds, tracer)
        self_sum = sum(s for _, s in tracer.self_times())
        root_sum = tracer.root_seconds()
        sums_agree = abs(self_sum - root_sum) <= 1e-9 * max(root_sum, 1.0)
        metrics = tracer.metrics(passes)
        metrics["trace.overhead_frac"] = ((wall[True] - wall[False]) / wall[False], "ratio")
        info.update(passes=passes, absent=tracer.absent, spans=len(tracer.spans),
                    self_time_sum_s=self_sum, root_span_sum_s=root_sum,
                    spans_file=write_spans(tracer, args.workload, args.seed))
        ok = sums_agree
        if not sums_agree:
            lines.append(f"self times sum to {self_sum} s, root spans to {root_sum} s")
    else:
        passes, failed = timed_loop(cli, calls, judge, inputs, args.seconds)
        samples = [t for times in passes for t in times]
        attempted = len(samples)
        info["pass_s"] = [round(sum(times), 4) for times in passes]
        metrics = {
            "calls_per_s": (attempted / sum(samples), "1/s"),
            "call_ms.p50": (statistics.median(samples) * 1000.0, "ms"),
            "call_ms.p90": (percentile_90(samples) * 1000.0, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        info["call_ms.p90_samples"] = attempted
        ok = True
    untouched = spans.binding_snapshot()
    untouched = untouched.keys() == before.keys() and all(untouched[k] is v for k, v in before.items())
    if not untouched:
        lines.append("a binding site was left changed after the run")
    info["failed_frac"] = failed / attempted
    correct = ok and untouched and failed == 0
    for stratum, argv, reason in judge.failures[:20]:
        lines.append(f"FAILED [{stratum}] {argv}: {reason}")
    for line in lines:
        print(line, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {attempted} calls, {failed} failed "
          f"(failed_frac {failed / attempted:.4g} ratio), python {info['python']}, "
          f"nproc {info['nproc']}, pass of {len(calls)}: "
          + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<40} {value:.6g} {unit}")
    print(json.dumps({"run": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def pin_digests(workdir) -> int:
    """Record the output digest of every call at the default seed."""
    cli = import_cli()
    out = {}
    for workload in workloads.WORKLOADS:
        calls = workloads.generate(workload, workloads.DEFAULT_SEED)
        write_inputs(calls, workdir)
        judge = Judge(calls)
        for k, call in enumerate(calls):
            _, code, stdout, err, exc = invoke(cli, call.resolved_argv(workdir))
            if not judge(k, code, stdout, err, exc):
                print(f"not pinning: {judge.failures[-1]}", file=sys.stderr)
                return 1
        out[workload] = [judge.verified[k][1] for k in range(len(calls))]
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.pin_digests and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(SRC, "quandles")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("QUANDLES_MAX_ITER", None)
    sys.path.insert(0, SRC)
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload or 'pin'}-{os.getpid()}")
    try:
        return pin_digests(workdir) if args.pin_digests else run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)


if __name__ == "__main__":
    sys.exit(main())
