"""One pass of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR TRACE

Set-up (timed as ``setup_s``): import spankit, generate the seeded job
list and write its inputs under WORKDIR.  Then every job runs once, in a
closed loop: one job at a time, its output checked (untimed, untraced)
before the next starts.  The pass result is printed as one JSON line.

With TRACE=1 the spankit layers are wrapped (see ``spantrace``) and the
spans are written to WORKDIR/spans.json when the pass ends.  The cli
workload traces its child processes through ``childtrace/sitecustomize``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import benchstats  # noqa: E402
import spantrace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_JOB_TIMEOUT_S = 120
REFERENCE_ITERATIONS = 160   # per pass, spread over the jobs
_REFERENCE_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + j) % 3)
                      for j in range(7)] for i in range(7)]


def reference_iteration():
    """One iteration of the reference kernel: exact elimination of a fixed
    7 x 7 rational matrix, then tuple, frozenset and dict churn.  It is the
    kind of work spankit does, in code that is not spankit's, so a change
    to spankit cannot change its time; only the machine can."""
    m = [row[:] for row in _REFERENCE_MATRIX]
    for c in range(7):
        p = next((r for r in range(c, 7) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(7):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    table = {}
    for i in range(60):
        key = tuple(range(i % 7))
        table[key] = frozenset(key) | {i % 11}
    return m, table


class Reference:
    """Times a few reference iterations before every job, so that the
    machine's speed is sampled throughout the pass, next to the jobs."""

    def __init__(self, n_jobs):
        self.per_job = -(-REFERENCE_ITERATIONS // max(1, n_jobs))
        self.seconds = 0.0
        self.iterations = 0

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(self.per_job):
            reference_iteration()
        self.seconds += time.perf_counter() - t0
        self.iterations += self.per_job

    def seconds_per_iteration(self):
        return self.seconds / self.iterations


def _in_process_pass(workload, seed, workdir, trace):
    import spankit  # noqa: F401  (the import is part of set-up)
    import workloads
    jobs = workloads.build(workload, seed)
    specs = [job.spec for job in jobs]
    with open(os.path.join(workdir, "inputs.json"), "w") as fh:
        json.dump(specs, fh)
    setup_s = time.perf_counter() - T_START

    tracer = None
    if trace:
        tracer = spantrace.Tracer()
        tracer.install()
    records = []
    reference = Reference(len(jobs))
    jobs.reverse()
    while jobs:
        # Each job starts on a collected heap holding no earlier job's
        # results, so its time does not depend on the seeded job order.
        gc.collect()
        reference.sample()
        job = jobs.pop()
        t0 = time.perf_counter()
        try:
            result = job.run()
            error = None
        except Exception:  # a raising job is a failed job, not a crash
            error = traceback.format_exc(limit=3)
            result = None
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        if error is None:
            ok, count, detail = job.check(result)
        else:
            ok, count, detail = False, 0, error
        if tracer:
            tracer.enabled = True
        records.append({"name": job.name, "layer": job.layer,
                        "s": elapsed, "ok": ok, "count": count,
                        "detail": detail})
        del job, result
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return setup_s, specs, records, peak_kib, tracer, reference


def _cli_pass(seed, workdir, trace):
    import spankit  # noqa: F401  (the import is part of set-up)
    import cliload
    jobs = cliload.build(seed)
    specs = [job.spec for job in jobs]
    cliload.write_inputs(jobs, workdir)
    with open(os.path.join(workdir, "inputs.json"), "w") as fh:
        json.dump(specs, fh)
    src = os.path.dirname(os.path.dirname(spankit.__file__))
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = src
    setup_s = time.perf_counter() - T_START

    tracer = spantrace.Tracer() if trace else None
    records = []
    reference = Reference(len(jobs))
    for i, job in enumerate(jobs):
        reference.sample()
        jobdir = os.path.join(workdir, str(i))
        env = base_env
        spans_path = os.path.join(jobdir, "child-spans.json")
        if tracer:
            env = dict(base_env)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(HERE, "childtrace"), src])
            env["PERFBENCH_SPANS"] = spans_path
        t0 = time.perf_counter()
        code, stdout, stderr = cliload.run(job, jobdir, env, CLI_JOB_TIMEOUT_S)
        t1 = time.perf_counter()
        ok, count, detail = job.check(code, stdout, stderr)
        record = {"name": job.name, "layer": "cli", "s": t1 - t0, "ok": ok,
                  "count": count, "detail": detail,
                  "json_error": (job.expect_exit2 and code == 2
                                 and cliload.stderr_is_json_error(stderr)),
                  "traceback": b"Traceback (most recent call last)" in stderr}
        records.append(record)
        if tracer:
            _adopt_child_spans(tracer, job, spans_path, t0, t1)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return setup_s, specs, records, peak_kib, tracer, reference


def _adopt_child_spans(tracer, job, path, t0, t1):
    """Record the child process as one ``cli`` span and hang the spans it
    wrote below it.  Both processes read CLOCK_MONOTONIC, so the times
    share one axis."""
    root = len(tracer.spans)
    tracer.spans.append((-1, "cli", "cli." + job.argv[0], t0, t1))
    try:
        with open(path) as fh:
            child = json.load(fh)
    except FileNotFoundError:  # the child died before its exit handlers
        return
    for parent, layer, name, s0, s1 in child["spans"]:
        tracer.spans.append((root if parent < 0 else root + 1 + parent,
                             layer, name, s0, s1))
    for key, val in child["counters"].items():
        if key.endswith("_max_cols"):
            tracer.counters[key] = max(tracer.counters[key], val)
        else:
            tracer.counters[key] += val


def _trace_summary(tracer):
    spans = tracer.spans
    names = benchstats.name_counts(spans)
    return {"layers": benchstats.self_times(spans),
            "names": names,
            "counters": tracer.counters,
            "rref_in_filling": benchstats.calls_under(
                spans, "ratlin.rref", "pushpull.filling_iso_solutions")}


def main(argv):
    workload, seed, workdir, trace = argv[1], int(argv[2]), argv[3], argv[4]
    trace = trace == "1"
    os.makedirs(workdir, exist_ok=True)
    if workload == "cli":
        setup_s, specs, records, peak_kib, tracer, reference = _cli_pass(
            seed, workdir, trace)
    else:
        setup_s, specs, records, peak_kib, tracer, reference = (
            _in_process_pass(workload, seed, workdir, trace))
    out = {"setup_s": setup_s, "digest": benchstats.job_digest(specs),
           "jobs": records, "peak_rss_kib": peak_kib,
           "reference_s_per_iter": reference.seconds_per_iteration()}
    if tracer:
        tracer.dump(os.path.join(workdir, "spans.json"))
        out["trace"] = _trace_summary(tracer)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
