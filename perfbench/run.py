"""The spankit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; spankit is imported from
``src/`` through PYTHONPATH, never from an installed copy.  Workloads
(see BENCHMARK.json for why each exists):

    nerve   path-category nerves, grid objects, labelled limits
    linear  exact elimination on large and tiny matrices, fillings
    spans   cartesian replacement, reindexing, finite limits, Kan, ends
    cli     cold ``python -m spankit.cli`` runs, one child at a time

Each workload is a closed loop with one client: a pass runs the seeded
job list once, one job at a time, in a fresh worker process (so no cache
survives from one pass to the next, as for a user running a script).
Passes repeat while the next one fits in S seconds.  Every job's output
is checked.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics, its times divided by the host slowdown measured in the same
pass (see ``_slowdown``).  With ``--trace 1`` passes alternate untraced and traced; the
last line carries the per-layer metrics from the traced passes and the
tracing overhead.  The lines before it are a human-readable report and
one JSON report line with sample counts, output counts, failures and the
environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import benchstats
import spantrace

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nerve", "linear", "spans", "cli")
OUT_DIR = ".bench_out"
RUN_LIMIT_S = 150          # a pass may not start after this
PROBE_REPEATS = 5          # fresh-interpreter timings for cli.import_s
MIN_JOB_SAMPLES = 100      # p90 with ten samples beyond it
# Seconds per reference-kernel iteration (worker.reference_iteration) at
# the nominal machine speed the reported times refer to: about the median
# speed of a shared 2-core x86-64 host running Python 3.11.
NOMINAL_S_PER_REFERENCE = 1.5e-3


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _run_child(argv, env, cwd, timeout):
    """Run a child in its own session; on timeout kill the whole group
    and wait for it.  Returns (exit code, stdout, stderr)."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s timed out after %.0f s" % (argv[1:3], timeout))
    return proc.returncode, out, err


def _bench_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def _run_pass(root, workload, seed, index, trace, timeout):
    workdir = os.path.join(root, OUT_DIR, workload, "pass%d" % index)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            str(seed), workdir, "1" if trace else "0"]
    t0 = time.perf_counter()
    code, out, err = _run_child(argv, _bench_env(root), root, timeout)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise BenchError("worker for %s pass %d exited %d:\n%s" % (
            workload, index, code, err.decode(errors="replace")[-2000:]))
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["traced"] = trace
    result["process_s"] = elapsed
    return result


def run_passes(root, workload, seed, seconds, trace):
    """Passes while the next one fits in ``seconds``: all untraced, or
    alternating untraced and traced (at least one of each).  An untraced
    run also goes on until it has MIN_JOB_SAMPLES job times, so that
    ``job_p90_ms`` has ten samples beyond it."""
    begin = time.perf_counter()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.perf_counter() - begin
        same_kind = [p["process_s"] for p in passes if p["traced"] == traced]
        expected = max(same_kind) if same_kind else 0.0
        enough = (len(passes) >= 2 if trace else
                  sum(len(p["jobs"]) for p in passes) >= MIN_JOB_SAMPLES)
        if passes and (elapsed > RUN_LIMIT_S
                       or (enough and elapsed + expected > seconds)):
            break
        passes.append(_run_pass(root, workload, seed, len(passes), traced,
                                max(10.0, RUN_LIMIT_S + 20 - elapsed)))
    return passes


def probe_import(root, repeats=PROBE_REPEATS):
    """Median wall time of a bare fresh interpreter and of one that
    imports spankit, alternating the two."""
    env = _bench_env(root)
    bare, loaded = [], []
    for _ in range(repeats):
        for argv, sink in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import spankit"], loaded)):
            t0 = time.perf_counter()
            code, _out, err = _run_child(argv, env, root, 60)
            sink.append(time.perf_counter() - t0)
            if code != 0:
                raise BenchError("import probe failed: %s" % err.decode())
    return benchstats.median(bare), benchstats.median(loaded)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _slowdown(p):
    """How much slower than nominal the machine ran during pass p.

    On a shared host the same pass takes from 1x to 2x as long from one
    minute to the next, for every piece of code alike.  The worker times a
    fixed reference kernel, in slices between the jobs, throughout each
    pass; every time the pass measured is divided by the slowdown that
    kernel saw, so the reported times are those of a nominal machine and
    a change to spankit shows through the host's drift."""
    return p["reference_s_per_iter"] / NOMINAL_S_PER_REFERENCE


def _measured_wall(p):
    return sum(j["s"] for j in p["jobs"])


def _wall(p):
    return _measured_wall(p) / _slowdown(p)


def end_to_end(passes):
    untraced = [p for p in passes if not p["traced"]]
    samples = [j["s"] / _slowdown(p) for p in untraced for j in p["jobs"]]
    jobs = [j for p in passes for j in p["jobs"]]
    return {
        "wall_s": (benchstats.median([_wall(p) for p in untraced]), "s"),
        "job_p50_ms": (1e3 * benchstats.percentile(samples, 50), "ms"),
        "job_p90_ms": (1e3 * benchstats.percentile(samples, 90), "ms"),
        "setup_s": (benchstats.median([p["setup_s"] / _slowdown(p)
                                       for p in passes]), "s"),
        "peak_rss_mib": (benchstats.median(
            [p["peak_rss_kib"] / 1024.0 for p in untraced]), "MiB"),
        "ok_share": (1.0 - benchstats.failed_share(j["ok"] for j in jobs),
                     "share"),
    }


def _count_sum(p, pred):
    return sum(j["count"] for j in p["jobs"] if pred(j))


def per_layer(passes, probe):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    med = benchstats.median

    def over_traced(fn):
        return med([fn(p) for p in traced])

    def name_count(name):
        return over_traced(lambda p: p["trace"]["names"].get(name, 0))

    def counter(key):
        return over_traced(lambda p: p["trace"]["counters"][key])

    metrics = {}
    for layer in spantrace.LAYERS:
        metrics[layer + ".calls"] = (over_traced(
            lambda p: p["trace"]["layers"].get(layer, (0, 0.0))[0]), "count")
        metrics[layer + ".self_s"] = (over_traced(
            lambda p: p["trace"]["layers"].get(layer, (0, 0.0))[1]), "s")

    def accept_ratio(p):
        c = p["trace"]["counters"]
        if c["pathnerve.nerve_candidates"]:
            return (c["pathnerve.nerve_simplices"]
                    / c["pathnerve.nerve_candidates"])
        return 1.0 if c["pathnerve.nerve_simplices"] else 0.0

    def per_solve(p):
        solves = p["trace"]["names"].get("pushpull.filling_iso_solutions", 0)
        return p["trace"]["rref_in_filling"] / solves if solves else 0.0

    jobs = [j for p in passes for j in p["jobs"]]
    exit2 = [j for j in jobs if j["name"].startswith("malformed")]
    bare_s, loaded_s = probe
    metrics.update({
        "pathnerve.grid_act_calls": (name_count("pathnerve.grid_act"),
                                     "count"),
        "pathnerve.nerve_accept_ratio": (over_traced(accept_ratio), "ratio"),
        "pathnerve.elements_out": (over_traced(lambda p: _count_sum(
            p, lambda j: j["layer"] == "pathnerve")), "count"),
        "fincat.limit_elements_out": (over_traced(lambda p: _count_sum(
            p, lambda j: j["layer"] == "fincat")), "count"),
        "spans.replaced_labels_out": (over_traced(lambda p: _count_sum(
            p, lambda j: j["name"].startswith("cartesian_replacement"))),
            "count"),
        "ratlin.rref_calls": (name_count("ratlin.rref"), "count"),
        "ratlin.rref_entries": (counter("ratlin.rref_entries"), "count"),
        "ratlin.rref_max_cols": (counter("ratlin.rref_max_cols"), "count"),
        "pushpull.filling_solves": (
            name_count("pushpull.filling_iso_solutions"), "count"),
        "pushpull.pullback_map_calls": (name_count("pushpull.pullback_map"),
                                        "count"),
        "pushpull.rref_per_filling_solve": (over_traced(per_solve), "ratio"),
        "crw.d_matrix_entries": (counter("crw.d_matrix_entries"), "count"),
        "cli.import_s": (loaded_s - bare_s, "s"),
        "cli.interp_s": (bare_s, "s"),
        "cli.exit2_json_ratio": (
            sum(1 for j in exit2 if j["json_error"]) / len(exit2)
            if exit2 else 0.0, "ratio"),
        "cli.traceback_jobs": (med([sum(1 for j in p["jobs"]
                                        if j.get("traceback"))
                                    for p in passes]), "count"),
        # measured walls: the tracer's spans enlarge the heap, which slows
        # the reference kernel too, so dividing would hide the overhead
        "trace.overhead_share": (
            med([_measured_wall(p) for p in traced])
            / med([_measured_wall(p) for p in untraced]) - 1.0, "share"),
    })
    return metrics


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def environment(root):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    _code, out, _err = _run_child(
        [sys.executable, "-c",
         "import importlib.util; print(importlib.util.find_spec('spankit')"
         " is not None)"], env, HERE, 60)
    return {"git_sha": sha or "unknown (not a git checkout)",
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "spankit_source": "PYTHONPATH=src",
            "spankit_installed": out.decode().strip() == "True"}


def report(workload, seed, seconds, trace, passes, metrics, env):
    jobs = [j for p in passes for j in p["jobs"]]
    untraced_samples = sum(len(p["jobs"]) for p in passes if not p["traced"])
    failures = [{"job": j["name"], "detail": j["detail"]}
                for j in jobs if not j["ok"]]
    per_job_counts = {}   # job name -> [jobs, summed output count]
    for j in passes[0]["jobs"]:
        entry = per_job_counts.setdefault(j["name"], [0, 0])
        entry[0] += 1
        entry[1] += j["count"]
    tail = benchstats.tail_percentile(untraced_samples)
    lines = ["workload %s  seed %d  %d passes (%d traced) in %.0f s budget"
             % (workload, seed, len(passes),
                sum(1 for p in passes if p["traced"]), seconds)]
    for name, (value, unit) in metrics.items():
        lines.append("  %-34s %14.6g %s" % (name, value, unit))
    share = benchstats.failed_share(j["ok"] for j in jobs)
    lines.append("  %-34s %14.6g share  (%d of %d jobs)"
                 % ("failed_share", share, len(failures), len(jobs)))
    untraced = [p for p in passes if not p["traced"]]
    raw = [j["s"] for p in untraced for j in p["jobs"]]
    lines.append("  as measured, before dividing by the host slowdown (median "
                 "%.3f): wall_s %.6g, job_p50_ms %.6g, job_p90_ms %.6g, "
                 "setup_s %.6g" % (
                     benchstats.median([_slowdown(p) for p in passes]),
                     benchstats.median([_measured_wall(p) for p in untraced]),
                     1e3 * benchstats.percentile(raw, 50),
                     1e3 * benchstats.percentile(raw, 90),
                     benchstats.median([p["setup_s"] for p in passes])))
    lines.append("  samples: %d job times (p90 needs 100; highest supported "
                 "percentile p%s), %d passes for wall_s, setup_s and "
                 "peak_rss_mib" % (untraced_samples, tail,
                                   sum(1 for p in passes if not p["traced"])))
    if trace:
        layers = {}
        for p in passes:
            if p["traced"]:
                for layer, (_calls, self_s) in p["trace"]["layers"].items():
                    layers.setdefault(layer, []).append(self_s)
        total = sum(benchstats.median(v) for v in layers.values()) or 1.0
        lines.append("  self-time shares: " + ", ".join(
            "%s %.3f" % (layer, benchstats.median(v) / total)
            for layer, v in sorted(layers.items())))
    doc = {"workload": workload, "seed": seed, "trace": trace,
           "environment": env,
           "job_list_digest": passes[0]["digest"],
           "passes": len(passes),
           "job_samples": untraced_samples,
           "tail_percentile": tail,
           "failed_share": share,
           "failures": failures[:20],
           "output_counts": per_job_counts,
           "pass_slowdown": [_slowdown(p) for p in passes],
           "pass_wall_s": [_wall(p) for p in passes],
           "pass_measured_wall_s": [_measured_wall(p) for p in passes],
           "pass_measured_setup_s": [p["setup_s"] for p in passes]}
    return lines, doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spankit",
                                       "__init__.py")):
        print("run.py: no src/spankit here; run from the root of a spankit "
              "checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        passes = run_passes(root, args.workload, args.seed, args.seconds,
                            bool(args.trace))
        if len({p["digest"] for p in passes}) != 1:
            raise BenchError("passes of one seed ran different job lists")
        if args.trace:
            metrics = per_layer(passes, probe_import(root))
        else:
            metrics = end_to_end(passes)
        env = environment(root)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    lines, doc = report(args.workload, args.seed, args.seconds,
                        bool(args.trace), passes, metrics, env)
    for line in lines:
        print(line)
    print("report " + json.dumps(doc, sort_keys=True))
    jobs = [j for p in passes for j in p["jobs"]]
    # A wrong answer or a crash on well-formed input makes the run
    # incorrect; malformed inputs that break the exit-code contract are
    # counted as failed jobs (the known defects) without doing so.
    correct = all(j["ok"] for j in jobs if not j["name"].startswith(
        "malformed"))
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if not j["ok"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
