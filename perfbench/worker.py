"""One pass of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --size full|smoke [--spans FILE]
    python3 perfbench/worker.py --workload NAME --seed N --size full|smoke --setup-only

The package caches (cyclo._ZERO_MEMO, qseries._REDUCTIONS, the
cyclotomic_polynomial cache, module element lists) start cold, as in every
CLI call. The worker builds the workload's inputs, notes the monotonic time
at which the first job is ready, runs the jobs one after another and prints
one JSON line: that time, four speed probes (host.probe_s) taken right
after it, each job's key, seconds and answer, the probes to scale each job
by, and the peak resident memory of the process that ran the jobs (the
largest CLI subprocess for cli_mix). With --spans the layers
are traced: setup and jobs are recorded as spans, which are written to FILE,
and the per-layer summary is added to the output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer as tr
import workloads
from host import peak_rss_kib, probe_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIM = os.path.join(HERE, "cli_shim.py")
OUT = os.path.join(ROOT, ".perfbench_out")
CLI_TIMEOUT = 120


def _run_library(jobs, tracer, first_probe):
    """Run the jobs in this process, with a probe after each.

    A job is scaled by the four probes nearest to it, counting first_probe,
    taken before the first job, so that a change of speed within the pass is
    followed and one interrupted probe does not move the job.
    """
    keys, seconds, answers, probes = [], [], [], [first_probe]
    for i, (key, fn) in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            answer = tracer.job_span(i, fn) if tracer else fn()
        except Exception as exc:  # a job that raises is a failed job, not a crash
            answer = {"error": "%s: %s" % (type(exc).__name__, exc)}
        seconds.append(time.perf_counter() - t0)
        probes.append(probe_s())
        keys.append(key)
        answers.append(answer)
    job_probes = [probes[max(j - 1, 0):j + 3] for j in range(len(jobs))]
    return keys, seconds, answers, job_probes


def _write_cli_inputs(golden, work_dir):
    for name, text in golden["cli_files"].items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_cli(jobs, work_dir, traced):
    """Run each job as a subprocess; also return the largest child peak RSS.

    The subprocess may run on another CPU than the worker, so it takes its
    own probes, at its start and at its exit; they scale the job, and their
    time is taken out of the job's time.
    """
    keys, seconds, answers, job_probes, peak = [], [], [], [], 0
    for i, (key, template) in enumerate(jobs):
        stats_file = os.path.join(work_dir, "stats%d.json" % i)
        cmd = [sys.executable, SHIM, "--stats", stats_file]
        if traced:
            cmd += ["--spans", os.path.join(work_dir, "spans%d.json" % i)]
        cmd += [a.replace("{dir}", work_dir) for a in template]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              cwd=ROOT, timeout=CLI_TIMEOUT)
        elapsed = time.perf_counter() - t0
        with open(stats_file, encoding="utf-8") as fh:
            stats = json.load(fh)
        seconds.append(elapsed - sum(stats["probe_s"]))
        job_probes.append(stats["probe_s"])
        peak = max(peak, stats["peak_rss_kib"])
        keys.append(key)
        answers.append({"exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")})
    return keys, seconds, answers, job_probes, peak


def _cli_spans(work_dir, n_jobs):
    """Merged spans of the traced CLI subprocesses, and each one's import time."""
    exports, import_s = [], []
    for i in range(n_jobs):
        with open(os.path.join(work_dir, "spans%d.json" % i), encoding="utf-8") as fh:
            ex = json.load(fh)
        ex["job"] = [i] * len(ex["job"])
        import_s.append(ex.pop("import_s"))
        exports.append(ex)
    return tr.merge(exports), import_s


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = args.workload == "cli_mix"
    golden = None
    if cli:
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
    tracer = None
    if args.spans and not cli:
        tracer = tr.Tracer()
        tracer.install()
    jobs = workloads.build(args.workload, args.seed, args.size, golden)
    if cli:
        os.makedirs(OUT, exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        _write_cli_inputs(golden, work_dir)
    ready = time.monotonic()
    probes = [probe_s() for _ in range(4)]
    if args.setup_only:
        if cli:
            shutil.rmtree(work_dir)
        print(json.dumps({"ready": ready, "probe_s": probes}))
        return
    if cli:
        keys, seconds, answers, job_probes, peak = _run_cli(jobs, work_dir, bool(args.spans))
    else:
        keys, seconds, answers, job_probes = _run_library(jobs, tracer, probes[-1])
        peak = peak_rss_kib()

    out = {"ready": ready, "keys": keys, "job_s": seconds,
           "answers": answers, "probe_s": probes, "job_probe_s": job_probes,
           "peak_rss_kib": peak}
    if args.spans:
        if cli:
            spans, import_s = _cli_spans(work_dir, len(jobs))
            out["cli_import_s"] = statistics.median(import_s)
        else:
            tracer.uninstall()
            spans = tracer.export()
        out["wrappers_left"] = tr.leftover_wrappers()
        out["layers"] = tr.summarize(spans)
        tr.dump(spans, args.spans)
    if cli:
        shutil.rmtree(work_dir)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
