"""The discforms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The load is a closed loop with one client:
this process starts one worker interpreter at a time, and each worker runs
one pass (every job of the workload, in order, from cold caches). Passes
repeat until --seconds is used up, with at least two (one untraced and one
traced pass with --trace 1). The work of a pass is fixed by the workload and
the seed, never by --seconds. Every answer is checked exactly against
golden.json.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes, requires their answers to agree, and prints the per-layer
metrics. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A results file with a run manifest goes to
.perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("weil_relations", "picard_table", "newform_roundtrip", "cli_mix")
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "peak_rss_mb": "MiB"}
# failed_frac is printed with the others but is not a JSON metric: it is 0 on
# the library workloads, and the JSON line carries attempted and failed.
FAILED_FRAC_UNIT = "ratio"
TAIL_BEYOND = 10
# Set-up-only workers started after each pass, so that setup_s is a median of
# many samples even when a run has only two passes.
SETUP_SAMPLES = 4
# Times are reported in seconds of a machine on which host.probe_s() takes
# this long (see "Noise" in README.md).
PROBE_REF_S = 0.004
PASS_TIMEOUT = 150
RUN_LIMIT = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check(workload, key, answer, golden):
    """(passed, known_defect) for one job's answer."""
    if isinstance(answer, dict) and "error" in answer:
        return False, False
    if workload == "picard_table":
        n = int(key.split(":")[1])
        table1 = golden["table1"]
        want = table1[n - 1] if n <= len(table1) else golden["picard"].get(str(n))
        return want is not None and answer == want, False
    if workload == "cli_mix":
        spec = golden["cli"][key.split(":", 1)[1]]
        ok = answer["exit"] == spec["exit"] and answer["stdout"] == spec["stdout"]
        return ok, bool(spec.get("known_defect"))
    # weil_relations and newform_roundtrip: every exact relation must hold
    return (isinstance(answer, dict) and bool(answer)
            and all(v is True for v in answer.values())), False


# -- one pass -------------------------------------------------------------------------


def launch(workload, seed, size, *extra):
    """Run one worker; return its result and its set-up time (launch to ready)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--size", size] + list(extra)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, env=env, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass exceeded %d s" % (workload, PASS_TIMEOUT))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s worker exited %d:\n%s" % (
            workload, proc.returncode, proc.stderr.decode("utf-8", "replace")[-2000:]))
    res = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
    return res, res["ready"] - launched


def to_reference(seconds, probes):
    """seconds measured while the probe took median(probes), at the reference speed."""
    return seconds * PROBE_REF_S / statistics.median(probes)


def run_pass(workload, seed, size, spans=None):
    """One pass, with its times scaled to the reference speed of the probe.

    Set-up is scaled by the four probes the worker took right after it, and
    each job by the probes the worker took for it. The measured times stay
    in raw_setup_s and raw_job_s.
    """
    res, setup_s = launch(workload, seed, size, *(["--spans", spans] if spans else []))
    res["raw_job_s"], res["raw_setup_s"] = res["job_s"], setup_s
    res["setup_s"] = to_reference(setup_s, res["probe_s"])
    res["job_s"] = [to_reference(t, p) for t, p in zip(res["raw_job_s"], res["job_probe_s"])]
    res["wall_s"] = sum(res["job_s"])
    return res


def setup_sample(workload, seed, size):
    """Set-up time of one more worker that stops when its first job is ready."""
    res, setup_s = launch(workload, seed, size, "--setup-only")
    return to_reference(setup_s, res["probe_s"])


def grade(workload, res, golden):
    res["failed"] = []
    res["unexpected"] = []
    for key, answer in zip(res["keys"], res["answers"]):
        ok, known = check(workload, key, answer, golden)
        if not ok:
            res["failed"].append(key)
            if not known:
                res["unexpected"].append(key)


# -- a run: passes until the time is used ----------------------------------------------


def measure(workload, seed, seconds, trace, golden, size="full", min_passes=2):
    os.makedirs(OUT, exist_ok=True)
    untraced, traced, setups = [], [], []
    problems = []
    start = time.monotonic()
    while True:
        res = run_pass(workload, seed, size)
        grade(workload, res, golden)
        untraced.append(res)
        if not trace:
            setups += [res["setup_s"]] + [setup_sample(workload, seed, size)
                                          for _ in range(SETUP_SAMPLES)]
        else:
            spans = os.path.join(OUT, "spans-%s-seed%d-pass%d.json" % (workload, seed, len(traced)))
            tres = run_pass(workload, seed, size, spans)
            grade(workload, tres, golden)
            traced.append(tres)
            if tres["keys"] != res["keys"] or tres["answers"] != res["answers"]:
                problems.append("traced answers differ from untraced answers")
            if tres["wrappers_left"]:
                problems.append("wrappers left installed: %s" % tres["wrappers_left"])
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(untraced)
        enough = len(untraced) >= (1 if trace else min_passes)
        if next_end > RUN_LIMIT or (enough and next_end > seconds):
            break
    passes = untraced + traced
    unexpected = sorted({k for p in passes for k in p["unexpected"]})
    if unexpected:
        problems.append("wrong answers: %s" % ", ".join(unexpected))
    return {"workload": workload, "seed": seed, "size": size, "trace": trace,
            "untraced": untraced, "traced": traced, "setups": setups, "problems": problems,
            "attempted": sum(len(p["keys"]) for p in passes),
            "failed": sum(len(p["failed"]) for p in passes)}


def end_to_end(rec):
    passes = rec["untraced"]
    n_jobs = len(passes[0]["job_s"])
    per_job = sorted(statistics.median(p["job_s"][j] for p in passes) for j in range(n_jobs))
    tail = max(n_jobs - 1 - TAIL_BEYOND, 0)
    rec["tail"] = {"percentile": 100.0 * (tail + 1) / n_jobs, "jobs": n_jobs,
                   "beyond": n_jobs - 1 - tail}
    return {"setup_s": statistics.median(rec["setups"]),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": per_job[tail],
            "peak_rss_mb": statistics.median(p["peak_rss_kib"] for p in passes) / 1024.0}


def per_layer(rec, golden):
    traced = rec["traced"]
    out = {m: statistics.median(p["layers"][m] for p in traced)
           for m in LAYER_METRICS if m in traced[0]["layers"]}
    cli = rec["workload"] == "cli_mix"
    out["cli.import_s"] = statistics.median(p["cli_import_s"] for p in traced) if cli else 0.0
    out["cli.spawn_to_exit_s"] = statistics.median(
        statistics.median(p["raw_job_s"]) for p in traced) if cli else 0.0
    out["cli.exit_code_mismatch"] = statistics.median(
        sum(a["exit"] != golden["cli"][k.split(":", 1)[1]]["exit"]
            for k, a in zip(p["keys"], p["answers"])) for p in traced) if cli else 0
    out["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                   / statistics.median(p["wall_s"] for p in rec["untraced"]))
    return out


# -- manifest and report ------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() or None


def _source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "discforms")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def manifest(workload, seed, seconds, trace):
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "platform": platform.platform(),
            "commit": _commit(), "source_sha256": _source_sha256(),
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "loadavg_before": os.getloadavg()}


def report_lines(rec, metrics):
    w = rec["workload"]
    passes = rec["untraced"]
    lines = ["%s seed=%d passes=%d jobs_per_pass=%d" % (
        w, rec["seed"], len(passes), len(passes[0]["keys"]))]
    if rec["trace"]:
        for name, unit in LAYER_METRICS.items():
            lines.append("%s %s %.6g %s" % (w, name, metrics[name], unit))
        return lines
    for name, unit in END_TO_END.items():
        line = "%s %s %.6g %s" % (w, name, metrics[name], unit)
        if name == "job_tail_s":
            t = rec["tail"]
            line += " (p%.1f of %d jobs per pass, %d jobs beyond)" % (
                t["percentile"], t["jobs"], t["beyond"])
        lines.append(line)
    frac = rec["failed"] / rec["attempted"]
    lines.append("%s failed_frac %.6g %s (%d of %d jobs)" % (
        w, frac, FAILED_FRAC_UNIT, rec["failed"], rec["attempted"]))
    lines.append("%s unscaled: setup %.6g s, wall %.6g s; probe %.6g s against %g s" % (
        w, statistics.median(p["raw_setup_s"] for p in passes),
        statistics.median(sum(p["raw_job_s"]) for p in passes),
        statistics.median(statistics.median(p["probe_s"]) for p in passes), PROBE_REF_S))
    return lines


def run_workload(workload, seed, seconds, trace, size="full", min_passes=2):
    """Measure one workload; return (report lines, metrics, record)."""
    info = manifest(workload, seed, seconds, trace)
    golden = load_golden()
    rec = measure(workload, seed, seconds, trace, golden, size, min_passes)
    metrics = per_layer(rec, golden) if trace else end_to_end(rec)
    info["loadavg_after"] = os.getloadavg()
    info["sizes"] = {"size": size, "passes": len(rec["untraced"]),
                     "traced_passes": len(rec["traced"]),
                     "jobs_per_pass": len(rec["untraced"][0]["keys"]),
                     "jobs": rec["untraced"][0]["keys"]}
    results = {"manifest": info, "metrics": metrics, "problems": rec["problems"],
               "attempted": rec["attempted"], "failed": rec["failed"], "tail": rec.get("tail"),
               "passes": [{k: p[k] for k in ("setup_s", "wall_s", "job_s", "raw_setup_s",
                                             "raw_job_s", "probe_s", "job_probe_s", "peak_rss_kib",
                                             "failed")}
                          for p in rec["untraced"] + rec["traced"]]}
    path = os.path.join(OUT, "results-%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return report_lines(rec, metrics), metrics, rec


# -- smoke mode --------------------------------------------------------------------------


def smoke():
    """Tiny run of every workload and the tracer; returns a list of failures."""
    failures = []
    sys.path.insert(0, SRC)
    import tracer as tr
    for workload in WORKLOADS:
        lines, _m, rec = run_workload(workload, 1, 0, 0, size="smoke", min_passes=1)
        print("\n".join(lines))
        for name, unit in list(END_TO_END.items()) + [("failed_frac", FAILED_FRAC_UNIT)]:
            if not any(ln.split()[1:2] == [name] and ln.split()[3] == unit for ln in lines):
                failures.append("%s: %s not printed with unit %s" % (workload, name, unit))
        failures += ["%s: %s" % (workload, p) for p in rec["problems"]]
        lines, metrics, rec = run_workload(workload, 1, 0, 1, size="smoke")
        missing = [m for m in LAYER_METRICS if m not in metrics]
        if missing:
            failures.append("%s: traced output lacks %s" % (workload, ", ".join(missing)))
        failures += ["%s (traced): %s" % (workload, p) for p in rec["problems"]]
    tracer = tr.Tracer()
    tracer.install(with_cli=True)
    installed = len(tr.leftover_wrappers())
    tracer.uninstall()
    if not installed or tr.leftover_wrappers():
        failures.append("in-process install/uninstall left wrappers: %s" % tr.leftover_wrappers())
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench, encoding="utf-8") as fh:
            spec = json.load(fh)
        if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
            failures.append("BENCHMARK.json end_to_end names differ from run.py")
        if [m["name"] for m in spec["per_layer"]] != list(LAYER_METRICS):
            failures.append("BENCHMARK.json per_layer names differ from tracer.py")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of all workloads and the tracer, with self-checks")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "discforms", "__init__.py")):
        print("run.py: no discforms sources under %s" % SRC, file=sys.stderr)
        return 2
    import compileall
    for d in (os.path.join(SRC, "discforms"), HERE):
        compileall.compile_dir(d, quiet=1)
    try:
        if args.smoke:
            failures = smoke()
            for f in failures:
                print("smoke: FAIL %s" % f)
            print("smoke: %s" % ("FAIL" if failures else "PASS"))
            return 1 if failures else 0
        if args.workload is None:
            parser.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        units = dict(END_TO_END, **LAYER_METRICS)
        metrics, correct, attempted, failed = {}, True, 0, 0
        for name in names:
            lines, m, rec = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            for p in rec["problems"]:
                print("%s PROBLEM %s" % (name, p), flush=True)
            prefix = "" if len(names) == 1 else name + "."
            for k, v in m.items():
                metrics[prefix + k] = {"value": v, "unit": units[k]}
            correct = correct and not rec["problems"]
            attempted += rec["attempted"]
            failed += rec["failed"]
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
