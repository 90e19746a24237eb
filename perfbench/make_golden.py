"""Write perfbench/golden.json, the expected answer of every benchmark job.

    python3 perfbench/make_golden.py

Run from the repository root. Table 1 (picard_rank rows 1..19) is read from
README.md. Larger picard rows and the stdout bytes of every cli_mix
candidate are computed by the code at hand, so the file is generated once
and then kept: a later run of the benchmark compares against it. The three
malformed inputs expect the documented behaviour (exit 2, nothing on
stdout); the exit code they actually gave when the file was made is kept as
``observed_exit``, and ``known_defect`` marks them when it differs.
"""

import json
import os
import random
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from fractions import Fraction as F  # noqa: E402

from discforms import cyclo, dims, fqm, qseries  # noqa: E402

PICARD_NMAX = 30

GRAMS = {
    "A1": [[2]], "A1m": [[-2]], "Z4": [[4]], "Z6": [[6]], "Z8": [[8]],
    "A2": [[2, 1], [1, 2]], "A2m": [[-2, -1], [-1, -2]], "Q15": [[4, 1], [1, 4]],
    "A1Z4": [[2, 0], [0, 4]], "A1Z6": [[2, 0], [0, 6]], "G12": [[4, 2], [2, 4]],
    "U2": [[0, 2], [2, 0]], "U3": [[0, 3], [3, 0]], "U4": [[0, 4], [4, 0]],
    "U5": [[0, 5], [5, 0]], "A1U3": [[2, 0, 0], [0, 0, 3], [0, 3, 0]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "D4": [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
}

LATTICE_SPLITS = {
    "U6": ([[0, 6], [6, 0]], "1,0"),
    "U3": ([[0, 3], [3, 0]], "1,0"),
    "A1U4": ([[2, 0, 0], [0, 0, 4], [0, 4, 0]], "0,1,0"),
    "A1U8": ([[2, 0, 0], [0, 0, 8], [0, 8, 0]], "0,1,0"),
    "Z4U8": ([[4, 0, 0], [0, 0, 8], [0, 8, 0]], "0,1,0"),
    "A2U3": ([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]], "0,0,1,0"),
}

SPECFUN = [("2.0", "0", "0"), ("2.5", "1.0", "0.5"), ("1.5", "0.3", "0.2"),
           ("4.0", "-1.0", "0.7"), ("3.0", "0.5", "-0.4"), ("2.25", "-0.8", "-1.2")]

# (gram, series seed, cyclotomic coefficients)
VVMF = {"U3r": ("U3", 1, False), "U3c": ("U3", 2, True), "U5c": ("U5", 3, True),
        "A1U3r": ("A1U3", 4, False), "A1U3c": ("A1U3", 5, True), "Q15c": ("Q15", 6, True)}


def gram_text(gram):
    return "\n".join([str(len(gram))] + [" ".join(map(str, row)) for row in gram]) + "\n"


def series_text(module, seed, cyclotomic):
    rng = random.Random(seed)
    f = qseries.VectorValuedQSeries(module, F(3), F(2))
    for mu in module.elements():
        m = mu.q()
        while m <= f.truncation:
            if rng.random() < 0.5:
                if cyclotomic:
                    value = cyclo.CyclotomicNumber(12, {rng.randrange(12): F(rng.randint(-9, 9)),
                                                        rng.randrange(12): F(1, rng.randint(1, 4))})
                else:
                    value = F(rng.randint(-9, 9), rng.randint(1, 3))
                f.set(mu, m, value)
            m += 1
    return qseries.write_series(f)


def dims_weight(gram):
    """The smallest weight k > 2 with 2k = signature mod 4."""
    sig = fqm.fqm_from_gram(gram).signature()
    two_k = next(t for t in (5, 6, 7, 8) if (t - sig) % 4 == 0)
    return str(F(two_k, 2))


def candidates():
    files = {name + ".gram": gram_text(g) for name, g in GRAMS.items()}
    jobs = {}
    for name, gram in GRAMS.items():
        path = "{dir}/%s.gram" % name
        jobs["fqm_info:" + name] = ("fqm_info", ["fqm", "info", "--gram", path])
        jobs["weil_check:" + name] = ("weil_check", ["weil", "check", "--gram", path])
        jobs["dims_report:" + name] = ("dims_report", ["dims", "report", "--gram", path,
                                                       "--weight", dims_weight(gram)])
    jobs["table1:19"] = ("table1", ["dims", "table1", "--nmax", "19"])
    for name, (gram, ell) in LATTICE_SPLITS.items():
        files["split_%s.gram" % name] = gram_text(gram)
        jobs["lattice_split:" + name] = ("lattice_split", [
            "lattice", "split", "--gram", "{dir}/split_%s.gram" % name, "--ell", ell])
    jobs["lifts_kernel:11"] = ("lifts_kernel", ["lifts", "kernel", "--p", "11", "--kappa", "2",
                                                "--eta", "1,1:2,11:2"])
    for kappa, a, b in SPECFUN:
        jobs["specfun:%s,%s,%s" % (kappa, a, b)] = ("specfun", [
            "specfun", "vkappa", "--kappa", kappa, "--a", a, "--b", b])
    for name, (gram, seed, cyc) in VVMF.items():
        files[name + ".series"] = series_text(fqm.fqm_from_gram(GRAMS[gram]), seed, cyc)
        jobs["vvmf_check:" + name] = ("vvmf_check", [
            "vvmf", "check", "--gram", "{dir}/%s.gram" % gram, "--series",
            "{dir}/%s.series" % name])
    # The three malformed inputs named in ROADMAP.md; the README promises exit 2.
    files["bad_entry.gram"] = "2\n2 1.5\n1.5 2\n"
    files["bad_coeff.series"] = "module: 3,3\nweight: 3/1\ntruncation: 2/1\nmu=(1,1) m=1/3 coeff=zz\n"
    malformed = {
        "malformed:gram_non_integer": ["fqm", "info", "--gram", "{dir}/bad_entry.gram"],
        "malformed:gram_missing": ["fqm", "info", "--gram", "{dir}/missing.gram"],
        "malformed:coeff_zz": ["vvmf", "check", "--gram", "{dir}/U3.gram",
                               "--series", "{dir}/bad_coeff.series"],
    }
    return files, jobs, malformed


def run_cli(argv, input_dir):
    cmd = [sys.executable, os.path.join(HERE, "cli_shim.py")]
    cmd += [a.replace("{dir}", input_dir) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
                          env=env, timeout=300)
    return proc.returncode, proc.stdout.decode("utf-8")


def main():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    rows = re.search(r"prints tab-separated `N rank` rows:\s*([\d,\s]+)\.", readme).group(1)
    table1 = [int(x) for x in rows.replace("\n", " ").split(",")]
    picard = {str(n): dims.picard_rank(n) for n in range(len(table1) + 1, PICARD_NMAX + 1)}

    files, jobs, malformed = candidates()
    input_dir = os.path.join(ROOT, ".perfbench_out", "golden_inputs")
    os.makedirs(input_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(input_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    cli = {}
    for key, (category, argv) in sorted(jobs.items()):
        code, stdout = run_cli(argv, input_dir)
        if code != 0:
            raise SystemExit("candidate %s exited %d" % (key, code))
        cli[key] = {"category": category, "argv": argv, "exit": 0, "stdout": stdout}
    for key, argv in malformed.items():
        code, stdout = run_cli(argv, input_dir)
        cli[key] = {"category": "malformed", "argv": argv, "exit": 2, "stdout": "",
                    "observed_exit": code, "known_defect": code != 2 or stdout != ""}
    golden = {"table1": table1, "picard": picard, "cli_files": files, "cli": cli}
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
