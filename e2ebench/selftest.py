#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark (about a minute):

    python3 e2ebench/selftest.py

1. CLI validation: an unknown workload, an unknown flag and a non-numeric
   seed each exit 2 with a message and print no result.
2. Every workload at tiny size, untraced and traced: the run passes and
   every metric named in BENCHMARK.json prints with its unit.
3. A deliberately perturbed reference digest is reported as a failed run.
4. The seed-2025 paper-grid subset reproduces fig5_response_time.csv.
"""
import subprocess
import sys

import run

SEED = 11


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    return bool(cond)


def cli_rejects(args):
    p = subprocess.run([sys.executable, str(run.HERE / "run.py")] + args,
                       capture_output=True, text=True)
    return p.returncode == 2 and not p.stdout.strip() and p.stderr.strip()


def prints_all(result, metrics):
    got = result["metrics"]
    return all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
               and isinstance(got[m["name"]]["value"], (int, float))
               for m in metrics)


def main():
    spec = run.load_spec()
    ok = True
    ok &= check(cli_rejects(["--workload", "paper_grd", "--seed", "1"]),
                "unknown workload exits 2")
    ok &= check(cli_rejects(["--workload", "paper_grid", "--seed", "1",
                             "--sedcons", "3"]), "unknown flag exits 2")
    ok &= check(cli_rejects(["--workload", "paper_grid", "--seed", "x1"]),
                "non-numeric seed exits 2")

    log = open(run.OUT.parent / "e2ebench-selftest.log", "w") \
        if run.OUT.parent.is_dir() else subprocess.DEVNULL
    for w in run.WORKLOADS:
        for trace, metrics in ((False, spec["end_to_end"]),
                               (True, spec["per_layer"])):
            r = run.run_benchmark(w, SEED, 0.1, trace, tiny=True, min_reps=1,
                                  log=log)
            label = f"{w} tiny {'traced' if trace else 'untraced'}"
            ok &= check(r["correct"] and r["failed"] == 0, label + " passes")
            ok &= check(prints_all(r, metrics),
                        label + " prints every metric with its unit")

        record, err = run.run_child(["--workload", w, "--seed", str(SEED),
                                     "--tiny", "--out",
                                     str(run.OUT / w)], log)
        bad = record["digest"][:-1] + ("0" if record["digest"][-1] != "0"
                                       else "1")
        r = run.run_benchmark(w, SEED, 0.1, False, tiny=True, min_reps=1,
                              references={w: {str(SEED): bad}}, log=log)
        ok &= check(err is None and not r["correct"] and r["failed"] >= 1,
                    f"{w} perturbed digest is a failed run")

    _, err = run.run_child(["--fig5-check",
                            str(run.ROOT / "fig5_response_time.csv")], log)
    ok &= check(err is None, "paper_grid seed-2025 subset matches fig5 CSV")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
