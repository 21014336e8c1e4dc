"""Run the benchmark over several seeds and check that it is steady.

    python3 bench/record.py --seeds 1-10 --sets 2 --out bench/results/baseline.json

Runs bench/run.py (untraced) for every workload and seed, seed by seed
so that slow drift of the machine falls on all workloads alike, and
repeats the whole round `--sets` times. For each set it reports, per
workload and end-to-end metric of BENCHMARK.json, the median, the
quartiles and the spread (quartile distance over median) against the
metric's bound; across sets it compares medians against the bounds and
requires identical output digests for identical seeds. With --out the
summary and the machine facts are written as JSON. The exit code is 1
when a run fails its checks, a spread (setup_s excepted) or a median
moves past its bound, or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((ROOT / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return {"line": line, "digest": result["digest"], "rows": result["rows"], "machine": result["machine"]}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds, workloads = _seeds(args.seeds), args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}  # (set, workload, seed) -> run
    for s in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                run = run_once(workload, seed, args.seconds)
                runs[s, workload, seed] = run
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in run["line"]["metrics"].items())
                print(f"set {s} {workload} seed {seed}: correct={run['line']['correct']} {values}", flush=True)

    ok = True
    machine = {k: v for k, v in next(iter(runs.values()))["machine"].items() if k != "seed"}
    summary = {"machine": machine, "seconds": args.seconds, "seeds": seeds, "sets": []}
    for s in range(args.sets):
        table = {}
        for workload in workloads:
            table[workload] = {}
            for metric in bounds:
                stats = summarize([runs[s, workload, seed]["line"]["metrics"][metric]["value"] for seed in seeds])
                table[workload][metric] = stats
                steady = metric == "setup_s" or stats["spread"] <= bounds[metric]
                ok &= steady
                print(f"set {s} {workload:<13} {metric:<13} median {stats['median']:<11.5g} "
                      f"q1 {stats['q1']:<11.5g} q3 {stats['q3']:<11.5g} spread {stats['spread']:.3f} "
                      f"(bound {bounds[metric]}, a third {bounds[metric] / 3:.3f}){'' if steady else '  TOO WIDE'}")
            for name in runs[s, workload, seeds[0]]["rows"]:
                values = [runs[s, workload, seed]["rows"][name]["value"] for seed in seeds]
                table[workload][f"raw:{name}"] = {"median": statistics.median(values), "n_runs": len(values)}
            failed = sum(runs[s, workload, seed]["line"]["failed"] for seed in seeds)
            ok &= failed == 0
            print(f"set {s} {workload:<13} failed operations: {failed}")
        summary["sets"].append(table)
    for s in range(1, args.sets):
        for workload in workloads:
            for metric, bound in bounds.items():
                first, later = summary["sets"][0][workload][metric]["median"], summary["sets"][s][workload][metric]["median"]
                if later > first * (1 + bound):
                    ok = False
                    print(f"set {s} {workload} {metric}: median {later:.5g} is worse than set 0's {first:.5g} by more than {bound}")
            for seed in seeds:
                if runs[s, workload, seed]["digest"] != runs[0, workload, seed]["digest"]:
                    ok = False
                    print(f"set {s} {workload} seed {seed}: output digest differs from set 0")
    summary["digests"] = {f"{w}/seed{seed}": runs[0, w, seed]["digest"] for w in workloads for seed in seeds}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
