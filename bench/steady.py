"""Steadiness mode: repeat each workload over several seeds and report the
median and quartiles of every end-to-end metric against its bound.

    python3 bench/steady.py --workloads cli_large library_grid --seeds 10 \
        --out steady.json [--against earlier.json]

A metric is steady when its quartile spread, (q3 - q1) / median, is below a
third of the bound in ``BENCHMARK.json``.  With ``--against``, each median is
also compared with the earlier set's and flagged when it is worse by more
than the bound.  Exits non-zero when a run fails, a spread exceeds its bound
or a median regressed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, from --first on")
    parser.add_argument("--first", type=int, default=0, help="first seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--against", help="summary of an earlier set to compare medians with")
    args = parser.parse_args(argv)

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads:
        results = []
        for seed in range(args.first, args.first + args.seeds):
            res = run(workload, seed, args.seconds)
            if not res["correct"] or res["failed"]:
                print(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} failed")
                ok = False
            results.append(res)
        summary[workload] = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {name: summarize([r["metrics"][name]["value"] for r in results])
                        for name in bounds},
        }
        print(f"\n{workload}: {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']} operations failed")
        print(f"{'metric':26s}{'median':>12s}{'q1':>12s}{'q3':>12s}{'spread':>9s}{'bound':>7s}")
        for name, stats in summary[workload]["metrics"].items():
            bound = bounds[name]["bound"]
            if stats["spread"] < bound / 3:
                verdict = "steady"
            elif stats["spread"] <= bound:
                verdict = "within bound"
            else:
                verdict, ok = "SPREAD ABOVE BOUND", False
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = stats["median"] / before["median"] - 1.0
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict += f"; {change:+.1%} vs earlier"
                if worse > bound:
                    verdict, ok = verdict + " REGRESSED", False
            print(f"{name:26s}{stats['median']:12.5g}{stats['q1']:12.5g}{stats['q3']:12.5g}"
                  f"{stats['spread']:9.3f}{bound:7.2f}  {verdict}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
