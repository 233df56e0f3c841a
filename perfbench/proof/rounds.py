"""Runs one proof round of the benchmark and prints its spreads.

From the repository root:

    python3 perfbench/proof/rounds.py --seeds 1-10 > perfbench/proof/round1.txt
    python3 perfbench/proof/rounds.py --seeds 11-20 --against perfbench/proof/round1.txt

Each workload runs once per seed with --trace 0. For every gated metric
the round prints the median and the spread (interquartile range over the
median, as statistics.quantiles(n=4) gives the quartiles) next to the
metric's bound from BENCHMARK.json. With --against, it also prints how
far each median moved from the earlier round's, as a share of the earlier
median, in the metric's worse direction, and whether every median lies
within its bound of the earlier one either way. Every run's host
readings (host_speed and host_wake_us, see README.md) are printed beside
its figures: runs whose readings differ ran on a machine in a different
state.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    lines = out.stdout.splitlines()
    cond = json.loads(next(l for l in lines if l.startswith("conditions "))[len("conditions "):])
    return cond, json.loads(lines[-1])


def earlier_medians(path):
    med = {}
    for line in open(path):
        m = re.match(r"median (\S+) (\S+) (\S+)", line)
        if m:
            med[(m.group(1), m.group(2))] = float(m.group(3))
    return med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--against", help="an earlier round's output")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    before = earlier_medians(args.against) if args.against else {}
    gated = bench["end_to_end"]
    ok = agree = True
    for w in bench["workloads"]:
        name = w["name"]
        values = {m["name"]: [] for m in gated}
        for seed in seeds(args.seeds):
            cond, res = run(name, seed, bench["run_seconds"])
            host = (f"host_speed={cond['host_speed']:.1f} "
                    f"host_wake_us={cond['host_wake_us'][0]:.0f}/{cond['host_wake_us'][1]:.0f}")
            figures = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
            print(f"run {name} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {host} {figures}", flush=True)
            ok = ok and res["correct"] and res["failed"] == 0
            for m in gated:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
        for m in gated:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            line = (f"median {name} {m['name']} {med:.6g} spread={spread:.3f} "
                    f"bound={m['bound']} spread_below_third={spread < m['bound'] / 3}")
            if m["name"] != "setup_s":
                ok = ok and spread <= m["bound"]
            if (name, m["name"]) in before:
                old = before[(name, m["name"])]
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f" worse_than_earlier={worse:+.3f}"
                ok = ok and worse <= m["bound"]
                agree = agree and abs(med - old) / old <= m["bound"]
            print(line, flush=True)
    print(f"round within bounds: {ok}")
    if args.against:
        print(f"medians within bounds of the earlier round's, either way: {agree}")


if __name__ == "__main__":
    main()
