"""Compare two commits with the benchmark.

Run alternating pairs (the parent's and the change's checkouts side by
side; PAIRS pairs, pair i uses seed i for both, which side runs first
alternates, and every run lasts run_seconds of BENCHMARK.json):

    python3 bench/compare.py run --parent ../parent --change . \\
        --workload matmul-exact --out cmp/

Then judge the result sets:

    python3 bench/compare.py judge cmp/parent cmp/change

For every workload and end-to-end metric, `judge` prints both medians and
quartiles and applies two rules, with each metric's direction and bound
taken from BENCHMARK.json:

* gain: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* no regression: the change's median is not worse than the parent's by
  more than the bound.  Where the parent's own spread (interquartile range
  over median) exceeds the bound, the metric is "unresolved" unless every
  change run beats every parent run.

A directory of results is any set of JSON files written by bench/run.py.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the fewest pairs the gain rule (9 wins in 10) can be applied to
PAIRS = 10


def load_results(directory: Path) -> dict:
    """{workload: {seed: metrics}} from untraced result files."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        env = result.get("env", {})
        if env.get("trace"):
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        out.setdefault(env["workload"], {})[env["seed"]] = metrics
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge_metric(spec, parent, change) -> dict:
    """Apply the gain and no-regression rules to one metric's paired runs."""
    lower = spec["better"] == "lower"
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_q1, p_q3 = quartiles(p)
    c_q1, c_q3 = quartiles(c)
    gain = (wins * 10 >= 9 * len(seeds) and abs(c_med - p_med) > p_q3 - p_q1
            and ((c_med < p_med) if lower else (c_med > p_med)))
    worse = ((c_med - p_med) if lower else (p_med - c_med)) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
    bound = spec.get("bound")
    if bound is None:
        verdict = "gain" if gain else "-"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    else:
        verdict = "gain" if gain else "no regression"
    return {"pairs": len(seeds), "wins": wins, "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3), "worse_by": worse, "spread": spread,
            "verdict": verdict}


def judge(parent_dir, change_dir) -> int:
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_results(parent_dir), load_results(change_dir)
    bad = 0
    for workload in sorted(set(parent) & set(change)):
        print(f"\n{workload}")
        print(f"  {'metric':18s} {'pairs':>5s} {'wins':>4s}  {'parent q1/med/q3':>30s}  "
              f"{'change q1/med/q3':>30s}  {'worse by':>8s}  verdict")
        for spec in specs:
            name = spec["name"]
            p = {s: m[name] for s, m in parent[workload].items() if name in m}
            c = {s: m[name] for s, m in change[workload].items() if name in m}
            if not set(p) & set(c):
                continue
            r = judge_metric(spec, p, c)
            bad += r["verdict"] in ("REGRESSION", "unresolved")
            fmt = "/".join(f"{x:.4g}" for x in r["parent"])
            fmt_c = "/".join(f"{x:.4g}" for x in r["change"])
            print(f"  {name:18s} {r['pairs']:5d} {r['wins']:4d}  {fmt:>30s}  {fmt_c:>30s}  "
                  f"{r['worse_by']:+8.3f}  {r['verdict']} ({spec['unit']})")
    return 1 if bad else 0


def run_pairs(args) -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = Path(args.out)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    for seed in range(1, PAIRS + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            checkout = sides[side]
            cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            name = f"{args.workload}-seed{seed}-trace0.json"
            shutil.copy(checkout / ".bench_build" / "perfbench" / name, out / side / name)
            print(f"pair {seed} {side}: {proc.stdout.strip().splitlines()[-1]}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two commits with the benchmark")
    subs = parser.add_subparsers(dest="command", required=True)
    run = subs.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workload", required=True)
    run.add_argument("--out", required=True)
    judge_cmd = subs.add_parser("judge", help="apply the gain and regression rules")
    judge_cmd.add_argument("parent")
    judge_cmd.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_pairs(args)
    return judge(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
