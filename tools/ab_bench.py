"""Paired benchmark runs of this checkout against another one.

    python tools/ab_bench.py PARENT_CHECKOUT --workload W --pairs N --seconds S --seed S0 \
        --out BENCH_<n>.json

Runs `perfbench/run.py --workload W --seconds S --trace 0` N times in each
checkout, alternately, each from its own directory and with its own
perfbench/.  Pair i runs both sides with seed S0 + i, and the side that runs
first swaps from pair to pair, so drift in the machine falls on both sides
alike.  Each pair is won by the side with the higher ops_per_s; a tie goes
to neither.  Per side the entry records the ops_per_s values, median,
quartiles and pairs won, the median and quartiles of every end-to-end
metric BENCHMARK.json lists, whether every run was correct with no failed
operation, and perfbench's provenance line.  The entry is appended to the JSON file --out (created when missing),
whose entries form the benchmark trail.  With PARENT_CHECKOUT equal to this
checkout the entry is the noise floor.  gain_gate says whether the change
won at least 9 pairs in 10 by a median gap above the parent's interquartile
range.  Exits 1 when a run fails.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROVENANCE = "# provenance "
METRIC = "ops_per_s"  # decides each pair; higher is better


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its closing JSON object plus the provenance it printed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},  # no caches in perfbench/
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {checkout} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    result["provenance"] = next(
        (json.loads(line[len(PROVENANCE):]) for line in lines if line.startswith(PROVENANCE)), None)
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method, so one value is its own quartiles)."""
    if len(values) == 1:
        quartiles = [values[0], values[0]]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        quartiles = [q1, q3]
    return {"median": statistics.median(values), "quartiles": quartiles}


def source_digest(checkout: str) -> dict:
    """Line count and SHA-1 of src/kgbound/*.py, which name the code a side ran."""
    digest, lines = hashlib.sha1(), 0
    for path in sorted(glob.glob(os.path.join(checkout, "src", "kgbound", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha1": digest.hexdigest()}


def end_to_end_metrics() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout to compare against (its own perfbench/ runs)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--out", required=True, help="JSON file the entry is appended to")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = [args.seed + i for i in range(args.pairs)]
    try:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(checkouts[side], args.workload, seed, args.seconds))
            values = {side: runs[side][-1]["metrics"][METRIC]["value"] for side in runs}
            print(f"pair {i + 1}/{args.pairs} seed {seed}: {METRIC} "
                  f"parent {values['parent']:.6g}, change {values['change']:.6g}", flush=True)
    except RuntimeError as exc:
        print(f"ab_bench: {exc}", file=sys.stderr)
        return 1

    gaps = [c["metrics"][METRIC]["value"] - p["metrics"][METRIC]["value"]
            for p, c in zip(runs["parent"], runs["change"])]
    won = {"parent": sum(g < 0 for g in gaps), "change": sum(g > 0 for g in gaps)}
    entry = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "metric": METRIC,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "first_in_pair": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
    }
    for side in ("parent", "change"):
        side_runs = runs[side]
        values = [r["metrics"][METRIC]["value"] for r in side_runs]
        entry[side] = {
            **source_digest(checkouts[side]),
            "values": values,
            **spread(values),
            "pairs_won": won[side],
            "metrics": {name: spread([r["metrics"][name]["value"] for r in side_runs])
                        for name in end_to_end_metrics()},
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in side_runs),
            "provenance": side_runs[0]["provenance"],
        }
    parent_q1, parent_q3 = entry["parent"]["quartiles"]
    median_gap = entry["change"]["median"] - entry["parent"]["median"]
    entry["median_gap"] = median_gap
    entry["parent_iqr"] = parent_q3 - parent_q1
    entry["gain_gate"] = won["change"] >= 0.9 * args.pairs and median_gap > parent_q3 - parent_q1

    trail = {"entries": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            trail = json.load(fh)
    trail["entries"].append(entry)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trail, fh, indent=1)
        fh.write("\n")
    print(f"{args.workload} {METRIC}: parent median {entry['parent']['median']:.6g} "
          f"[{parent_q1:.6g}-{parent_q3:.6g}], change median {entry['change']['median']:.6g}, "
          f"change won {won['change']} of {args.pairs}; gain gate "
          f"{'met' if entry['gain_gate'] else 'not met'}; appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
