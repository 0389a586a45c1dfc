"""kgbound benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; kgbound is imported from its src/.  With
--trace 0 the run measures the end-to-end metrics of one workload: it sets
up five times in fresh interpreters (setup_s is their median), then runs
passes of the workload until S seconds have gone by.  With --trace 1 it
alternates untraced and traced passes for S seconds and reports the
per-layer metrics; the spans are written to perfbench/out/ at the end.
Every pass checks its outputs.  Human-readable lines go first; the last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics.  The metric names, units and workloads are listed in
BENCHMARK.json at the checkout root and explained in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("coulomb-sweep", "accuracy-ladder", "cli-cold", "current-field")
CLI_COMMANDS = ("spectrum", "wavefunction", "solve", "compare", "lorentz", "convergence")
SELF_TIMED = (
    "solver.eigh_tridiagonal",
    "solver.inner_eigensolve",
    "solver.discretize_operator",
    "solver.effective_radial_equation",
    "solver.default_solver_grid",
    "solver.solve_self_consistent",
    "solver.convergence_study",
    "coulomb.energy_level",
    "special.laguerre_rel",
    "wavefunction.build_radial",
    "wavefunction.sample_state",
    "wavefunction.probability_current",
    "wavefunction.continuity_check",
    "cli.build_config",
) + tuple(f"cli.cmd.{c}" for c in CLI_COMMANDS)
CALL_COUNTED = (
    "solver.eigh_tridiagonal",
    "solver.solve_self_consistent",
    "coulomb.energy_level",
    "special.gamma_fn",
    "lorentz.boost_forward",
)
WORK_COUNTED = (
    "solver.eigh_tridiagonal.pairs_requested",
    "solver.discretize_operator.bytes_computed",
    "wavefunction.probability_current.bytes_computed",
)


def cap_threads() -> dict[str, str]:
    """Limit BLAS/OpenMP pools to the CPUs this process may use; children inherit it."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS + ("KGBOUND_THREADS",) if var in os.environ}


def provenance(seed: int, threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": threads,
    }


def fresh(args: list[str]) -> tuple[float, str]:
    """Run child.py in a fresh interpreter; its wall time and stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stdout


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def run_passes(workload, seconds: float, tracer=None) -> list[dict]:
    """Passes until `seconds` have gone by; with a tracer every second pass is traced."""
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(traced)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        entry = {"traced": traced, "wall": wall, "result": result}
        if traced:
            entry["spans"], entry["counts"] = tracer.take()
        passes.append(entry)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - t_start >= seconds:
            return passes


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, tuple[float, float, int]]:
    latencies = [x for p in passes for x in p["result"].latencies]
    walls = [p["wall"] for p in passes]
    completed = sum(p["result"].attempted - p["result"].failed for p in passes)
    child_rss = max(p["result"].peak_rss_kb for p in passes)
    rss_kb = child_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "ops_per_s": (completed / sum(walls), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return metrics, tail(latencies)


def _layer_totals(entry: dict, main_thread: int) -> tuple[dict, dict]:
    from tracer import self_times

    groups = [(entry["spans"], entry["counts"], main_thread)]
    groups += [(r["spans"], r["counts"], r["main_thread"]) for r in entry["result"].records]
    layers: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for spans, cnt, thread in groups:
        for name, agg in self_times(spans, thread).items():
            into = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
        for key, value in cnt.items():
            counts[key] = counts.get(key, 0) + value
    return layers, counts


def per_layer(passes: list[dict], imports: dict[str, float], main_thread: int, pool_speedup: float) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [_layer_totals(p, main_thread) for p in traced]

    def med(f) -> float:
        return statistics.median(f(layers, counts) for layers, counts in per_pass)

    def self_s(name):
        return lambda layers, counts: layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return lambda layers, counts: layers.get(name, {}).get("calls", 0)

    def count(key):
        return lambda layers, counts: counts.get(key, 0)

    def iters_per_solve(layers, counts):
        done = counts.get("solver.solve_self_consistent.completed", 0)
        return counts.get("solver.solve_self_consistent.iterations", 0) / done if done else 0.0

    metrics = {f"import.{k}_s": (v, "s") for k, v in imports.items()}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (med(self_s(name)), "s")
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = (med(calls(name)), "count")
    for key in WORK_COUNTED:
        metrics[key] = (med(count(key)), "bytes" if key.endswith("bytes_computed") else "count")
    metrics["solver.sc_iters_per_solve"] = (med(iters_per_solve), "count")
    metrics["cli.output_s"] = (med(self_s("cli.main")), "s")
    metrics["cli.pool_speedup"] = (pool_speedup, "ratio")
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.overhead_frac"] = (
        traced_wall / statistics.median(p["wall"] for p in untraced) - 1.0, "ratio"
    )
    metrics["trace.self_sum_frac"] = (
        statistics.median(
            sum(v["self_s"] for v in layers.values()) / p["wall"]
            for (layers, _counts), p in zip(per_pass, traced)
        ),
        "ratio",
    )
    return metrics


def write_spans(name: str, seed: int, prov: dict, passes: list[dict], main_thread: int) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
    doc = {"provenance": prov, "span_fields": ["id", "name", "start", "end", "parent", "thread"],
           "passes": []}
    for p in passes:
        if p["traced"]:
            processes = [{"main_thread": main_thread, "spans": p["spans"], "counts": p["counts"]}]
            processes += p["result"].records
            doc["passes"].append({"wall_s": p["wall"], "processes": processes})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return os.path.relpath(path, CHECKOUT)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(CHECKOUT, "src", "kgbound", "__init__.py")):
        print(f"perfbench: no kgbound sources under {os.path.join(CHECKOUT, 'src')}", file=sys.stderr)
        return 2
    threads = cap_threads()

    import child

    child.import_kgbound()
    child.warm_up()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    prov = provenance(args.seed, threads)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")

    if args.trace:
        imports = {
            what: statistics.median(
                float(fresh(["import", what])[1]) for _ in range(IMPORT_REPEATS)
            )
            for what in ("numpy", "scipy", "kgbound")
        }
        tracer = Tracer()
        passes = run_passes(workload, args.seconds, tracer)
        speedup = workload.pool_speedup() if hasattr(workload, "pool_speedup") else 0.0
        metrics = per_layer(passes, imports, tracer.main_thread, speedup)
        print(f"# spans written to {write_spans(args.workload, args.seed, prov, passes, tracer.main_thread)}")
        if workload.op == "cmd":
            p50 = statistics.median(x for p in passes if not p["traced"] for x in p["result"].latencies)
            print(f"# untraced cmd_ms_p50 {1e3 * p50:.6g} ms; import.kgbound_s is {imports['kgbound'] / p50:.1%} of it")
    else:
        setup = [fresh(["setup"])[0] for _ in range(SETUP_REPEATS)]
        passes = run_passes(workload, args.seconds)
        metrics, (tail_value, tail_pct, n) = end_to_end(passes, setup)
        op = workload.op
        aliases = {"op_ms_p50": f"{op}_ms_p50", "ops_per_s": f"{op}s_per_s"}
        for name, (value, unit) in metrics.items():
            alias = f" ({aliases[name]})" if name in aliases else ""
            print(f"{args.workload} {name}{alias} {value:.6g} {unit}")
        # not gated: a cli-cold run has only about 22 latencies, too few for a tail
        print(f"{args.workload} op_ms_tail ({op}_ms_tail) {1e3 * tail_value:.6g} ms "
              f"(p{tail_pct:.1f} of {n} latencies over {len(passes)} passes)")
        print(f"# setup runs {[round(x, 4) for x in setup]} s")

    attempted = sum(p["result"].attempted for p in passes)
    failed = sum(p["result"].failed for p in passes)
    problems = [q for p in passes for q in p["result"].problems]
    last = passes[-1]["result"].report
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for key, value in sorted(last.items()):
        print(f"{args.workload} {key} {value:.6g}")
    for problem in sorted(set(problems)):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
