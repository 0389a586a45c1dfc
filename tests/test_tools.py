"""tools/cli_parity.py and tools/ab_bench.py end to end: this checkout
compared with itself; and the perfbench tracer on the solver and the CLI.

cli_parity reads the cli-cold argvs from perfbench/workloads.py and the
TestBadValuesExit2 and fuzz_argv names from tests/test_cli.py, so a rename
on either side breaks it; this run makes that break show.
"""
import importlib.util
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cli_parity_against_own_checkout():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "cli_parity.py"), ROOT, "--fuzz", "10"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},  # no caches in perfbench/
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = re.search(r"^(\d+) of (\d+) runs differ", proc.stdout, re.M)
    assert summary and summary.group(1) == "0" and int(summary.group(2)) > 0, proc.stdout
    lines = re.search(
        r"^src/kgbound lines: (\d+) in .*, (\d+) in this checkout$", proc.stdout, re.M)
    assert lines and int(lines.group(1)) == int(lines.group(2)) > 0, proc.stdout


def _load_parity():
    spec = importlib.util.spec_from_file_location(
        "cli_parity", os.path.join(ROOT, "tools", "cli_parity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cell_changes_on_synthetic_outputs():
    parity = _load_parity()
    csv_a = ("# command = solve\n# alpha = 3.00000000000e-01\n"
             "n,l,e_prime,status\n1,0,-4.00000000000e-02,ok\n2,0,-1.00000000000e-02,ok\n")
    csv_b = csv_a.replace("-4.00000000000e-02", "-4.00004000000e-02").replace(
        "-1.00000000000e-02,ok", "-1.00200000000e-02,ok")
    assert parity.cell_changes(csv_a, csv_b) == "2 cells changed, largest relative change 2.00e-03"
    assert parity.cell_changes(csv_a, csv_a.replace("2,0,-1.00000000000e-02,ok", "2,0,,failed")) \
        == "2 cells changed, none numeric on both sides"
    assert parity.cell_changes(csv_a, csv_a + "3,0,-4.4e-03,ok\n") == "14 -> 18 cells"

    json_a = ('{"meta": {"command": "compare", "alpha": 3.0e-01}, '
              '"rows": [{"n": 2, "e": -1.0e-02, "d": 0.0}]}')
    json_b = json_a.replace("-1.0e-02", "-1.1e-02").replace("0.0}", "1e-9}")
    assert parity.cell_changes(json_a, json_b) == "2 cells changed, largest relative change inf"
    assert parity.cell_changes(json_a, json_a.replace('"alpha": 3.0e-01', '"alpha": 3.3e-01')) \
        == "1 cells changed, largest relative change 1.00e-01"


def _load_perfbench(name):
    """perfbench/<name>.py as a module, loaded without touching perfbench/."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_fills_every_solver_layer(monkeypatch):
    # perfbench reads a layer it never saw as 0 (run.py's layers.get(name, {})),
    # so a renamed or bypassed solver function would go unnoticed there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no caches in perfbench/
    run = _load_perfbench("run")
    tracer = _load_perfbench("tracer").Tracer()
    import kgbound.cli  # noqa: F401  (the tracer wraps every traced module)
    from kgbound import solver
    from kgbound.core import PhysicalParams, PotentialSpec

    p = PhysicalParams(alpha=0.3)
    tracer.install()
    try:
        grid = solver.default_solver_grid(
            solver.SolveMode.KG_VECTOR, PotentialSpec.coulomb(), p, 2, 0, n_points=2000)
        req = solver.SolveRequest(mode=solver.SolveMode.KG_VECTOR,
                                  potential=PotentialSpec.coulomb(), n=2, l=0, grid=grid)
        solver.solve_self_consistent(req, p)
        solver.convergence_study(req, p, (250, 500, 1000))
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    seen = {span[1] for span in spans}
    layers = [name for name in run.SELF_TIMED if name.startswith("solver.")]
    assert "solver.discretize_operator" in layers
    assert [name for name in layers if name not in seen] == []
    assert counts["solver.discretize_operator.bytes_computed"] > 0


def test_traced_coarse_start_records_its_bisection(monkeypatch):
    # a 2000-point solve bisects only on its coarse start grid; that
    # bisection must show in the solver.inner_eigensolve layer too
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no caches in perfbench/
    tracer = _load_perfbench("tracer").Tracer()
    import kgbound.cli  # noqa: F401  (the tracer wraps every traced module)
    from kgbound import solver
    from kgbound.core import PhysicalParams, PotentialSpec

    p = PhysicalParams(alpha=0.3)
    grid = solver.default_solver_grid(
        solver.SolveMode.KG_VECTOR, PotentialSpec.coulomb(), p, 2, 0, n_points=2000)
    req = solver.SolveRequest(mode=solver.SolveMode.KG_VECTOR,
                              potential=PotentialSpec.coulomb(), n=2, l=0, grid=grid)
    tracer.install()
    try:
        solver.solve_self_consistent(req, p)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    names = [span[1] for span in spans]
    assert names.count("solver.inner_eigensolve") == 1
    assert counts["solver.eigh_tridiagonal.pairs_requested"] == 1


def test_traced_cli_fills_every_cli_layer(monkeypatch, capsys):
    # the cli.cmd.* layers are found through the cmd_* attributes of cli, which
    # main looks up by name, and cli.output_s is read off the cli.main span; a
    # command that bypassed either would read 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no caches in perfbench/
    run = _load_perfbench("run")
    tracer = _load_perfbench("tracer").Tracer()
    import kgbound.cli

    argvs = (
        ["spectrum", "--n-max", "1"],
        ["wavefunction", "--samples", "5"],
        ["solve", "--grid-n", "400"],
        ["compare", "--n-max", "1", "--grid-n", "400"],
        ["lorentz"],
        ["convergence", "--sizes", "250,500,1000"],
    )
    tracer.install()
    try:
        codes = [kgbound.cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(argvs)
    spans, _counts = tracer.take()
    seen = {span[1] for span in spans}
    layers = [name for name in run.SELF_TIMED if name.startswith("cli.")] + ["cli.main"]
    assert len(layers) == 8
    assert [name for name in layers if name not in seen] == []


def test_ab_bench_writes_one_paired_entry(tmp_path):
    # one pair of this checkout against itself on the cheapest workload,
    # appended to a trail that already holds an entry
    out = tmp_path / "bench.json"
    out.write_text('{"entries": [{"earlier": true}]}')
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_bench.py"), ROOT,
         "--workload", "current-field", "--pairs", "1", "--seconds", "0.1",
         "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},  # no caches in perfbench/
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        earlier, entry = json.load(fh)["entries"]
    assert earlier == {"earlier": True}
    assert {"workload", "metric", "pairs", "seconds", "seeds", "first_in_pair",
            "parent", "change", "median_gap", "parent_iqr", "gain_gate"} <= entry.keys()
    assert (entry["workload"], entry["metric"]) == (
        "current-field", "ops_per_s")
    assert entry["seeds"] == [3] and entry["first_in_pair"] == ["parent"]
    for side in ("parent", "change"):
        record = entry[side]
        assert {"median", "quartiles", "values", "pairs_won", "metrics", "all_correct",
                "provenance", "src_lines", "src_sha1"} <= record.keys()
        assert record["all_correct"] and record["provenance"]["seed"] == 3
        assert len(record["values"]) == 1 and record["median"] > 0
        assert record["quartiles"] == [record["median"]] * 2
        assert {"setup_s", "wall_s", "op_ms_p50", "ops_per_s", "peak_rss_mb"} <= \
            record["metrics"].keys()
    assert entry["parent"]["src_sha1"] == entry["change"]["src_sha1"]
    assert entry["parent"]["pairs_won"] + entry["change"]["pairs_won"] <= 1
