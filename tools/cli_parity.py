"""Byte parity of the kgbound CLI against another checkout.

    python tools/cli_parity.py OTHER_CHECKOUT [--fuzz N]

Runs each argv through `kgbound.cli.main` in two long-lived worker
processes, one importing kgbound from this checkout's src/ and one from
OTHER_CHECKOUT/src/, and compares exit codes and stdout.  The argvs are
the eleven cli-cold runs of perfbench/workloads.py; from
tests/test_cli.py the bad-value argvs of TestBadValuesExit2, the
float-range argvs of TestOverflowExits and the explicit examples of
test_argv_fuzz_exits_with_a_documented_code; and N derandomised draws of
that file's fuzz_argv() strategy (default 1000).  Each is also run as a
config-file twin, its flags written as `key = value` lines in the
command's section.  The top-level and per-command --help texts are
compared too.  Prints every run whose exit code or stdout differs, with
the first differing line and, where the exit codes agree, the number of
changed value cells and the largest relative change among the numeric
ones, then the line count of src/kgbound in both checkouts; exits 1 if any
run differs.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def worker() -> None:
    """Read one JSON argv per line; answer {"code", "out"} per line."""
    import kgbound.cli

    channel = sys.stdout
    channel.write(json.dumps(os.path.dirname(os.path.abspath(kgbound.cli.__file__))) + "\n")
    channel.flush()
    for line in sys.stdin:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = kgbound.cli.main(json.loads(line))
            except SystemExit as exc:  # argparse errors and --help
                code = exc.code
            except Exception as exc:  # a traceback: no documented exit code
                code = f"raised {type(exc).__name__}"
        channel.write(json.dumps({"code": code, "out": out.getvalue()}) + "\n")
        channel.flush()


class Worker:
    def __init__(self, checkout: str, cwd: str) -> None:
        src = os.path.join(os.path.abspath(checkout), "src")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": src},
        )
        origin = json.loads(self.proc.stdout.readline())
        if origin != os.path.join(src, "kgbound"):
            raise RuntimeError(f"worker imported kgbound from {origin}, not from {src}")

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def argvs(n_fuzz: int) -> list[list[str]]:
    """cli-cold, the edge argvs of tests/test_cli.py and n_fuzz fuzz_argv() draws,
    deduplicated."""
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, os.path.join(ROOT, sub))
    from hypothesis import HealthCheck, given, settings

    import test_cli
    import workloads

    found = [list(inv.argv) for inv in workloads.CliCold(seed=0).script]
    bad = test_cli.TestBadValuesExit2.test_config_error.pytestmark[0].args[1]
    found += [list(argv) for argv in bad]
    for test in (test_cli.TestOverflowExits.test_solve_reports_per_row,
                 test_cli.TestOverflowExits.test_exit_4):
        found += [list(argv) for argv, _ in test.pytestmark[0].args[1]]
    fuzz = test_cli.test_argv_fuzz_exits_with_a_documented_code
    found += [list(ex.args[0]) for ex in fuzz.hypothesis_explicit_examples]

    @settings(max_examples=n_fuzz, derandomize=True, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(test_cli.fuzz_argv())
    def draw(argv):
        found.append(list(argv))

    if n_fuzz:
        draw()
    unique = []
    for argv in found:
        if argv not in unique:
            unique.append(argv)
    return unique


def config_twin(argv: list[str], path: str) -> list[str]:
    """The same flag/value pairs as key = value lines in the command's section."""
    command, pairs = argv[0], argv[1:]
    lines = [f"[{command}]"] + [
        f"{flag[2:].replace('-', '_')} = {value}" for flag, value in zip(pairs[::2], pairs[1::2])
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return [command, "--config", path]


def cells(out: str) -> list[str]:
    """The value cells of one CSV or JSON output, meta first, in order."""
    if out.startswith("{"):
        doc = json.loads(out)
        values = list(doc["meta"].values()) + [v for row in doc["rows"] for v in row.values()]
        return [json.dumps(v) for v in values]
    found = []
    for line in out.splitlines():
        found += [line.partition(" = ")[2]] if line.startswith("# ") else line.split(",")
    return found


def cell_changes(a: str, b: str) -> str:
    """How many value cells differ and the largest relative change among
    those that are numbers on both sides."""
    old, new = cells(a), cells(b)
    if len(old) != len(new):
        return f"{len(old)} -> {len(new)} cells"
    changed, relative = 0, []
    for x, y in zip(old, new):
        if x == y:
            continue
        changed += 1
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            continue
        relative.append(abs(fy - fx) / abs(fx) if fx else math.inf)
    if not relative:
        return f"{changed} cells changed, none numeric on both sides"
    return f"{changed} cells changed, largest relative change {max(relative):.2e}"


def package_lines(checkout: str) -> int:
    """Lines in the checkout's src/kgbound/*.py, counted as `wc -l` does."""
    total = 0
    for path in glob.glob(os.path.join(os.path.abspath(checkout), "src", "kgbound", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def first_difference(a: str, b: str) -> str:
    if a == b:
        return "same stdout"
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}: {x!r} -> {y!r}"
    return f"{len(a.splitlines())} -> {len(b.splitlines())} lines"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", help="checkout to compare against (its src/ is imported)")
    ap.add_argument("--fuzz", type=int, default=1000, help="fuzz_argv() draws (default 1000)")
    args = ap.parse_args(argv)
    inputs = argvs(args.fuzz)
    helps = [["--help"]] + [[command, "--help"] for command in sorted({a[0] for a in inputs})]
    differ = runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        other, this = Worker(args.other, tmp), Worker(ROOT, tmp)
        try:
            for i, plain in enumerate(inputs + helps):
                twins = [plain] if plain in helps else [
                    plain, config_twin(plain, os.path.join(tmp, f"run{i}.ini"))
                ]
                for run_argv in twins:
                    a, b = other.run(run_argv), this.run(run_argv)
                    runs += 1
                    if a != b:
                        differ += 1
                        label = "config twin of " if run_argv is not plain else ""
                        detail = first_difference(a["out"], b["out"])
                        if a["code"] == b["code"]:  # so the stdout differs
                            detail += f"; {cell_changes(a['out'], b['out'])}"
                        print(f"exit {a['code']} -> {b['code']}: {label}{' '.join(plain)}: {detail}")
        finally:
            other.close()
            this.close()
    print(f"src/kgbound lines: {package_lines(args.other)} in {args.other}, "
          f"{package_lines(ROOT)} in this checkout")
    print(f"{differ} of {runs} runs differ ({len(inputs)} argvs and their config twins, "
          f"{len(helps)} --help texts)")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
