"""The four benchmark workloads.

Each workload builds its inputs from the seed (the seed only permutes the
order of states or invocations, so the work per pass is fixed), computes
its reference values before timing starts, and runs one pass at a time.
A pass returns the latency of every operation, how many operations were
attempted and failed, and whether every output check held.

An operation *fails* when it raises, exits with a code outside the
documented contract, or prints a traceback.  An output that comes back but
is wrong makes the pass *incorrect*; the two are kept apart.

kgbound functions are called through their modules (`solver.solve_...`)
so that the tracer's wrappers, installed into those modules, see them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import kgbound.core as core
import kgbound.coulomb as coulomb
import kgbound.lorentz as lorentz
import kgbound.solver as solver
import kgbound.wavefunction as wavefunction

from child import MARKER

HERE = os.path.dirname(os.path.abspath(__file__))
KG_VECTOR = solver.SolveMode.KG_VECTOR
COULOMB = core.PotentialSpec.coulomb()


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # seconds, one per operation
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failed output checks
    report: dict[str, float] = field(default_factory=dict)  # extra figures for the report
    peak_rss_kb: int = 0  # of child processes, where the work runs in them
    records: list[dict] = field(default_factory=list)  # child trace records

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: failed operation: {what}", file=sys.stderr)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _sign_changes(u: np.ndarray) -> int:
    """Interior nodes of a sampled u(r), ignoring entries below 1e-9 of its peak."""
    signs = u[np.abs(u) > 1e-9 * np.abs(u).max()] > 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _solve(p, n: int, l: int, grid, with_trace: bool = False):
    req = solver.SolveRequest(mode=KG_VECTOR, potential=COULOMB, n=n, l=l, grid=grid)
    return solver.solve_self_consistent(req, p, with_trace=with_trace)


class CoulombSweep:
    """Criterion-1 sweep as tests/test_acceptance.py builds it: 80 fixed-grid solves."""

    name = "coulomb-sweep"
    op = "solve"
    couplings = (0.05, 0.1, 0.2, 0.3)
    sizes = (4000, 8000)

    def __init__(self, seed: int) -> None:
        self.cases = [(za, n, l) for za in self.couplings for n in range(1, 5) for l in range(n)]
        random.Random(seed).shuffle(self.cases)
        self.refs = {
            c: coulomb.energy_level(core.PhysicalParams(alpha=c[0]), c[1], c[2]) for c in self.cases
        }

    def run_pass(self, trace: bool) -> PassResult:
        res = PassResult()
        worst, iters_total, worst_iters = 0.0, 0, 0
        for za, n, l in self.cases:
            p = core.PhysicalParams(alpha=za)
            energies = []
            for n_pts in self.sizes:
                grid = solver.default_solver_grid(KG_VECTOR, COULOMB, p, n, l, n_points=n_pts)
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    state, history = _solve(p, n, l, grid, with_trace=True)
                except Exception:
                    res.fail(f"solve za={za} n={n} l={l} N={n_pts}: {traceback.format_exc(limit=1)}")
                    continue
                res.latencies.append(time.perf_counter() - t0)
                iters_total += state.iterations
                worst_iters = max(worst_iters, state.iterations)
                # criterion 9: bounded, monotone after iteration 2, right node count
                res.check(state.iterations <= 30, f"{(za, n, l, n_pts)}: {state.iterations} iterations")
                res.check(
                    len(history) == state.iterations
                    and all(b < a for a, b in zip(history[1:], history[2:])),
                    f"{(za, n, l, n_pts)}: residual history not monotone",
                )
                res.check(
                    _sign_changes(state.radial_samples[1]) == n - l - 1,
                    f"{(za, n, l, n_pts)}: wrong node count",
                )
                energies.append(state.e_prime)
            if len(energies) == 2:
                # same box on both grids, so the step ratio is (N+1) based
                e_rich = solver.richardson_extrapolate(
                    energies[0], energies[1], step_ratio=(self.sizes[1] + 1.0) / (self.sizes[0] + 1.0)
                )
                ref = self.refs[(za, n, l)]
                worst = max(worst, _rel(p.rest_energy + e_rich, ref.e_total))
        res.check(worst <= 1e-6, f"criterion 1: max rel err {worst:.3e} > 1e-6")
        res.report.update(max_rel_err=worst, sc_iterations=iters_total, max_iterations=worst_iters)
        return res


class AccuracyLadder:
    """Time to 1e-5: each state climbs N = 250, 500, ..., 16000 until Richardson meets it."""

    name = "accuracy-ladder"
    op = "solve"
    target = 1e-5
    rungs = tuple(250 * 2 ** k for k in range(7))
    # The l = 0 states at Zalpha = 0.3, n >= 3 converge with observed order
    # 1.55-1.8 rather than 2 and miss the target at every rung; they stay in
    # the workload and are reported, and any other miss is an error.
    known_misses = frozenset((0.3, n, 0) for n in range(3, 7))

    def __init__(self, seed: int) -> None:
        self.cases = sorted(
            {(za, n, l) for za in (0.1, 0.3) for n in range(1, 7) for l in (0, n // 2, n - 1)}
        )
        random.Random(seed).shuffle(self.cases)
        self.refs = {
            c: coulomb.energy_level(core.PhysicalParams(alpha=c[0]), c[1], c[2]).e_prime
            for c in self.cases
        }

    def run_pass(self, trace: bool) -> PassResult:
        res = PassResult()
        misses, worst, iters_total = [], 0.0, 0
        for case in self.cases:
            za, n, l = case
            p = core.PhysicalParams(alpha=za)
            ref = self.refs[case]
            prev, err = None, math.inf
            for n_pts in self.rungs:
                grid = solver.default_solver_grid(KG_VECTOR, COULOMB, p, n, l, n_points=n_pts)
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    state = _solve(p, n, l, grid)
                except Exception:
                    res.fail(f"solve {case} N={n_pts}: {traceback.format_exc(limit=1)}")
                    break
                res.latencies.append(time.perf_counter() - t0)
                iters_total += state.iterations
                if prev is not None:
                    e_rich = solver.richardson_extrapolate(prev[0], state.e_prime, prev[1] / grid.step)
                    err = _rel(e_rich, ref)
                    if err <= self.target:
                        break
                prev = (state.e_prime, grid.step)
            worst = max(worst, err)
            if err > self.target:
                misses.append(case)
        unexpected = sorted(set(misses) - self.known_misses)
        res.check(not unexpected, f"states missing {self.target:g}: {unexpected}")
        res.report.update(
            max_rel_err=worst,
            within_tol_frac=1.0 - len(misses) / len(self.cases),
            misses=len(misses),
            sc_iterations=iters_total,
        )
        return res


def _parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(io.StringIO("\n".join(body))))


def _fmt(x: float) -> str:
    return f"{x:.11e}"  # the CLI's CSV cell format


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    exit_codes: frozenset  # the documented codes this input may end with
    check: Callable[[str, PassResult], float] | None = None  # output check -> worst rel err


class CliCold:
    """About ten fresh-interpreter `kgbound` runs, one client, closed loop."""

    name = "cli-cold"
    op = "cmd"
    coulomb_states = ((1, 0), (2, 0), (2, 1), (3, 2))
    hulthen_states = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1))
    # equal-hulthen at lambda = 0.9: b = 4/lambda puts n = 2 just inside
    # binding (b > n^2) and n = 3 outside, so the table mixes ok rows with
    # StateNotFound rows
    hulthen_status = {(1, 0): "ok", (2, 0): "ok", (2, 1): "StateNotFound",
                      (3, 0): "StateNotFound", (3, 1): "StateNotFound"}
    lorentz_args = dict(e=1.3, px=0.3, u=0.2, beta=0.6, u_prime=0.05)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        coulomb_states = list(self.coulomb_states)
        hulthen_states = list(self.hulthen_states)
        rng.shuffle(coulomb_states)
        rng.shuffle(hulthen_states)
        la = self.lorentz_args
        ok = frozenset({0})
        self.spectrum = ("spectrum", "--n-max", "8")
        self.solve = ("solve", "--states", _states_arg(coulomb_states), "--alpha", "0.3")
        self.compare = ("compare", "--n-max", "2")
        self.script = [
            Invocation(self.spectrum, ok, self._check_spectrum),
            Invocation(self.spectrum, ok, self._check_spectrum),  # twice: the bytes must match
            Invocation(("lorentz", "--e", str(la["e"]), "--px", str(la["px"]), "--u", str(la["u"]),
                        "--beta", str(la["beta"]), "--u-prime", str(la["u_prime"])),
                       ok, self._check_lorentz),
            Invocation(("wavefunction", "--n", "3", "--l", "1", "--samples", "400",
                        "--format", "json"), ok, self._check_wavefunction),
            Invocation(("solve", "--states", _states_arg(hulthen_states), "--mode", "kg-equal",
                        "--potential", "equal-hulthen", "--lambda", "0.9"), ok, self._check_hulthen),
            Invocation(self.solve, ok, self._check_coulomb_solve),
            Invocation(self.compare, ok, self._check_compare),
            Invocation(("convergence", "--n", "2", "--l", "0", "--sizes", "1000,2000,4000"),
                       ok, self._check_convergence),
            Invocation(("spectrum", "--alpha", "0.9"), frozenset({3})),  # supercritical
            Invocation(("solve", "--mode", "bogus"), frozenset({2})),
            # Known defect: exits 1 with a ValueError traceback instead of a
            # documented code.  Kept so it counts as a failed operation.
            Invocation(("spectrum", "--alpha", "nan"), frozenset({2, 3})),
        ]
        rng.shuffle(self.script)
        self._references()

    def _references(self) -> None:
        p = core.PhysicalParams()
        self.spectrum_ref = {}
        for n in range(1, 9):
            for l in range(n):
                b = coulomb.energy_level(p, n, l)
                self.spectrum_ref[(n, l)] = {
                    "sigma_l": coulomb.sigma_closed(p, l).sigma_l,
                    "e_total_ratio": b.e_total / p.rest_energy,
                    "e_prime_ratio": b.e_prime / p.rest_energy,
                    "system_mass_ratio": b.system_mass / p.rest_mass,
                }
        la = self.lorentz_args
        s = lorentz.CharacterState(e_total=la["e"], p=(la["px"], 0.0, 0.0), u_potential=la["u"])
        self.lorentz_ref = lorentz.boost_forward(s, lorentz.BoostSpec(v=la["beta"]), u_prime=la["u_prime"])
        self.radial_ref = wavefunction.build_radial(p, 3, 1)
        self.closed = {
            key: coulomb.energy_level(core.PhysicalParams(alpha=0.3), *key).e_prime
            for key in self.coulomb_states
        }
        self.closed_default = {
            (n, l): coulomb.energy_level(p, n, l).e_prime for n in (1, 2) for l in range(n)
        }

    def invoke(self, argv, trace: bool, env: dict | None = None) -> tuple[float, subprocess.CompletedProcess, dict]:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli"]
        cmd += ["--trace", "--", *argv] if trace else ["--", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        elapsed = time.perf_counter() - t0
        record, lines = {}, []
        for line in proc.stderr.splitlines():
            if line.startswith(MARKER):
                record = json.loads(line[len(MARKER):])
            else:
                lines.append(line)
        proc.stderr = "\n".join(lines)
        return elapsed, proc, record

    def run_pass(self, trace: bool) -> PassResult:
        res = PassResult()
        outputs, worst = {}, 0.0
        for inv in self.script:
            res.attempted += 1
            elapsed, proc, record = self.invoke(inv.argv, trace)
            res.latencies.append(elapsed)
            res.peak_rss_kb = max(res.peak_rss_kb, record.get("rss_kb", 0))
            if "spans" in record:
                res.records.append(record)
            if proc.returncode not in inv.exit_codes or "Traceback" in proc.stderr:
                res.fail(f"{' '.join(inv.argv)}: exit {proc.returncode}, "
                         f"expected {sorted(inv.exit_codes)}: {proc.stderr.strip()[-200:]}")
                continue
            if inv.check is None:
                res.check(proc.stdout == "", f"{' '.join(inv.argv)}: output on an error exit")
                continue
            first = outputs.setdefault(inv.argv, proc.stdout)
            res.check(proc.stdout == first, f"{' '.join(inv.argv)}: reruns differ in bytes")
            try:
                worst = max(worst, inv.check(proc.stdout, res))
            except (KeyError, ValueError, IndexError, TypeError, StopIteration) as exc:
                res.check(False, f"{' '.join(inv.argv)}: unreadable output ({exc!r})")
        res.report["max_rel_err"] = worst
        return res

    def _check_spectrum(self, text: str, res: PassResult) -> float:
        _meta, rows = _parse_csv(text)
        res.check(sorted((int(r["n"]), int(r["l"])) for r in rows) == sorted(self.spectrum_ref),
                  "spectrum: wrong set of rows")
        worst = 0.0
        for row in rows:
            ref = self.spectrum_ref[(int(row["n"]), int(row["l"]))]
            for col, value in ref.items():
                res.check(row[col] == _fmt(value), f"spectrum: {col} {row[col]} != {_fmt(value)}")
                worst = max(worst, _rel(float(row[col]), value))
        return worst

    def _check_lorentz(self, text: str, res: PassResult) -> float:
        meta, rows = _parse_csv(text)
        ref = self.lorentz_ref
        k_prime = next(r for r in rows if r["frame"] == "K_prime")
        for col, value in (("e_total", ref.e_total), ("px", ref.p[0]), ("u_potential", ref.u_potential)):
            res.check(k_prime[col] == _fmt(value), f"lorentz: {col} {k_prime[col]} != {_fmt(value)}")
        res.check(float(meta["invariant_drift"]) <= 1e-12, "lorentz: invariant drifts")
        res.check(float(meta["roundtrip_error"]) <= 1e-12, "lorentz: round trip does not close")
        return 0.0

    def _check_wavefunction(self, text: str, res: PassResult) -> float:
        doc = json.loads(text)
        rows = doc["rows"]
        res.check(doc["meta"]["node_count"] == 1, "wavefunction: node count != n - l - 1")
        res.check(len(rows) == 400, "wavefunction: wrong number of samples")
        r = [row["r"] for row in rows]
        exact = self.radial_ref.evaluate(r)
        peak = float(max(abs(exact)))
        dev = max(abs(row["R"] - float(e)) for row, e in zip(rows, exact)) / peak
        res.check(dev <= 1e-12, f"wavefunction: R deviates by {dev:.2e} of its peak")
        norm = sum(
            0.5 * (a["density"] + b["density"]) * (b["r"] - a["r"]) for a, b in zip(rows, rows[1:])
        ) + 0.5 * rows[0]["density"] * rows[0]["r"]
        res.check(abs(norm - 1.0) <= 1e-4, f"wavefunction: norm {norm}")
        return dev

    def _check_hulthen(self, text: str, res: PassResult) -> float:
        _meta, rows = _parse_csv(text)
        got = {(int(r["n"]), int(r["l"])): r for r in rows}
        res.check(set(got) == set(self.hulthen_status), "hulthen solve: wrong set of rows")
        for key, row in got.items():
            res.check(row["status"] == self.hulthen_status.get(key), f"hulthen solve {key}: {row['status']}")
            if row["status"] == "ok":
                res.check(int(row["node_count"]) == key[0] - key[1] - 1, f"hulthen solve {key}: nodes")
                res.check(int(row["iterations"]) <= 30, f"hulthen solve {key}: iterations")
                res.check(float(row["e_prime"]) < 0.0, f"hulthen solve {key}: not bound")
        return 0.0

    def _check_coulomb_solve(self, text: str, res: PassResult) -> float:
        _meta, rows = _parse_csv(text)
        res.check(len(rows) == len(self.coulomb_states), "coulomb solve: wrong number of rows")
        worst = 0.0
        for row in rows:
            key = (int(row["n"]), int(row["l"]))
            res.check(row["status"] == "ok", f"coulomb solve {key}: {row['status']}")
            res.check(int(row["node_count"]) == key[0] - key[1] - 1, f"coulomb solve {key}: nodes")
            # one grid of 8000 points, no Richardson step: O(h^2) error only
            err = _rel(float(row["e_prime"]), self.closed[key])
            res.check(err <= 1e-4, f"coulomb solve {key}: rel err {err:.2e}")
            worst = max(worst, err)
        return worst

    def _check_compare(self, text: str, res: PassResult) -> float:
        _meta, rows = _parse_csv(text)
        res.check(len(rows) == 3, "compare: wrong number of rows")
        worst = 0.0
        for row in rows:
            key = (int(row["n"]), int(row["l"]))
            closed = self.closed_default[key]
            res.check(row["e_kg_closed"] == _fmt(closed), f"compare {key}: closed form differs")
            err = _rel(float(row["e_kg_numeric"]), closed)
            res.check(err <= 1e-6, f"compare {key}: numeric rel err {err:.2e}")
            worst = max(worst, err)
        return worst

    def _check_convergence(self, text: str, res: PassResult) -> float:
        _meta, rows = _parse_csv(text)
        order = float(rows[-1]["observed_order"])
        res.check(1.5 <= order <= 2.5, f"convergence: observed order {order}")
        err = _rel(float(rows[-1]["richardson"]), self.closed_default[(2, 0)])
        res.check(err <= 1e-6, f"convergence: Richardson rel err {err:.2e}")
        return err

    def pool_speedup(self) -> float:
        """Command time of the multi-state solve and compare, one thread over default."""
        def cmd_time(env):
            total = 0.0
            for argv in (self.solve, self.compare):
                _elapsed, proc, record = self.invoke(argv, True, env)
                if proc.returncode != 0:
                    raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
                total += sum(s[3] - s[2] for s in record["spans"] if s[1].startswith("cli.cmd."))
            return total

        single = cmd_time(dict(os.environ, KGBOUND_THREADS="1"))
        default = cmd_time({k: v for k, v in os.environ.items() if k != "KGBOUND_THREADS"})
        return single / default


def _states_arg(states) -> str:
    return "; ".join(f"{n},{l}" for n, l in states)


class CurrentField:
    """Wavefunction leg: radial checks for n <= 6, then 3D currents up to 400x128x128."""

    name = "current-field"
    op = "eval"
    p = core.PhysicalParams(alpha=0.3)
    resolutions = ((100, 32, 32), (200, 64, 64), (400, 128, 128))
    field_states = ((2, 1, 1), (2, 1, -1), (2, 1, 0))

    def __init__(self, seed: int) -> None:
        self.radial = [(n, l) for n in range(1, 7) for l in range(n)]
        random.Random(seed).shuffle(self.radial)
        # The field evaluations keep one order, so every pass's radial leg
        # starts right after the same 400x128x128 evaluation; which op ran
        # last measurably shifts the latency of the 3 ms radial checks.
        self.fields = [(s, r) for s in self.field_states for r in self.resolutions]

    def run_pass(self, trace: bool) -> PassResult:
        res = PassResult()
        p = self.p
        worst_resid = worst_floor = 0.0
        for n, l in self.radial:
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                R = wavefunction.build_radial(p, n, l)
                resid = wavefunction.radial_ode_residual(R, p, wavefunction.reference_residual_grid(R))
                nodes = wavefunction.count_radial_nodes(R)
            except Exception:
                res.fail(f"radial ({n}, {l}): {traceback.format_exc(limit=1)}")
                continue
            res.latencies.append(time.perf_counter() - t0)
            res.check(nodes == n - l - 1, f"radial ({n}, {l}): {nodes} nodes")
            res.check(resid < 1e-6, f"radial ({n}, {l}): residual {resid:.2e}")
            worst_resid = max(worst_resid, resid)
        for (n, l, m), (n_r, n_t, n_p) in self.fields:
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                R = wavefunction.build_radial(p, n, l)
                grid = wavefunction.current_check_grid(R, n_r=n_r, n_theta=n_t, n_phi=n_p)
                J = wavefunction.probability_current(
                    wavefunction.sample_state(p, R, m, grid), grid, p, coulomb.system_mass(p, n, l)
                )
                div = wavefunction.continuity_check(J, grid)
            except Exception:
                res.fail(f"current {(n, l, m)} at {(n_r, n_t, n_p)}: {traceback.format_exc(limit=1)}")
                continue
            res.latencies.append(time.perf_counter() - t0)
            where = f"current {(n, l, m)} at {(n_r, n_t, n_p)}"
            if m == 0:
                res.check(not any(c.any() for c in J), f"{where}: m = 0 current is not exactly zero")
            else:
                floor = div / float(abs(J[2]).max())
                res.check(floor < 1e-8, f"{where}: continuity floor {floor:.2e}")
                worst_floor = max(worst_floor, floor)
            del J
        res.report.update(max_rel_err=worst_floor, max_radial_residual=worst_resid)
        return res


WORKLOADS = {w.name: w for w in (CoulombSweep, AccuracyLadder, CliCold, CurrentField)}
