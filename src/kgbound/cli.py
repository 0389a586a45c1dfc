"""Command-line front end: tables and plot-ready data files.

Subcommands: spectrum, wavefunction, solve, compare, lorentz, convergence.
Every setting is one entry of the `_SETTINGS` table, which gives its
config key, parser, commands and flag help; the subcommand flags, the
keys each config section accepts and the flag merge are all built from
it.  Settings merge in fixed precedence order

    built-in defaults < [common] config section < [<command>] section < flags,

with strict parsing: an unknown config key or section is an error, never
silently ignored.  Output goes to stdout or --out as CSV (12 significant
digits) or JSON (17 significant digits, {"meta": ..., "rows": ...}); the
files carry no timestamps, so identical configurations produce
byte-identical bytes.  Rows come out in (n, l) order.

Exit codes: 0 success, 2 configuration error (ConfigError), 3
physics-domain error (PhysicsError: supercritical coupling, invalid state,
unbound, unsupported mode/channel combination, superluminal boost), 4
numerical failure (NumericalError: no convergence, quadrature or tail
trouble; or float overflow and division by zero, ArithmeticError).  The
`solve` command instead reports per-state failures in a `status` column
and exits 0 once the table is written.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import __version__
from .core import ALPHA_FS, PhysicalParams, PotentialSpec, RadialGrid
from .coulomb import energy_expansion, energy_level, sigma_closed
from .errors import ConfigError, NumericalError, PhysicsError
from .lorentz import BoostSpec, CharacterState, boost_backward, boost_forward, invariant_mass_sq
from .solver import (
    SolveMode,
    SolveRequest,
    convergence_study,
    default_solver_grid,
    richardson_extrapolate,
    solve_self_consistent,
)
from .wavefunction import build_radial, count_radial_nodes

__all__ = ["RunConfig", "build_config", "main"]

# command -> subcommand help
_COMMANDS = {
    "spectrum": "closed-form level table",
    "wavefunction": "tabulate one radial wavefunction",
    "solve": "numerical eigensolve, one row per state",
    "compare": "closed form vs numeric vs Schrodinger",
    "lorentz": "boost a character state",
    "convergence": "grid-refinement study for one state",
}

# potential name -> PotentialSpec built from the screening parameter lambda
_POTENTIALS: dict[str, Callable[[float], PotentialSpec]] = {
    "coulomb": lambda lam: PotentialSpec.coulomb(),
    "hulthen": PotentialSpec.hulthen,
    "equal-coulomb": lambda lam: PotentialSpec.equal_coulomb(),
    "equal-hulthen": PotentialSpec.equal_hulthen,
    "free": lambda lam: PotentialSpec(),
}


@dataclass
class RunConfig:
    """Fully merged settings for one CLI run."""

    command: str
    # physical parameters
    z: float = 1.0
    alpha: float = ALPHA_FS
    rest_mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    # state selection
    n: int = 1
    l: int = 0
    n_max: int = 4
    states: tuple[tuple[int, int], ...] | None = None
    # solver
    mode: str = "kg-vector"
    potential: str = "coulomb"
    lam: float = 0.2
    grid_n: int = 8000
    rmax: float | None = None
    tol: float = 1e-12
    sizes: tuple[int, ...] = (2000, 4000, 8000)
    # wavefunction tabulation
    samples: int = 2000
    # lorentz inputs
    e: float = 1.0
    px: float = 0.0
    py: float = 0.0
    pz: float = 0.0
    u: float = 0.0
    u_prime: float = 0.0
    beta: float = 0.5
    # output
    out: str | None = None
    format: str = "csv"

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(
            z_number=self.z,
            alpha=self.alpha,
            rest_mass=self.rest_mass,
            c=self.c,
            hbar=self.hbar,
        )


def _parse_states(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"state {chunk!r} is not of the form n,l")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"state {chunk!r} is not an integer pair") from exc
    if not out:
        raise ConfigError("states list is empty")
    if len(set(out)) != len(out):
        raise ConfigError("states must be distinct")
    return tuple(out)


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"sizes {text!r} must be comma-separated integers") from exc
    if len(sizes) < 3:
        raise ConfigError("need at least 3 grid sizes")
    return sizes


def _one_of(key: str, choices) -> Callable[[str], str]:
    """Parser that accepts exactly one of `choices`."""

    def parse(text: str) -> str:
        if text not in choices:
            raise ConfigError(f"unknown {key} {text!r}; choose from {', '.join(choices)}")
        return text

    return parse


@dataclass(frozen=True)
class _Setting:
    """One settable value: config key, parser, commands and flag help."""

    key: str
    parse: Callable[[str], object]
    commands: tuple[str, ...]  # ("common",): read by every command
    help: str | None  # None: config file only, no flag
    attr: str | None = None  # RunConfig attribute, when it is not the key

    @property
    def dest(self) -> str:
        return self.attr or self.key


_COMMON = ("common",)
_ONE_STATE = ("wavefunction", "solve", "convergence")
_SOLVERS = ("solve", "convergence")
_MODES = tuple(m.value for m in SolveMode)

# The flags of each subcommand follow this order, after --config.
_SETTINGS = (
    _Setting("z", float, _COMMON, "charge number Z"),
    _Setting("alpha", float, _COMMON, "coupling constant alpha"),
    _Setting("rest_mass", float, _COMMON, "rest mass m0"),
    _Setting("c", float, _COMMON, None),
    _Setting("hbar", float, _COMMON, None),
    _Setting("out", str, _COMMON, "output file path (default: stdout)"),
    _Setting("format", _one_of("format", ("csv", "json")), _COMMON, "output format: csv | json"),
    _Setting("n", int, _ONE_STATE, "principal quantum number"),
    _Setting("l", int, _ONE_STATE, "orbital quantum number"),
    _Setting("n_max", int, ("spectrum", "compare"), "largest principal quantum number"),
    _Setting(
        "states", _parse_states, ("spectrum", "solve", "compare"), 'explicit states "n,l; n,l; ..."'
    ),
    _Setting("mode", _one_of("mode", _MODES), _SOLVERS, " | ".join(_MODES)),
    _Setting("potential", _one_of("potential", _POTENTIALS), _SOLVERS, " | ".join(_POTENTIALS)),
    _Setting("lambda", float, _SOLVERS, "screening parameter (units 1/a0)", attr="lam"),
    _Setting("grid_n", int, ("solve", "compare"), "grid points (compare: the fine grid)"),
    _Setting("sizes", _parse_sizes, ("convergence",), 'grid sizes "2000,4000,8000"'),
    _Setting("samples", int, ("wavefunction",), "number of radial samples"),
    _Setting("rmax", float, _ONE_STATE, "radial extent override"),
    _Setting("tol", float, ("solve", "compare", "convergence"), "self-consistency tolerance"),
    _Setting("e", float, ("lorentz",), "total energy E"),
    _Setting("px", float, ("lorentz",), "momentum x component"),
    _Setting("py", float, ("lorentz",), "momentum y component"),
    _Setting("pz", float, ("lorentz",), "momentum z component"),
    _Setting("u", float, ("lorentz",), "potential value U in the source frame"),
    _Setting("u_prime", float, ("lorentz",), "potential value in the target frame"),
    _Setting("beta", float, ("lorentz",), "boost speed v/c"),
)


def _section_settings(section: str) -> dict[str, _Setting]:
    """Settings a config section accepts; for a command, also its flags."""
    return {
        s.key: s for s in _SETTINGS if "common" in s.commands or section in s.commands
    }


def _load_config_file(cfg: RunConfig, path: str) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} is malformed: {exc}") from exc

    # Every section is checked; only [common] and the active command's
    # section are applied, in that order.
    known = ("common", *_COMMANDS)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(
                f"{path}: unknown section [{section}]; known: {', '.join(sorted(known))}"
            )
        allowed = _section_settings(section)
        for key, _raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
    for section in ("common", cfg.command):
        if not parser.has_section(section):
            continue
        settings = _section_settings(section)
        for key, raw in parser.items(section):
            setting = settings[key]
            try:
                value = setting.parse(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path} [{section}]: bad value {raw!r} for key {key!r}") from exc
            setattr(cfg, setting.dest, value)


def _build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kgbound",
        description="Relativistic bound-state spectra, wavefunctions, and kinematics.",
        allow_abbrev=False,
    )
    top.add_argument("--version", action="version", version=f"kgbound {__version__}")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    for command, help_text in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", help="config file (sections [common] and [<command>])")
        # parsers raise ConfigError for bad lists and names; argparse lets it through
        for s in _section_settings(command).values():
            if s.help is not None:
                flag = "--" + s.key.replace("_", "-")
                sp.add_argument(flag, dest=s.dest, type=s.parse, help=s.help)
    return top


def build_config(argv: list[str] | None = None) -> RunConfig:
    """Parse flags and config file into a merged RunConfig."""
    args = _build_arg_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    if args.config:
        _load_config_file(cfg, args.config)
    for s in _section_settings(cfg.command).values():
        value = getattr(args, s.dest, None)
        if value is not None:
            setattr(cfg, s.dest, value)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, not {value!r}")
    try:
        cfg.physical_params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key, value in (("tol", cfg.tol), ("lambda", cfg.lam), ("rmax", cfg.rmax)):
        if value is not None and value <= 0:
            raise ConfigError(f"{key} must be positive, not {value!r}")
    if cfg.n_max < 1:
        raise ConfigError("n_max must be at least 1")
    if min(cfg.grid_n, *cfg.sizes) < 16:
        raise ConfigError("grid sizes must be at least 16")
    if len(set(cfg.sizes)) != len(cfg.sizes):
        raise ConfigError("grid sizes must be distinct")
    if cfg.samples < 3:
        raise ConfigError("samples must be at least 3")


def _all_states(n_max: int) -> tuple[tuple[int, int], ...]:
    return tuple((n, l) for n in range(1, n_max + 1) for l in range(n))


def _requested_states(cfg: RunConfig) -> tuple[tuple[int, int], ...]:
    if cfg.states is not None:
        return tuple(sorted(cfg.states))
    return _all_states(cfg.n_max)


def _common_meta(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "version": __version__,
        "z": cfg.z,
        "alpha": cfg.alpha,
        "rest_mass": cfg.rest_mass,
        "c": cfg.c,
        "hbar": cfg.hbar,
    }


def _screening_meta(cfg: RunConfig) -> dict:
    """The meta entry for lambda, given only for the screened potentials."""
    return {"lambda": cfg.lam} if cfg.potential in ("hulthen", "equal-hulthen") else {}


def cmd_spectrum(cfg: RunConfig) -> tuple[dict, list[dict]]:
    p = cfg.physical_params()
    rest = p.rest_energy
    rows = []
    for n, l in _requested_states(cfg):
        b = energy_level(p, n, l)
        expansion = energy_expansion(p, n, l)
        rows.append(
            {
                "n": n,
                "l": l,
                "sigma_l": sigma_closed(p, l).sigma_l,
                "e_total_ratio": b.e_total / rest,
                "e_prime_ratio": b.e_prime / rest,
                "system_mass_ratio": b.system_mass / p.rest_mass,
                "expansion_ratio": expansion / rest,
                "closed_minus_expansion": abs(b.e_total - expansion),
            }
        )
    return _common_meta(cfg), rows


def cmd_wavefunction(cfg: RunConfig) -> tuple[dict, list[dict]]:
    p = cfg.physical_params()
    R = build_radial(p, cfg.n, cfg.l)
    r_max = cfg.rmax if cfg.rmax is not None else R.tail_radius(1e-10)
    grid = RadialGrid.uniform(r_max, cfg.samples)
    r = grid.points
    vals = np.asarray(R.evaluate(r))
    meta = _common_meta(cfg)
    meta.update(
        {
            "n": cfg.n,
            "l": cfg.l,
            "sigma_l": sigma_closed(p, cfg.l).sigma_l,
            "normalization": R.normalization,
            "rho_scale": R.rho_scale,
            "node_count": count_radial_nodes(R),
            "r_max": r_max,
        }
    )
    rows = [
        {
            "r": float(ri),
            "R": float(Ri),
            "u": float(ri * Ri),
            "rho": float(R.rho_scale * ri),
            "density": float(ri * ri * Ri * Ri),
        }
        for ri, Ri in zip(r, vals)
    ]
    return meta, rows


def cmd_solve(cfg: RunConfig) -> tuple[dict, list[dict]]:
    p = cfg.physical_params()
    mode = SolveMode(cfg.mode)
    potential = _POTENTIALS[cfg.potential](cfg.lam)
    states = cfg.states if cfg.states is not None else ((cfg.n, cfg.l),)
    rows = []
    for n, l in sorted(states):
        row = {
            "mode": mode.value,
            "potential": cfg.potential,
            "n": n,
            "l": l,
            "e_prime": None,
            "system_mass": None,
            "iterations": None,
            "residual": None,
            "node_count": None,
            "status": "ok",
        }
        rows.append(row)
        try:
            grid = default_solver_grid(
                mode, potential, p, n, l, n_points=cfg.grid_n, r_max=cfg.rmax
            )
            b = solve_self_consistent(
                SolveRequest(
                    mode=mode,
                    potential=potential,
                    n=n,
                    l=l,
                    grid=grid,
                    sc_tolerance=cfg.tol,
                ),
                p,
            )
        except (PhysicsError, NumericalError, ArithmeticError) as exc:
            row["status"] = type(exc).__name__
            continue
        row.update(
            {
                "e_prime": b.e_prime,
                "system_mass": b.system_mass,
                "iterations": b.iterations,
                "residual": b.residual,
                "node_count": b.node_count,
            }
        )
    meta = _common_meta(cfg)
    meta.update({"mode": mode.value, "potential": cfg.potential, "grid_n": cfg.grid_n})
    meta.update(_screening_meta(cfg))
    return meta, rows


def cmd_compare(cfg: RunConfig) -> tuple[dict, list[dict]]:
    """Binding-sector energies E' side by side: closed KG, numeric KG, Schrodinger."""
    p = cfg.physical_params()
    potential = PotentialSpec.coulomb()
    rest = p.rest_energy
    rows = []
    for n, l in _requested_states(cfg):
        closed = energy_level(p, n, l).e_prime
        coarse_grid, fine_grid = (
            default_solver_grid(SolveMode.KG_VECTOR, potential, p, n, l, n_points=size)
            for size in (cfg.grid_n // 2, cfg.grid_n)
        )
        coarse, fine = (
            solve_self_consistent(
                SolveRequest(
                    mode=SolveMode.KG_VECTOR,
                    potential=potential,
                    n=n,
                    l=l,
                    grid=grid,
                    sc_tolerance=cfg.tol,
                ),
                p,
            ).e_prime
            for grid in (coarse_grid, fine_grid)
        )
        numeric = richardson_extrapolate(coarse, fine, coarse_grid.step / fine_grid.step)
        schrodinger = -p.z_alpha ** 2 * rest / (2.0 * n ** 2)
        rows.append(
            {
                "n": n,
                "l": l,
                "e_kg_closed": closed,
                "e_kg_numeric": numeric,
                "e_schrodinger": schrodinger,
                "delta_closed_numeric": abs(closed - numeric) / abs(closed),
                "delta_kg_schrodinger": abs(closed - schrodinger) / abs(schrodinger),
            }
        )
    meta = _common_meta(cfg)
    meta.update({"grid_n": cfg.grid_n, "energies": "binding sector E' (rest energy excluded)"})
    return meta, rows


def cmd_lorentz(cfg: RunConfig) -> tuple[dict, list[dict]]:
    s = CharacterState(e_total=cfg.e, p=(cfg.px, cfg.py, cfg.pz), u_potential=cfg.u)
    b = BoostSpec(v=cfg.beta * cfg.c, c=cfg.c)
    s_prime = boost_forward(s, b, u_prime=cfg.u_prime)
    back = boost_backward(s_prime, b, u=cfg.u)

    def row(label: str, st: CharacterState) -> dict:
        return {
            "frame": label,
            "e_total": st.e_total,
            "px": st.p[0],
            "py": st.p[1],
            "pz": st.p[2],
            "u_potential": st.u_potential,
            "invariant": invariant_mass_sq(st, cfg.c),
        }

    rows = [row("K", s), row("K_prime", s_prime)]
    meta = _common_meta(cfg)
    meta.update(
        {
            "beta": b.beta,
            "gamma": b.gamma,
            "invariant_drift": abs(invariant_mass_sq(s_prime, cfg.c) - invariant_mass_sq(s, cfg.c)),
            "roundtrip_error": max(
                abs(back.e_total - s.e_total),
                max(abs(a - b_) for a, b_ in zip(back.p, s.p)),
            ),
        }
    )
    return meta, rows


def cmd_convergence(cfg: RunConfig) -> tuple[dict, list[dict]]:
    p = cfg.physical_params()
    mode = SolveMode(cfg.mode)
    potential = _POTENTIALS[cfg.potential](cfg.lam)
    grid = (
        RadialGrid.uniform(cfg.rmax, max(cfg.sizes)) if cfg.rmax is not None else None
    )
    req = SolveRequest(
        mode=mode, potential=potential, n=cfg.n, l=cfg.l, grid=grid, sc_tolerance=cfg.tol
    )
    study = convergence_study(req, p, cfg.sizes)
    rows = []
    for i, (n_pts, e_prime, rich) in enumerate(study.rows):
        order = study.observed_orders[i - 2] if i >= 2 else None
        rows.append(
            {"n_points": n_pts, "e_prime": e_prime, "richardson": rich, "observed_order": order}
        )
    meta = _common_meta(cfg)
    meta.update(
        {
            "mode": mode.value,
            "potential": cfg.potential,
            "n": cfg.n,
            "l": cfg.l,
            "r_max": study.r_max,
        }
    )
    meta.update(_screening_meta(cfg))
    return meta, rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.11e}"
    return str(value)


def _render_csv(meta: dict, rows: list[dict]) -> str:
    buf = io.StringIO()
    for key in meta:
        buf.write(f"# {key} = {_csv_cell(meta[key])}\n")
    if rows:
        columns = list(rows[0].keys())
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")
    return buf.getvalue()


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_json(meta: dict, rows: list[dict]) -> str:
    return _json_value({"meta": meta, "rows": rows}) + "\n"


def _write_output(cfg: RunConfig, meta: dict, rows: list[dict]) -> None:
    text = _render_json(meta, rows) if cfg.format == "json" else _render_csv(meta, rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "wavefunction": cmd_wavefunction,
    "solve": cmd_solve,
    "compare": cmd_compare,
    "lorentz": cmd_lorentz,
    "convergence": cmd_convergence,
}


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(argv)
        meta, rows = _DISPATCH[cfg.command](cfg)
        _write_output(cfg, meta, rows)
    except ConfigError as exc:
        print(f"kgbound: config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"kgbound: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ArithmeticError) as exc:
        print(f"kgbound: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
