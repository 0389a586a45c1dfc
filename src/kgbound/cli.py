"""Command-line front end: tables and plot-ready data files.

Subcommands: spectrum, wavefunction, solve, compare, lorentz, convergence.
`RunConfig` is the list of settings: each field after `command` carries
its parser, commands and flag help; the subcommand flags, the keys each
config section accepts and the flag merge are all built from those
fields.  Settings merge in fixed precedence order

    built-in defaults < [common] config section < [<command>] section < flags,

with strict parsing: an unknown config key or section is an error, never
silently ignored.  Each value is checked by its key's parser where it is
read, so a bad value is an error even when a later layer overrides it or
it sits in another command's section.
Output goes to stdout or --out as CSV (12 significant digits) or JSON (17
significant digits, {"meta": ..., "rows": ...}); the files carry no
timestamps, so identical configurations produce byte-identical bytes.
Rows come out in (n, l) order.  Each cmd_* function returns its own meta
entries and rows; main puts the common meta (command, version, physical
parameters) in front.

Exit codes: 0 success, 2 configuration error (ConfigError), 3
physics-domain error (PhysicsError: supercritical coupling, invalid state,
unbound, unsupported mode/channel combination, superluminal boost), 4
numerical failure (NumericalError: no convergence; or float overflow and
division by zero, ArithmeticError).  The `solve` command instead reports
per-state failures in a `status` column and exits 0 once the table is
written.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import numbers
import sys
from dataclasses import Field, dataclass, field, fields
from typing import Callable

from . import __version__, solver, wavefunction
from .core import ALPHA_FS, PhysicalParams, PotentialSpec, RadialGrid, SolveMode
from .coulomb import energy_expansion, energy_level, sigma_closed
from .errors import ConfigError, NumericalError, PhysicsError
from .lorentz import BoostSpec, CharacterState, boost_backward, boost_forward, invariant_mass_sq

__all__ = ["RunConfig", "build_config", "main"]

# command -> subcommand help; command X runs cmd_X
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


def _checked(key: str, convert: Callable, ok: Callable, rule: str) -> Callable:
    """Parser that converts the text, then raises ConfigError unless ok(value)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ConfigError(f"{key} must be {rule}, not {value!r}")
        return value

    parse.__name__ = convert.__name__  # argparse says "invalid float value: 'abc'"
    return parse


def _positive(key: str) -> Callable[[str], float]:
    return _checked(key, float, lambda v: math.isfinite(v) and v > 0, "finite and positive")


def _finite(key: str) -> Callable[[str], float]:
    return _checked(key, float, math.isfinite, "finite")


def _at_least(key: str, k: int) -> Callable[[str], int]:
    return _checked(key, int, lambda v: v >= k, f"at least {k}")


def _one_of(key: str, choices) -> Callable[[str], str]:
    return _checked(key, str, lambda v: v in choices, f"one of {', '.join(choices)}")


def _parse_sizes(text: str) -> tuple[int, ...]:
    size = _at_least("sizes", 16)
    try:
        sizes = tuple(size(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"sizes {text!r} must be comma-separated integers") from exc
    if len(sizes) < 3:
        raise ConfigError("sizes needs at least 3 grid sizes")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"sizes must be distinct, not {text!r}")
    return sizes


def _setting(default, parse, commands: tuple[str, ...], help: str | None, key: str | None = None):
    """A RunConfig field that is also a setting: its parser, the commands that
    read it (("common",): all of them), its flag help (None: config only) and
    its config key when that is not the field name.  Defaults are never parsed."""
    return field(default=default, metadata=dict(parse=parse, commands=commands, help=help, key=key))


_COMMON = ("common",)
_ONE_STATE = ("wavefunction", "solve", "convergence")
_SOLVERS = ("solve", "convergence")
_LORENTZ = ("lorentz",)
_MODES = tuple(m.value for m in SolveMode)


@dataclass
class RunConfig:
    """Fully merged settings for one CLI run; the fields after `command` are
    the settings (see `_setting`), in the flag order of each --help."""

    command: str
    # physical parameters; c and hbar are config-only
    z: float = _setting(1.0, _positive("z"), _COMMON, "charge number Z")
    alpha: float = _setting(ALPHA_FS, _positive("alpha"), _COMMON, "coupling constant alpha")
    rest_mass: float = _setting(1.0, _positive("rest_mass"), _COMMON, "rest mass m0")
    c: float = _setting(1.0, _positive("c"), _COMMON, None)
    hbar: float = _setting(1.0, _positive("hbar"), _COMMON, None)
    # output
    out: str | None = _setting(None, str, _COMMON, "output file path (default: stdout)")
    format: str = _setting(
        "csv", _one_of("format", ("csv", "json")), _COMMON, "output format: csv | json"
    )
    # state selection
    n: int = _setting(1, int, _ONE_STATE, "principal quantum number")
    l: int = _setting(0, int, _ONE_STATE, "orbital quantum number")
    n_max: int = _setting(
        4, _at_least("n_max", 1), ("spectrum", "compare"), "largest principal quantum number"
    )
    states: tuple[tuple[int, int], ...] | None = _setting(
        None, _parse_states, ("spectrum", "solve", "compare"), 'explicit states "n,l; n,l; ..."'
    )
    # solver grids and wavefunction tabulation
    mode: str = _setting("kg-vector", _one_of("mode", _MODES), _SOLVERS, " | ".join(_MODES))
    potential: str = _setting(
        "coulomb", _one_of("potential", _POTENTIALS), _SOLVERS, " | ".join(_POTENTIALS)
    )
    lam: float = _setting(
        0.2, _positive("lambda"), _SOLVERS, "screening parameter (units 1/a0)", key="lambda"
    )
    grid_n: int = _setting(
        8000, _at_least("grid_n", 16), ("solve", "compare"), "grid points (compare: the fine grid)"
    )
    sizes: tuple[int, ...] = _setting(
        (2000, 4000, 8000), _parse_sizes, ("convergence",), 'grid sizes "2000,4000,8000"'
    )
    samples: int = _setting(
        2000, _at_least("samples", 3), ("wavefunction",), "number of radial samples"
    )
    rmax: float | None = _setting(None, _positive("rmax"), _ONE_STATE, "radial extent override")
    tol: float = _setting(
        1e-12, _positive("tol"), ("solve", "compare", "convergence"), "self-consistency tolerance"
    )
    # lorentz inputs
    e: float = _setting(1.0, _finite("e"), _LORENTZ, "total energy E")
    px: float = _setting(0.0, _finite("px"), _LORENTZ, "momentum x component")
    py: float = _setting(0.0, _finite("py"), _LORENTZ, "momentum y component")
    pz: float = _setting(0.0, _finite("pz"), _LORENTZ, "momentum z component")
    u: float = _setting(0.0, _finite("u"), _LORENTZ, "potential value U in the source frame")
    u_prime: float = _setting(
        0.0, _finite("u_prime"), _LORENTZ, "potential value in the target frame"
    )
    beta: float = _setting(0.5, _finite("beta"), _LORENTZ, "boost speed v/c")

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(
            z_number=self.z,
            alpha=self.alpha,
            rest_mass=self.rest_mass,
            c=self.c,
            hbar=self.hbar,
        )


def _section_settings(section: str) -> dict[str, Field]:
    """Settings a config section accepts, by config key; for a command, also its flags."""
    return {
        f.metadata["key"] or f.name: f
        for f in fields(RunConfig)
        if f.metadata and ("common" in f.metadata["commands"] or section in f.metadata["commands"])
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

    # Every section's keys and values are checked; only [common] and the
    # active command's section are applied, in that order.
    known = ("common", *_COMMANDS)
    parsed = {}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(
                f"{path}: unknown section [{section}]; known: {', '.join(sorted(known))}"
            )
        allowed = _section_settings(section)
        parsed[section] = []
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            try:
                value = allowed[key].metadata["parse"](raw)
            except (TypeError, ValueError, ConfigError) as exc:
                raise ConfigError(
                    f"{path} [{section}]: bad value {raw!r} for key {key!r}: {exc}"
                ) from exc
            parsed[section].append((allowed[key].name, value))
    for section in ("common", cfg.command):
        for name, value in parsed.get(section, ()):
            setattr(cfg, name, value)


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
        # parsers raise ConfigError for bad values; argparse lets it through
        for key, setting in _section_settings(command).items():
            meta = setting.metadata
            if meta["help"] is not None:
                flag = "--" + key.replace("_", "-")
                sp.add_argument(flag, dest=setting.name, type=meta["parse"], help=meta["help"])
    return top


def build_config(argv: list[str] | None = None) -> RunConfig:
    """Parse flags and config file into a merged RunConfig."""
    args = _build_arg_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    if args.config:
        _load_config_file(cfg, args.config)
    for setting in _section_settings(cfg.command).values():
        value = getattr(args, setting.name, None)
        if value is not None:
            setattr(cfg, setting.name, value)
    return cfg


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
    return {}, rows


def cmd_wavefunction(cfg: RunConfig) -> tuple[dict, list[dict]]:
    p = cfg.physical_params()
    R = wavefunction.build_radial(p, cfg.n, cfg.l)
    r_max = cfg.rmax if cfg.rmax is not None else R.tail_radius(1e-10)
    r = RadialGrid(r_max, cfg.samples).points
    vals = R.evaluate(r)
    meta = {
        "n": cfg.n,
        "l": cfg.l,
        "sigma_l": sigma_closed(p, cfg.l).sigma_l,
        "normalization": R.normalization,
        "rho_scale": R.rho_scale,
        "node_count": wavefunction.count_radial_nodes(R),
        "r_max": r_max,
    }
    rows = [
        {"r": ri, "R": Ri, "u": ri * Ri, "rho": R.rho_scale * ri, "density": ri * ri * Ri * Ri}
        for ri, Ri in zip(r.tolist(), vals.tolist())
    ]
    if not all(math.isfinite(v) for row in rows for v in row.values()):
        raise OverflowError(f"the table overflows on a box of r_max = {r_max:.6g}")
    return meta, rows


def cmd_solve(cfg: RunConfig) -> tuple[dict, list[dict]]:
    p = cfg.physical_params()
    mode = SolveMode(cfg.mode)
    potential = _POTENTIALS[cfg.potential](cfg.lam)
    states = cfg.states if cfg.states is not None else ((cfg.n, cfg.l),)
    columns = ("e_prime", "system_mass", "iterations", "residual", "node_count")
    rows = []
    for n, l in sorted(states):
        try:
            grid = solver.default_solver_grid(
                mode, potential, p, n, l, n_points=cfg.grid_n, r_max=cfg.rmax
            )
            req = solver.SolveRequest(mode, potential, n, l, grid, sc_tolerance=cfg.tol)
            b = solver.solve_self_consistent(req, p)
        except (PhysicsError, NumericalError, ArithmeticError) as exc:
            values, status = dict.fromkeys(columns), type(exc).__name__
        else:
            values, status = {c: getattr(b, c) for c in columns}, "ok"
        head = {"mode": mode.value, "potential": cfg.potential, "n": n, "l": l}
        rows.append({**head, **values, "status": status})
    meta = {"mode": mode.value, "potential": cfg.potential, "grid_n": cfg.grid_n}
    return {**meta, **_screening_meta(cfg)}, rows


def cmd_compare(cfg: RunConfig) -> tuple[dict, list[dict]]:
    """Binding-sector energies E' side by side: closed KG, numeric KG (a two-grid
    convergence study on grid_n // 2 and grid_n points), Schrodinger."""
    p = cfg.physical_params()
    potential = PotentialSpec.coulomb()
    rest = p.rest_energy
    rows = []
    for n, l in _requested_states(cfg):
        closed = energy_level(p, n, l).e_prime
        req = solver.SolveRequest(SolveMode.KG_VECTOR, potential, n, l, sc_tolerance=cfg.tol)
        numeric = solver.convergence_study(req, p, (cfg.grid_n // 2, cfg.grid_n)).best_estimate
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
    return {"grid_n": cfg.grid_n, "energies": "binding sector E' (rest energy excluded)"}, rows


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

    meta = {
        "beta": b.beta,
        "gamma": b.gamma,
        "invariant_drift": abs(invariant_mass_sq(s_prime, cfg.c) - invariant_mass_sq(s, cfg.c)),
        "roundtrip_error": max(
            abs(back.e_total - s.e_total),
            max(abs(a - b_) for a, b_ in zip(back.p, s.p)),
        ),
    }
    return meta, [row("K", s), row("K_prime", s_prime)]


def cmd_convergence(cfg: RunConfig) -> tuple[dict, list[dict]]:
    p = cfg.physical_params()
    mode = SolveMode(cfg.mode)
    potential = _POTENTIALS[cfg.potential](cfg.lam)
    grid = RadialGrid(cfg.rmax, max(cfg.sizes)) if cfg.rmax is not None else None
    req = solver.SolveRequest(
        mode=mode, potential=potential, n=cfg.n, l=cfg.l, grid=grid, sc_tolerance=cfg.tol
    )
    study = solver.convergence_study(req, p, cfg.sizes)
    rows = [
        {"n_points": n_pts, "e_prime": e_prime, "richardson": rich, "observed_order": order}
        for (n_pts, e_prime, rich), order in zip(study.rows, (None, None, *study.observed_orders))
    ]
    meta = {"mode": mode.value, "potential": cfg.potential, "n": cfg.n, "l": cfg.l}
    return {**meta, "r_max": study.r_max, **_screening_meta(cfg)}, rows


def _cell(value, digits: int, null: str, text: Callable[[str], str]) -> str:
    """One meta value or row cell: floats in scientific notation with `digits`
    decimals, None as `null`, strings through `text`."""
    if value is None:
        return null
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return f"{float(value):.{digits}e}"
    return text(value)


def _render_csv(meta: dict, rows: list[dict]) -> str:
    buf = io.StringIO()
    for key in meta:
        buf.write(f"# {key} = {_cell(meta[key], 11, '', str)}\n")
    if rows:
        columns = list(rows[0].keys())
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(_cell(row[c], 11, "", str) for c in columns) + "\n")
    return buf.getvalue()


def _render_json(meta: dict, rows: list[dict]) -> str:
    def obj(d: dict) -> str:
        items = (f"{json.dumps(k)}: {_cell(v, 16, 'null', json.dumps)}" for k, v in d.items())
        return "{" + ", ".join(items) + "}"

    return '{"meta": ' + obj(meta) + ', "rows": [' + ", ".join(map(obj, rows)) + "]}\n"


def _write_output(cfg: RunConfig, meta: dict, rows: list[dict]) -> None:
    text = _render_json(meta, rows) if cfg.format == "json" else _render_csv(meta, rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(argv)
        meta, rows = globals()[f"cmd_{cfg.command}"](cfg)
        _write_output(cfg, {**_common_meta(cfg), **meta}, rows)
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
