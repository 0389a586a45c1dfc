"""Outside-in tracing of kgbound: wrappers installed from the benchmark.

Nothing under src/ knows about this module.  `Tracer.install()` replaces
each traced function in every kgbound module namespace (and in
module-level dicts such as cli._DISPATCH) that holds it, so calls made
through names bound at import time (`from .solver import
solve_self_consistent`) are caught as well.  Spans are kept in memory and
aggregated or written out when the run ends.

A span is (id, name, start, end, parent id, thread id).  The parent is the
innermost open span of the same thread; a span opened on a pool worker
thread with nothing open on that thread is attached afterwards to the
innermost main-thread span that encloses it.  Self time is a span's
duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# module -> public functions wrapped besides the plain functions in __all__
_EXTRA = {
    "solver": ("eigh_tridiagonal",),
    "cli": (
        "cmd_spectrum",
        "cmd_wavefunction",
        "cmd_solve",
        "cmd_compare",
        "cmd_lorentz",
        "cmd_convergence",
    ),
}
TRACED_MODULES = ("solver", "coulomb", "special", "wavefunction", "lorentz", "cli")


def _span_name(module: str, func: str) -> str:
    if module == "cli" and func.startswith("cmd_"):
        return f"cli.cmd.{func[4:]}"
    return f"{module}.{func}"


def _select_width(args: tuple, kwargs: dict) -> int:
    """Eigenpairs one eigh_tridiagonal call asks for, read from its arguments."""
    d = args[0]
    select = kwargs.get("select", args[3] if len(args) > 3 else "a")
    if select == "i":
        lo, hi = kwargs.get("select_range", args[4] if len(args) > 4 else None)
        return int(hi) - int(lo) + 1
    return len(d)  # 'a' and 'v' are bounded by the matrix order


def _bound_state(result):
    return result[0] if isinstance(result, tuple) else result


# span name -> ((counter name, function of (args, kwargs, result)), ...): work
# counts computed from argument and result sizes, taken on successful calls
_COUNTERS = {
    "solver.eigh_tridiagonal": (("pairs_requested", lambda a, k, r: _select_width(a, k)),),
    "solver.discretize_operator": (
        ("bytes_computed", lambda a, k, r: r.diag.nbytes + r.offdiag.nbytes),
    ),
    "solver.solve_self_consistent": (
        ("completed", lambda a, k, r: 1),
        ("iterations", lambda a, k, r: _bound_state(r).iterations),
    ),
    "wavefunction.probability_current": (
        ("bytes_computed", lambda a, k, r: a[0].nbytes + sum(c.nbytes for c in r)),
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self.main_thread = threading.get_ident()
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, start: float, end: float) -> None:
        """Record a root span the caller timed itself, such as an import."""
        self.spans.append((next(self._ids), name, start, end, None, threading.get_ident()))

    def _wrap(self, name: str, fn):
        counters = _COUNTERS.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
            if counters:
                amounts = [(f"{name}.{c}", f(args, kwargs, result)) for c, f in counters]
                with self._count_lock:
                    for key, amount in amounts:
                        self.counts[key] += amount
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions wherever a kgbound module binds them."""
        targets = {}
        for mod_name in TRACED_MODULES:
            mod = sys.modules[f"kgbound.{mod_name}"]
            names = [
                n for n in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, n))
            ]
            names += [n for n in _EXTRA.get(mod_name, ()) if hasattr(mod, n)]
            for n in names:
                fn = getattr(mod, n)
                if id(fn) not in targets:
                    targets[id(fn)] = (fn, self._wrap(_span_name(mod_name, n), fn))
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "kgbound" or name.startswith("kgbound.")
        ]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, targets[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in targets and targets[id(item)][0] is item:
                            self._originals.append((value, key, item))
                            value[key] = targets[id(item)][1]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._originals):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._originals.clear()

    def take(self) -> tuple[list[tuple], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def _attach_orphans(spans: list[tuple], main_thread: int) -> dict[int, int | None]:
    """Parent of each span, with worker-thread roots moved under main-thread spans."""
    parents = {s[0]: s[4] for s in spans}
    main = sorted((s for s in spans if s[5] == main_thread), key=lambda s: s[2])
    for s in spans:
        if s[4] is None and s[5] != main_thread:
            best = None
            for m in main:
                if m[2] > s[2]:
                    break
                if m[3] >= s[3]:
                    best = m  # later starts are more deeply nested
            if best is not None:
                parents[s[0]] = best[0]
    return parents


def self_times(spans: list[tuple], main_thread: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    parents = _attach_orphans(spans, main_thread)
    children = defaultdict(list)
    for s in spans:
        parent = parents[s[0]]
        if parent is not None:
            children[parent].append((s[2], s[3]))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, t0, t1, _parent, _thread in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if cur_end is None or c0 > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c0, c1
            else:
                cur_end = max(cur_end, c1)
        if cur_end is not None:
            covered += cur_end - cur_start
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - covered
    return dict(out)
