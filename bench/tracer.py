"""Outside-in span tracer for the plane_supports package.

The tracer wraps a fixed list of public functions. For each one it rebinds
every ``plane_supports.*`` module attribute that refers to the function,
because the modules import each other's functions by name: patching only
the defining module would miss calls such as ``heuristics.segments_conflict``
or ``exact.local_search``. Each call records one span (name, parent, start,
end) in flat arrays kept in memory. Leaving the ``with`` block restores every
attribute, so the program is never edited and untraced runs measure the
unmodified code.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from operator import attrgetter

PACKAGE = "plane_supports"

# (module, function, probe). A probe maps the function's return value to a
# number that is summed per function: work counts the result types already
# report, so they come from the public surface rather than from inside.
TARGETS = (
    ("geom", "segments_conflict", None),
    ("model", "satisfies", None),
    ("model", "is_plane", None),
    ("model", "total_length", None),
    ("mst", "mst_with_free_edges", None),
    ("mst", "star_support", None),
    ("heuristics", "mst_approximation", None),
    ("heuristics", "mst_iteration", attrgetter("rounds_or_passes")),
    ("heuristics", "local_search", attrgetter("rounds_or_passes")),
    ("exact", "build_model", None),
    ("exact", "emit_lp", lambda text: len(text.encode("utf-8"))),
    ("exact", "solve_exact", attrgetter("nodes_explored")),
    ("gen", "generate", None),
    ("harness", "run_trial", None),
    ("fileio", "parse_hypergraph", None),
    ("fileio", "parse_support", None),
    ("fileio", "serialize_support", None),
    ("cli", "main", None),
)


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def _referenced(value) -> list:
    """Objects held one level inside a module attribute: container items,
    class attributes and function defaults. A target found there is an alias
    the tracer cannot rebind, so its calls would be charged to the caller."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    if isinstance(value, type):
        return [getattr(v, "__func__", v) for v in vars(value).values()]
    if callable(value):
        return list(getattr(value, "__defaults__", None) or ()) + \
            list((getattr(value, "__kwdefaults__", None) or {}).values())
    return []


class Tracer:
    """Context manager: wraps TARGETS on entry, restores them on exit."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in TARGETS]
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.probe_totals = [0] * len(TARGETS)
        self.unpatched_refs = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, probe):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, totals, clock = self._stack, self.probe_totals, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if probe is not None:
                totals[idx] += probe(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        mods = package_modules()
        wrappers = {}
        for idx, (mod, fn_name, probe) in enumerate(TARGETS):
            fn = getattr(mods[f"{PACKAGE}.{mod}"], fn_name)
            wrappers[id(fn)] = (fn, self._wrap(idx, fn, probe))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        # wrappers keeps every original alive, so an id match is identity.
        self.unpatched_refs = sum(
            1 for mod in mods.values() for value in vars(mod).values()
            for ref in _referenced(value) if id(ref) in wrappers)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def summary(self) -> dict:
        """Per-function calls, self seconds and probe totals, plus the time
        of each (parent, child) call edge.

        Self time is a span's duration minus its direct children's. Children
        are recorded after their parent, so one backward pass suffices.
        """
        k = len(self.names)
        calls, self_s = [0] * k, [0.0] * k
        edge_s: dict[tuple[str, str], float] = {}
        n = len(self.starts)
        child_s = array("d", bytes(8 * n))
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        for i in range(n - 1, -1, -1):
            d = ends[i] - starts[i]
            nm = name_ids[i]
            calls[nm] += 1
            self_s[nm] += d - child_s[i]
            p = parents[i]
            if p >= 0:
                child_s[p] += d
                key = (self.names[name_ids[p]], self.names[nm])
                edge_s[key] = edge_s.get(key, 0.0) + d
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "probe": dict(zip(self.names, self.probe_totals)),
            "edge_s": edge_s,
            "spans": n,
        }

    def write(self, path) -> None:
        """Write every span as TSV: id, parent, name, start and end in
        microseconds on the perf_counter clock."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            names = self.names
            for i in range(len(self.starts)):
                out.write(f"{i}\t{self.parents[i]}\t{names[self.name_ids[i]]}\t"
                          f"{self.starts[i] * 1e6:.1f}\t{self.ends[i] * 1e6:.1f}\n")
