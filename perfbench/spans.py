"""Span tracing of dtregge's public functions, installed from outside.

Every traced function is replaced by a wrapper in each loaded dtregge
module that binds it, so a call is seen whichever name the caller looks it
up under (``dtregge.catalog.canonical_code`` as well as
``dtregge.ribbon.canonical_code``).  A span records its function, the span
that was open when it started, and its start and end on ``perf_counter``.
Spans are kept in flat arrays and written out once, at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

#: Functions recorded as spans.
SPANNED = (
    "catalog.enumerate_triangulations",
    "catalog.enumerate_gluings",
    "catalog.enumerate_ribbon_cells",
    "triangulation.corner_classes",
    "triangulation.build_triangulation",
    "ribbon.dualize",
    "ribbon.canonical_code",
    "ribbon.aut_boundary",
    "volume.leray_volume",
    "volume.kernel_basis_and_particular",
    "volume.polytope_vertices",
    "volume.lebesgue_volume",
    "volume.det",
    "measure.constraint_system",
    "measure.kontsevich_check",
    "intersection.generating_F",
    "pairing.duality_pairing",
    "cache.load_catalog",
    "cache.verify_catalog",
    "cache.atomic_write_json",
    "polygon.equilateral_rank",
)

#: Functions only counted: they are called so often, and are so short,
#: that a span per call would distort the time of their callers.
COUNTED = (
    "volume.solve_square",
    "intersection.intersection_number",
)

#: Result sizes accumulated per function, for the yield ratios.
RESULT_SIZES = {
    "catalog.enumerate_triangulations": lambda catalog: len(catalog.entries),
    "volume.polytope_vertices": len,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = {}
        self.result_sizes: dict[str, int] = {}
        self._open = [-1]

    def spanned(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open
        )
        size_of = RESULT_SIZES.get(name)
        sizes = self.result_sizes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if size_of is not None:
                sizes[name] = sizes.get(name, 0) + size_of(result)
            return result

        return traced

    def counted(self, name, fn):
        calls = self.calls
        calls[name] = 0

        def traced(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function of the dtregge modules loaded now."""
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "dtregge" or name.startswith("dtregge.")
        ]
        for qualname in SPANNED + COUNTED:
            module_name, attr = qualname.split(".")
            home = sys.modules.get("dtregge." + module_name)
            if home is None:
                continue  # never imported, so never called
            original = getattr(home, attr)
            wrap = self.spanned if qualname in SPANNED else self.counted
            wrapper = wrap(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self) -> dict:
        """Calls, self time and inclusive time per function, plus counters.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, since calls nest.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        functions = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for name in self.names}
        codes_under_catalog = 0
        canonical = _index(self.names, "ribbon.canonical_code")
        catalog = _index(self.names, "catalog.enumerate_triangulations")
        for i in range(n):
            row = functions[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += duration[i] - covered[i]
            # a nested call of the same function is already inside its caller
            if not _has_ancestor(self, i, self.name_id[i]):
                row["incl_s"] += duration[i]
            p = self.parent[i]
            if self.name_id[i] == canonical and p >= 0 and self.name_id[p] == catalog:
                codes_under_catalog += 1
        return {
            "functions": functions,
            "calls": dict(self.calls),
            "result_sizes": dict(self.result_sizes),
            "catalog_canonical_code_calls": codes_under_catalog,
            "spans": n,
        }

    def write(self, path) -> None:
        """Spans as gzipped text: a JSON header naming the functions, then one
        ``function parent start end`` line per span (times in seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({"functions": self.names}) + "\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{self.name_id[i]} {self.parent[i]} "
                    f"{self.start[i]:.7f} {self.end[i]:.7f}\n"
                )


def _index(names, name) -> int:
    return names.index(name) if name in names else -2


def _has_ancestor(tracer: Tracer, i: int, nid: int) -> bool:
    p = tracer.parent[i]
    while p >= 0:
        if tracer.name_id[p] == nid:
            return True
        p = tracer.parent[p]
    return False
