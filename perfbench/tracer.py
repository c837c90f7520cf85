"""Outside tracer: spans around the public functions of each monores module.

The program is not changed.  ``Tracer.install`` replaces each target
function with a wrapper in every ``monores.*`` namespace that binds it
(``resolution`` and ``cli`` use ``from ... import``, so patching only the
defining module would miss their calls) and ``uninstall`` puts the originals
back.  Spans are recorded only inside an op, kept in memory, and written out
when the run ends.

``divides`` and ``properly_divides`` are deliberately not wrapped: one
``verify`` op calls them millions of times, so a wrapper would distort every
other number.

The span stack is kept per thread, so parent links stay right if the program
runs work in threads.  Work done in other processes is not seen; the run's
coverage checks (see ``run.py``) fail when that happens.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
from time import perf_counter

LAYERS = ("monomials", "complexes", "posets", "homology", "resolution", "cli")


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _generators_key(args, kwargs):
    ideal = _arg(args, kwargs, 0, "ideal")
    return (ideal.nvars, ideal.generators)


def _count_buchberger_complex(tracer, args, kwargs, result):
    return {
        "repeat": tracer.seen("complexes.buchberger_complex", _generators_key(args, kwargs)),
        "faces_out": len(result) - 1,
    }


def _count_lcm_lattice(tracer, args, kwargs, result):
    return {
        "repeat": tracer.seen("posets.lcm_lattice", _generators_key(args, kwargs)),
        "elements_out": len(result),
    }


def _count_faces_out(tracer, args, kwargs, result):
    return {"faces_out": len(result) - 1}


def _count_order_complex(tracer, args, kwargs, result):
    return {"chains_out": len(result) - 1}


def _count_collapsed_core(tracer, args, kwargs, result):
    faces = _arg(args, kwargs, 0, "faces")
    if not isinstance(faces, frozenset):
        faces = frozenset(tuple(f) for f in faces)
    return {
        "repeat": tracer.seen("homology.collapsed_core", hash(faces)),
        "cells_in": len(faces) - (() in faces),
        "cells_out": len(result) - (() in result),
    }


def _count_supports_resolution(tracer, args, kwargs, result):
    lattice = _arg(args, kwargs, 3, "lattice")
    # None: the lattice is built inside and read from the child lcm_lattice span
    return {"degrees": None if lattice is None else len(lattice) - 1}


# (module, attribute path, counter, the counts it sums); the name of a span
# is "module.path"
TARGETS = (
    ("monomials", "random_ideal", None, ()),
    ("monomials", "parse_ideal", None, ()),
    ("complexes", "buchberger_complex", _count_buchberger_complex, ("repeat", "faces_out")),
    ("complexes", "clique_complex", _count_faces_out, ("faces_out",)),
    ("complexes", "buchberger_graph", None, ()),
    ("complexes", "subcomplex_dividing", None, ()),
    ("complexes", "SimplicialComplex.__init__", None, ()),
    ("posets", "lcm_lattice", _count_lcm_lattice, ("repeat", "elements_out")),
    ("posets", "open_interval", None, ()),
    ("posets", "FinitePoset.__init__", None, ()),
    ("posets", "buchberger_degree_poset", None, ()),
    ("posets", "crosscut_complex", None, ()),
    ("posets", "order_complex", _count_order_complex, ("chains_out",)),
    ("posets", "agreement_poset", None, ()),
    ("homology", "collapsed_core", _count_collapsed_core, ("repeat", "cells_in", "cells_out")),
    ("homology", "reduced_homology", None, ()),
    ("homology", "integral_homology", None, ()),
    ("resolution", "supports_resolution", _count_supports_resolution, ()),
    ("resolution", "lemma_battery", None, ()),
    ("resolution", "buchberger_minimality", None, ()),
    ("resolution", "betti_from_intervals", None, ()),
    ("resolution", "betti_from_agreement", None, ()),
    ("resolution", "betti_from_complex", None, ()),
    ("resolution", "conjecture_evidence", None, ()),
    ("resolution", "verify_scarf_equivalence", None, ()),
    ("cli", "main", None, ()),
    ("cli", "run_conjecture_trial", None, ()),
)


class Tracer:
    """Spans as [name, parent index, op, start, end, counts] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._op: int | None = None
        self._seen: dict[str, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- op scope -------------------------------------------------------
    def begin_op(self, index: int) -> None:
        self._op = index
        self._seen = {}

    def end_op(self) -> None:
        self._op = None

    def seen(self, name: str, key) -> bool:
        """True when ``key`` was already passed to ``name`` in this op."""
        keys = self._seen.setdefault(name, set())
        if key in keys:
            return True
        keys.add(key)
        return False

    # -- patching -------------------------------------------------------
    def _wrap(self, name: str, fn, counter):
        tracer = self
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            rec = [name, stack[-1] if stack else -1, tracer._op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                rec[3] = start
                stack.pop()
            if counter is not None:
                rec[5] = counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            mod_name: mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "monores" or mod_name.startswith("monores."))
        }
        for layer, path, counter, _ in TARGETS:
            name = f"{layer}.{path}"
            home = modules.get(f"monores.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules.values():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, (name, parent, op, start, end, counts) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "parent": parent, "op": op,
                         "start": start, "end": end, "counts": counts},
                        sort_keys=True,
                    )
                    + "\n"
                )


def aggregate(spans, op_scale) -> dict:
    """Per-layer metrics from the spans of one run.

    ``self_s`` is span time minus the time of child spans; ``total_s``
    includes them.  Times are multiplied by their op's entry in
    ``op_scale``; counts are summed over the run.  A target with no spans
    reads 0, since a layer that a workload does not reach has no cost there.
    """
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per: dict[str, dict] = {
        f"{layer}.{path}": dict.fromkeys(("calls", "total_s", "self_s", *keys), 0)
        for layer, path, _, keys in TARGETS
    }
    lattice_degrees_under: dict[int, int] = {}
    dividing_under_support = 0
    for i, (name, parent, op, start, end, counts) in enumerate(spans):
        entry = per[name]
        entry["calls"] += 1
        entry["total_s"] += (end - start) * op_scale[op]
        entry["self_s"] += (end - start - child_time[i]) * op_scale[op]
        for key, value in (counts or {}).items():
            if value is not None and key != "degrees":
                entry[key] += int(value)
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent_name == "resolution.supports_resolution":
            if name == "complexes.subcomplex_dividing":
                dividing_under_support += 1
            elif name == "posets.lcm_lattice" and counts:
                lattice_degrees_under[parent] = (
                    lattice_degrees_under.get(parent, 0) + counts["elements_out"] - 1
                )
    degrees = 0
    for i, (name, _, _, _, _, counts) in enumerate(spans):
        if name == "resolution.supports_resolution":
            given = (counts or {}).get("degrees")
            degrees += given if given is not None else lattice_degrees_under.get(i, 0)

    out: dict[str, float] = {}
    for name, entry in per.items():
        for key, value in entry.items():
            out[f"{name}.{'repeat_calls' if key == 'repeat' else key}"] = value
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            e["self_s"] for n, e in per.items() if n.startswith(layer + ".")
        )
    out["resolution.supports_resolution.distinct_key_share"] = (
        dividing_under_support / degrees if degrees else 0.0
    )
    out["resolution.supports_resolution.lattice_degrees"] = degrees
    cells_in = out.get("homology.collapsed_core.cells_in", 0)
    out["homology.collapsed_core.cells_kept_share"] = (
        out.get("homology.collapsed_core.cells_out", 0) / cells_in if cells_in else 0.0
    )
    out["trace.spans"] = len(spans)
    return out


def per_op_counts(spans, name: str, key: str) -> dict[int, int]:
    """The ``key`` counts of the ``name`` spans, summed per op."""
    sums: dict[int, int] = {}
    for span_name, _, op, _, _, counts in spans:
        if span_name == name and counts:
            sums[op] = sums.get(op, 0) + counts[key]
    return sums
