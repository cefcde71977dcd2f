"""In-memory span tracer that wraps the library's public entry points.

A span records (id, name, start, end, parent id, query id, size).  Spans
stay in a list while the traced batch runs; aggregation and the optional
JSON-lines dump happen afterwards.

Names are bound at import time in several places: ``homotopy`` does
``from .algebra import solve_f2_rows``, ``cli`` does ``from .models import
parse_complex``, and the package ``__init__`` re-exports most entry points.
Other call sites import inside the function body, which reads the defining
module's attribute at call time.  Patching therefore replaces the function
in its defining module *and* in every ``corkscrew`` module whose namespace
holds the same object; methods are patched on their class.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (defining module, attribute path, span name, size of the problem or None)
# A size is a function of the bound arguments.
ENTRY_POINTS = [
    ("algebra", "solve_f2_rows", "algebra.solve", lambda a: a["ncols"]),
    ("algebra", "solve_f2", "algebra.solve", lambda a: a["a"].cols),
    ("algebra", "f2_rank", "algebra.solve", lambda a: a["ncols"]),
    ("algebra", "lexmin_affine", "algebra.solve", lambda a: a["ncols"]),
    ("complexes", "tensor", "complexes.tensor", None),
    ("complexes", "dual", "complexes.dual", None),
    ("complexes", "sarkar_map", "complexes.sarkar_map", None),
    ("complexes", "validate", "complexes.validate", None),
    ("homotopy", "MapSystem.solve", "homotopy.mapsystem_solve",
     lambda a: a["self"].total),
    ("homotopy", "MapSystem.solutions_bits", "homotopy.mapsystem_solve",
     lambda a: a["self"].total),
    ("homotopy", "local_map_exists", "homotopy.local_map_exists", None),
    ("homotopy", "homotopic", "homotopy.homotopic", None),
    ("homotopy", "homotopy_inverse", "homotopy.homotopy_inverse", None),
    ("homotopy", "self_local_space", "homotopy.self_local_space", None),
    ("invariants", "delta", "invariants.delta",
     lambda a: a["x"].complex.n),
    ("invariants", "homology_u", "invariants.homology_u",
     lambda a: a["uc"].n),
    ("invariants", "a0", "invariants.a0", None),
    # connected_complex calls the private _recognize, not recognize_standard
    ("connected", "recognize_standard", "connected.recognize_standard",
     lambda a: a["cx"].n),
    ("connected", "_recognize", "connected.recognize_standard",
     lambda a: a["cx"].n),
    ("connected", "connected_complex", "connected.connected_complex", None),
    ("connected", "s_nontrivial", "connected.s_nontrivial", None),
    ("models", "parse_complex", "models.parse", None),
    ("models", "parse_complex_text", "models.parse", None),
    ("models", "phi_iota_from_dict", "models.parse", None),
    ("models", "solve_involution", "models.solve_involution",
     lambda a: a["cx"].n),
    ("models", "involution_candidates", "models.involution_candidates",
     None),
    ("verdicts", "verdict_gompf", "verdicts.verdict_gompf", None),
    ("verdicts", "verdict_delta", "verdicts.verdict_delta", None),
    ("verdicts", "verdict_split", "verdicts.verdict_split", None),
    ("verdicts", "verdict_periodic", "verdicts.verdict_periodic", None),
    ("verdicts", "replay_certificate", "verdicts.replay_certificate", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Context manager: patches the entry points on enter, restores them
    on exit.  Outside the ``with`` block the library runs unwrapped."""

    def __init__(self):
        self.clock = time.perf_counter  # run_batch sets the meter's clock
        self.spans: list = []  # [name, start, end, parent, query, size]
        self.stack: list = []
        self.query = -1
        self.exact = 0  # connected_complex answers labelled exact-standard
        self._restore: list = []

    def span(self, name: str, size=None):
        """Open a span; returns its id.  Close it with :meth:`close`."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent,
                           self.query, size])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = self.clock()
        self.stack.pop()

    def _wrap(self, fn, name, sizer):
        sig = inspect.signature(fn) if sizer else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = None
            if sizer is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                size = sizer(bound.arguments)
            sid = tracer.span(name, size)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if name == "connected.connected_complex" and \
                    out.method == "exact-standard":
                tracer.exact += 1
            return out

        return wrapper

    def __enter__(self):
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and
                (k == "corkscrew" or k.startswith("corkscrew."))]
        for modname, path, name, sizer in ENTRY_POINTS:
            home = sys.modules[f"corkscrew.{modname}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(orig, name, sizer))
                continue
            orig = getattr(home, path)
            wrapped = self._wrap(orig, name, sizer)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapped)
        return self

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, query, size) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "query": query,
                                     "size": size}) + "\n")


def aggregate(spans: list) -> dict:
    """Per span name: calls, total_s, self_s and size_max.

    ``calls`` and ``total_s`` count only the outermost span of a name (a
    name re-entered below itself, such as ``solve_f2`` calling
    ``solve_f2_rows``, is not counted twice); ``self_s`` is each span's
    duration minus its children's, summed over all spans of the name.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for sid, (name, start, end, parent, _, size) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "size_max": 0})
        dur = end - start
        agg["self_s"] += dur - child[sid]
        if size is not None:
            agg["size_max"] = max(agg["size_max"], size)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["calls"] += 1
            agg["total_s"] += dur
    return out
