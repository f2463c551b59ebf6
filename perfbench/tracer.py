"""Spans and counters installed on the program from outside it.

Two kinds of wrapper are installed by rebinding module attributes:

* every public function defined in a ``monotrack`` module gets a span named
  ``<module>.<function>``; the wrapper replaces the function on *every*
  module that binds it, because the modules import each other's functions
  by name;
* the dense factorisation entry points of ``numpy.linalg`` and
  ``scipy.linalg`` (SVD, eig / generalized eig, solve, lstsq, expm) get a
  call counter, a computed flop count and, when spans are on, a span named
  ``linalg.<group>``. Only the outermost call is counted: a factorisation
  that calls another one internally counts once.

Recording happens only while ``Recorder.active`` is true, so the
benchmark's own correctness checks, which also call ``numpy.linalg``, are
never counted. Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("numkernel", "sysmodel", "subspaces", "solvability", "synthesis", "simverify", "ensemble", "cli")

# (module, attribute) of each public entry point, grouped as reported.
LINALG_ENTRY_POINTS = {
    "svd": (("numpy.linalg", "svd"), ("scipy.linalg", "svd")),
    "eig": (("numpy.linalg", "eig"), ("numpy.linalg", "eigvals"), ("scipy.linalg", "eig"), ("scipy.linalg", "eigvals")),
    "solve": (("numpy.linalg", "solve"), ("scipy.linalg", "solve")),
    "lstsq": (("numpy.linalg", "lstsq"), ("scipy.linalg", "lstsq")),
    "expm": (("scipy.linalg", "expm"),),
}


def _operand(x) -> tuple[tuple[int, ...], float]:
    """Shape of an operand and the real-flop factor of its dtype (4 for complex)."""
    a = np.asarray(x)
    return a.shape, (4.0 if np.iscomplexobj(a) else 1.0)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def svd_flops(shape, full_matrices=True, compute_uv=True) -> float:
    """Golub-Reinsch SVD counts (Golub & Van Loan, 3rd ed., table 5.4.1), m >= n after transposing."""
    if len(shape) != 2 or 0 in shape:
        return 0.0
    m, n = max(shape), min(shape)
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n**3 / 3.0
    if full_matrices:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    return 14.0 * m * n * n + 8.0 * n**3


def eig_flops(n: int, vectors: bool, generalized: bool) -> float:
    """Hessenberg-QR (10n^3, 25n^3 with vectors) and QZ (30n^3, 66n^3 with vectors) counts."""
    if generalized:
        return (66.0 if vectors else 30.0) * n**3
    return (25.0 if vectors else 10.0) * n**3


def solve_flops(n: int, nrhs: int) -> float:
    """LU factorisation plus forward and back substitution."""
    return 2.0 * n**3 / 3.0 + 2.0 * n * n * nrhs


def lstsq_flops(shape, nrhs: int) -> float:
    """SVD-based least squares (LAPACK gelsd): a singular-value SVD plus applying it."""
    if len(shape) != 2 or 0 in shape:
        return 0.0
    m, n = max(shape), min(shape)
    return svd_flops(shape, compute_uv=False) + 4.0 * m * n * nrhs


def expm_flops(n: int) -> float:
    """Degree-13 Pade approximant: six matrix products and one solve with n right-hand sides.

    The squarings depend on the operand's norm, not its shape, and are left
    out, so the count is a floor.
    """
    return 6.0 * 2.0 * n**3 + solve_flops(n, n)


def linalg_flops(group: str, func_name: str, args, kwargs) -> float:
    """Flops of one entry-point call, computed from its operand shapes."""
    shape, factor = _operand(_arg(args, kwargs, 0, "a", _arg(args, kwargs, 0, "A")))
    if group == "svd":
        flops = svd_flops(
            shape,
            bool(_arg(args, kwargs, 1, "full_matrices", True)),
            bool(_arg(args, kwargs, 2, "compute_uv", True)),
        )
    elif group == "eig":
        b = _arg(args, kwargs, 1, "b")
        if b is not None:
            factor = max(factor, _operand(b)[1])
        vectors = func_name == "eig"
        flops = eig_flops(shape[0] if shape else 0, vectors, b is not None)
    elif group in ("solve", "lstsq"):
        b_shape, b_factor = _operand(_arg(args, kwargs, 1, "b"))
        factor = max(factor, b_factor)
        nrhs = b_shape[1] if len(b_shape) == 2 else 1
        flops = solve_flops(shape[0], nrhs) if group == "solve" else lstsq_flops(shape, nrhs)
    else:
        flops = expm_flops(shape[0] if shape else 0)
    return factor * flops


class Recorder:
    """In-memory span store and linalg counters for one process.

    ``spans`` selects whether wrappers record spans; with it off only the
    linalg counters run (the untraced pass uses that for its exact counts).
    """

    def __init__(self, spans: bool = True):
        self.spans = spans
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._in_linalg = False
        self.linalg_calls: dict[str, int] = {group: 0 for group in LINALG_ENTRY_POINTS}
        self.linalg_flops = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # -- wrappers ---------------------------------------------------------
    def _wrap_function(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if name == "synthesis.synthesize":
                rec._note_gain(sid, result)
            return result

        return traced

    def _note_gain(self, sid: int, fb) -> None:
        """Attach cond(V) and the gain norm of a returned design to its span."""
        self.active = False
        try:
            self.attrs[sid] = {"cond_v": float(np.linalg.cond(fb.V)), "gain_norm": float(np.linalg.norm(fb.F))}
        finally:
            self.active = True

    def _wrap_linalg(self, group: str, fn):
        rec = self
        func_name = fn.__name__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not rec.active or rec._in_linalg:
                return fn(*args, **kwargs)
            rec.linalg_calls[group] += 1
            rec.linalg_flops += linalg_flops(group, func_name, args, kwargs)
            sid = rec.open(f"linalg.{group}") if rec.spans else -1
            rec._in_linalg = True
            try:
                return fn(*args, **kwargs)
            finally:
                rec._in_linalg = False
                if sid >= 0:
                    rec.close(sid)

        return counted

    def _rebind(self, replacements: dict, module_filter) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not module_filter(modname):
                continue
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper[1])

    def install(self) -> None:
        """Wrap the linalg entry points, and with spans on, every public monotrack function."""
        linalg = {}
        for group, entries in LINALG_ENTRY_POINTS.items():
            for modname, attr in entries:
                fn = getattr(importlib.import_module(modname), attr)
                linalg[id(fn)] = (fn, self._wrap_linalg(group, fn))
        self._rebind(linalg, lambda name: name != __name__ and name != "__main__")
        if not self.spans:
            return
        functions = {}
        for layer in LAYERS:
            module = importlib.import_module(f"monotrack.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                functions[id(value)] = (value, self._wrap_function(f"{layer}.{attr}", value))
        self._rebind(functions, lambda name: name == "monotrack" or name.startswith("monotrack."))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- export -----------------------------------------------------------
    COLUMNS = ("name_id", "start", "end", "parent", "op_id")

    def columns(self) -> dict:
        """Spans as JSON-ready columns; ``name_id`` indexes ``names``, ``parent`` is a span index or -1.

        ``attrs`` maps a ``synthesis.synthesize`` span index to its gain's figures.
        """
        return {
            "names": list(self.names),
            **{c: getattr(self, c).tolist() for c in self.COLUMNS},
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }

    def absorb(self, columns: dict, op: int, start: float, end: float) -> None:
        """Append another process's spans under a new ``bench.op`` root span."""
        self.op = op
        root = self.open("bench.op")
        self.close(root)
        self.start[root], self.end[root] = start, end
        offset = len(self)
        ids = [self._name_id(name) for name in columns["names"]]
        self.name_id.extend(ids[i] for i in columns["name_id"])
        self.start.extend(columns["start"])
        self.end.extend(columns["end"])
        self.parent.extend(root if p < 0 else p + offset for p in columns["parent"])
        self.op_id.extend(op for _ in columns["op_id"])
        for sid, values in columns["attrs"].items():
            self.attrs[int(sid) + offset] = values


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarise(rec: Recorder, ops: int) -> dict:
    """Per-layer figures per operation from the recorded spans.

    A layer's self time is the time in its spans minus the time their direct
    child spans cover. ``bench`` spans (the operation itself) belong to no
    layer.
    """
    names = [rec.names[i] for i in rec.name_id]
    start, end, parent = rec.start, rec.end, rec.parent
    child = [0.0] * len(names)
    for sid, p in enumerate(parent):
        if p >= 0:
            child[p] += end[sid] - start[sid]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS + ("linalg",)}
    vstar_g_under: dict[int, int] = {}
    library_s = 0.0
    for sid, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        layer = layer_of(name)
        duration = end[sid] - start[sid]
        if layer in self_s:
            self_s[layer] += duration - child[sid]
        parent_layer = layer_of(names[parent[sid]]) if parent[sid] >= 0 else "bench"
        if layer not in ("bench", "cli") and parent_layer in ("bench", "cli"):
            library_s += duration
        if name == "subspaces.vstar_g":
            synth = _ancestor(names, parent, sid, "synthesis.synthesize")
            if synth >= 0:
                vstar_g_under[synth] = vstar_g_under.get(synth, 0) + 1
    # A replayed design calls vstar_g no time; each further call is a redraw.
    retries = sum(max(0, n - 1) for n in vstar_g_under.values())
    gains = list(rec.attrs.values())
    per_op = 1.0 / max(ops, 1)

    def count(name):
        return calls.get(name, 0) * per_op

    metrics = {
        "sysmodel.invariant_zeros.calls": count("sysmodel.invariant_zeros"),
        "sysmodel.normal_rank.calls": count("sysmodel.normal_rank"),
        "sysmodel.audit_assumptions.calls": count("sysmodel.audit_assumptions"),
        "solvability.rank_tests": count("numkernel.subspace_sum_dim"),
        "subspaces.vstar_g.calls": count("subspaces.vstar_g"),
        "subspaces.rstar_at.calls": count("subspaces.rstar_at"),
        "subspaces.rstar.calls": count("subspaces.rstar"),
        "synthesis.retries": retries * per_op,
        "synthesis.cond_v": _median([g["cond_v"] for g in gains]),
        "synthesis.gain_norm": _median([g["gain_norm"] for g in gains]),
        "simverify.simulate.calls": count("simverify.simulate"),
        "numkernel.rank_of.calls": count("numkernel.rank_of"),
        "numkernel.nullspace.calls": count("numkernel.nullspace"),
        "numkernel.min_norm_solve.calls": count("numkernel.min_norm_solve"),
        "linalg.svd.calls": count("linalg.svd"),
        "linalg.eig.calls": count("linalg.eig"),
        "linalg.solve.calls": count("linalg.solve"),
        "linalg.lstsq.calls": count("linalg.lstsq"),
        "linalg.expm.calls": count("linalg.expm"),
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_ms"] = seconds * 1e3 * per_op
    metrics["library_ms"] = library_s * 1e3 * per_op
    return metrics


def _ancestor(names, parents, sid, name) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    p = parents[sid]
    while p >= 0 and names[p] != name:
        p = parents[p]
    return p


def _median(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def dump(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
