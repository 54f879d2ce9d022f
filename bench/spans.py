"""Outside-in span recorder for the traced benchmark run.

The recorder wraps every function named in the ``__all__`` of each
``tosca`` module and rebinds the wrapper wherever a ``tosca`` module, or
the package namespace, imported that function. Nothing under ``src/``
changes. Spans live in memory until ``dump`` writes them at the end of a
run. Self time is a span's duration minus the time its direct child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# Tolerances for the fb_spectrum gate (svds runs with tol=1e-10).
RESIDUAL_TOL = 1e-6
ORTHO_TOL = 1e-8
# Span name of the checks and counters that run after a wrapped call.
CHECK = "bench.check"


class Recorder:
    """Spans (name, start, end, parent index, op id) plus per-call facts."""

    def __init__(self):
        self.spans: list[list] = []
        self.facts: list[tuple[str, int, float]] = []
        self.errors: list[str] = []
        self.check_s = 0.0
        self.op_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every public tosca function and rebind it where it was imported."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "tosca" or name.startswith("tosca."))
        }
        wrappers = {}
        for name, mod in modules.items():
            if name == "tosca":
                continue
            short = name.split(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == name:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                # The hook gets its own span, so its time is nobody's self time.
                start = time.perf_counter()
                after(self, signature.bind(*args, **kwargs).arguments, result)
                end = time.perf_counter()
                self.spans.append([CHECK, start, end, parent, self.op_id])
                self.check_s += end - start
            return result

        return wrapper

    def fact(self, name: str, value: float) -> None:
        self.facts.append((name, self.op_id, float(value)))

    # -- output -------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans, "facts": self.facts,
            "errors": self.errors, "check_s": self.check_s,
        }))

    def merge(self, path: Path, op_id: int) -> None:
        """Append spans and facts that a child process dumped, under ``op_id``."""
        data = json.loads(path.read_text())
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id])
        self.facts.extend((name, op_id, value) for name, _, value in data["facts"])
        self.errors.extend(data["errors"])
        self.check_s += data["check_s"]


def self_times(spans: list[list]) -> dict[tuple[int, str], float]:
    """Summed self seconds per (op id, span name)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[tuple[int, str], float] = defaultdict(float)
    for i, (name, start, end, _, op) in enumerate(spans):
        out[(op, name)] += (end - start) - child[i]
    return out


# -- hooks that run after a wrapped call, outside its span ----------------

def _check_fb_spectrum(rec: Recorder, arguments, result) -> None:
    """Residual and D_mu-orthonormality gate on the returned spectrum."""
    s, p = arguments["s"], arguments["mu"].p
    nu = s.s.T @ p
    m = sp.diags(np.sqrt(p)) @ s.s @ sp.diags(1.0 / np.sqrt(nu))
    u = result.phi * np.sqrt(p)[:, None]
    v = result.psi * np.sqrt(nu)[:, None]
    kappa = result.kappa
    residual = max(
        float(np.linalg.norm(m @ v - u * kappa, axis=0).max()),
        float(np.linalg.norm(m.T @ u - v * kappa, axis=0).max()),
    )
    gram = result.phi.T @ (result.phi * p[:, None])
    ortho = float(np.abs(gram - np.eye(len(kappa))).max())
    rec.fact("spectral.residual", residual)
    rec.fact("spectral.ortho", ortho)
    if not residual <= RESIDUAL_TOL:
        rec.errors.append(f"fb_spectrum residual {residual:.3e} > {RESIDUAL_TOL:g}")
    if not ortho <= ORTHO_TOL:
        rec.errors.append(f"phi D_mu-orthonormality error {ortho:.3e} > {ORTHO_TOL:g}")


def _record_edges(rec: Recorder, arguments, result) -> None:
    rec.fact("graph.edges", arguments["g"].num_edges)


def _record_inertia(rec: Recorder, arguments, result) -> None:
    rec.fact("clustering.kmeans_inertia", result.inertia)


def _record_steps(rec: Recorder, arguments, result) -> None:
    rec.fact("datadriven.steps", result.m)


_AFTER = {
    "spectral.fb_spectrum": _check_fb_spectrum,
    "graph.transition_matrix": _record_edges,
    "clustering.kmeans": _record_inertia,
    "datadriven.sample_pairs": _record_steps,
    "datadriven.sample_trajectory": _record_steps,
}
