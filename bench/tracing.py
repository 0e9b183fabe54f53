"""Spans recorded from the benchmark's side, around symvar's public functions.

``Tracer.install`` replaces each wrapped function, in every symvar module
that holds a reference to it, by a wrapper that records a span; calls made
inside the package between modules are therefore traced too.
``Tracer.uninstall`` puts the originals back, so untraced passes run the
unmodified program. Spans stay in memory and are written once, at the end.

Not wrapped: ``certificate.psi`` and ``certificate.sawtooth``, which run once
per grid point (their span would mostly measure the wrapper), and the
``measures``, ``partitions`` and ``errors`` modules, which are off every hot
path.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, field


def _arg(args, kwargs, i, name, default=None):
    """Argument ``name`` of a call, passed at position ``i`` or by keyword."""
    return args[i] if len(args) > i else kwargs.get(name, default)


# (module, function, attributes recorded from (args, kwargs, result))
WRAPPED = [
    ("cumulants", "moments_to_cumulants", None),
    ("cumulants", "cumulants_to_moments", None),
    ("cumulants", "convolve_moments", None),
    ("cumulants", "odd_moment_residual", None),
    ("optimizer", "nc_min_variance", None),
    ("optimizer", "classical_min_variance", None),
    # the scipy function as symvar.optimizer imported it: counts evaluations
    ("optimizer", "minimize", lambda a, k, r: {"nfev": int(r.nfev)}),
    ("certificate", "verify_identity", lambda a, k, r: {"points": len(_arg(a, k, 1, "grid"))}),
    ("certificate", "verify_inequality_exact", None),
    ("certificate", "verify_inequality_grid", None),
    ("certificate", "certificate_lower_bound", None),
    ("matrixlab", "sample_haar_unitary", lambda a, k, r: {"n": int(_arg(a, k, 0, "n"))}),
    ("matrixlab", "simulate_free_sum", lambda a, k, r: {"n": _arg(a, k, 0, "model").n}),
    ("matrixlab", "test_proof_identity", lambda a, k, r: {
        "n": _arg(a, k, 0, "model").n, "rotated": bool(_arg(a, k, 1, "grid_free", True))}),
    ("matrixlab", "proof_identity_report", None),
    ("matrixlab", "empirical_vs_predicted", None),
    ("cli", "main", None),
]


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a job's root span
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans (name, start, end, parent, run id) of one benchmark run."""

    def __init__(self):
        self.spans = []
        self.run = ""
        self._stack = []
        self._saved = []

    def open(self, name, attrs=None):
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._parent(), self.run, attrs or {}))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _parent(self):
        return self._stack[-1] if self._stack else -1

    def _wrap(self, name, fn, attrs_fn):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every function in WRAPPED wherever a symvar module refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "symvar" or n.startswith("symvar.")]
        for mod_name, fn_name, attrs_fn in WRAPPED:
            original = getattr(sys.modules.get(f"symvar.{mod_name}"), fn_name, None)
            if original is None:
                continue  # the program no longer has this function
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, attrs_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def self_times(self):
        """Per span: its duration minus the time its child spans cover.

        Children run one after another in the single caller, so the time
        they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")
