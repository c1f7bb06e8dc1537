"""In-memory spans around calls into lfmspec's layers.

A traced round swaps selected lfmspec functions for wrappers that record a
span (name, start, end, parent) and swaps the originals back afterwards, so
untraced rounds run the program untouched.  Spans are kept in memory and
written out once, when the run ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "{tag}" is filled from Tracer.tag at call
# time, so one function can be split by the case that called it.
TARGETS = (
    ("lfmspec.maps", "validate_self_map", "maps.validate_self_map"),
    ("lfmspec.classify", "classify", "classify.classify"),
    ("lfmspec.spectra", "spectrum", "spectra.spectrum"),
    ("lfmspec.spectra", "SpectralSet.discretize", "spectra.discretize"),
    ("lfmspec.spectra", "SpectralSet.to_json_dict", "spectra.to_json_dict"),
    ("lfmspec.spectra", "essential_radius_estimate", "spectra.essential_radius_estimate"),
    ("lfmspec.series", "compression_spectrum", "series.compression_spectrum"),
    ("lfmspec.series", "build_compression", "series.build_compression.{tag}"),
    ("lfmspec.series", "eigenfunction_residual", "series.eigenfunction_residual.{tag}"),
)
PACKAGE_MODULES = ("lfmspec", "lfmspec.maps", "lfmspec.classify", "lfmspec.spectra",
                   "lfmspec.series", "lfmspec.cli")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.tag = "none"
        self._saved: list[tuple[object, str, object]] = []

    # -- spans

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name.format(tag=tracer.tag))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return wrapper

    # -- patching

    def install(self) -> None:
        """Swap every reference to each target, in every lfmspec module, for
        a span-recording wrapper."""
        if self._saved:
            return
        mods = [sys.modules[m] for m in PACKAGE_MODULES if m in sys.modules]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- summaries

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path: str) -> None:
        rows = [
            {"id": i, "name": n, "start": s - self.t0, "end": e - self.t0, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
