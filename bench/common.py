"""Pieces shared by the workloads: the per-operation clock and record."""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# The order of operations inside a round is one fixed permutation, the same
# for every seed: kinds of operation are spread over the round, so a slow
# spell of the machine does not land on one kind only.
ORDER_SEED = 0


class Clock:
    """Sums the wall time of the program calls inside one operation, so that
    the benchmark's own checks stay outside the timed region."""

    def __init__(self):
        self.total = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self._t = 0.0

    def __call__(self, fn, *args, **kwargs):
        with self:
            return fn(*args, **kwargs)

    def __enter__(self):
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t
        return False

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value


@dataclass
class Op:
    """One operation: its timed seconds, the problems its checks found, and
    the named program fault it is expected to hit (None when it should pass)."""

    label: str
    seconds: float
    problems: list
    fault: str | None = None
    counts: dict = field(default_factory=dict)


def run_op(label: str, fn, tracer=None, fault: str | None = None, tag: str = "none") -> Op:
    """Run fn(clock) -> problems as one operation, inside an "op" span when
    tracing.  A crash of the program counts as a failed operation and the
    run goes on."""
    clock = Clock()
    sid = None
    if tracer is not None:
        tracer.tag = tag
        sid = tracer.open("op." + label)
    try:
        problems = list(fn(clock))
    except Exception as exc:  # noqa: BLE001 - one op's crash must not end the run
        problems = ["%s: %s" % (type(exc).__name__, exc)]
    finally:
        if sid is not None:
            tracer.close(sid)
    return Op(label, clock.total, problems, fault, dict(clock.counts))


def interleave(items: list) -> list:
    """items in the fixed shuffled order used by every round."""
    order = np.random.default_rng(ORDER_SEED).permutation(len(items))
    return [items[i] for i in order]
