"""Outside-in tracing of the vacqrng layers for the traced benchmark run.

Spans are recorded around calls into each layer's public functions by
replacing those functions, under every name where a `vacqrng` module holds
them, with timing wrappers.  The program itself is not changed: with the
wrappers removed the same commands run the original functions.  Spans
(name, start, end, parent, count, RSS high-water mark) are kept in compact
in-memory arrays and written out when the run ends.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name, count argument (position, keyword), rss).
# A span named with a trailing ":" takes "on"/"off" from the `frozen`
# keyword of the loop call.  `rss` marks the coarse spans whose end reads
# the process high-water mark; per-block spans skip it to stay cheap.
TARGETS = [
    ("controller", "run_closed_loop", "controller.loop_:", (3, "n_blocks"), True),
    ("signal_chain", "detector_block", "signal_chain.detector_block", None, False),
    ("signal_chain", "adc_quantize", "signal_chain.adc", None, False),
    ("signal_chain", "adc_saturation_count", "signal_chain.adc", None, False),
    ("signal_chain", "advance_drift", "signal_chain.drift", None, False),
    ("pipeline", "select_centered", "pipeline.select", None, True),
    ("entropy", "build_report", "entropy.report", None, True),
    ("toeplitz", "extract_stream", "toeplitz.extract_stream", None, True),
    ("toeplitz", "samples_to_bits", "toeplitz.to_bits", None, True),
    ("toeplitz", "extract_blocks", "toeplitz.hash", (0, "blocks"), True),
    ("toeplitz", "generate_test_seed", "toeplitz.seed", None, True),
    ("toeplitz", "pack_bits", "toeplitz.pack", None, True),
    ("stattests", "run_suite", "stattests.suite", (2, "n_sequences"), True),
]
SUITE_TABLE = ("stattests", "ALL_TESTS")
COMMAND = "pipeline.command"


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count(value) -> float:
    """Work count of a call argument: its length, or its value if a number."""
    try:
        return float(len(value)) if hasattr(value, "__len__") else float(value)
    except (TypeError, ValueError):
        return 0.0


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.rss = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, object, object]] = []
        self.absent: list[str] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str, count: float) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.count.append(count)
        self.rss.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, rss: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if rss:
            self.rss[idx] = _rss_mb()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; used for the top-level command."""
        idx = self._open(name, 0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, True)

    def _wrapper(self, fn, name: str, count_arg, rss: bool):
        split = name.endswith(":")
        base = name[:-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = base + ("off" if kwargs.get("frozen") else "on") if split else name
            count = 0.0
            if count_arg is not None:
                pos, key = count_arg
                count = _count(kwargs[key] if key in kwargs else (
                    args[pos] if pos < len(args) else None))
            idx = self._open(span, count)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, rss)
        return traced

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "vacqrng" and not mod_name.startswith("vacqrng."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every target under every name a vacqrng module holds it."""
        self.absent = []
        for mod_name, attr, name, count_arg, rss in TARGETS:
            module = sys.modules.get(f"vacqrng.{mod_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._replace_everywhere(
                original, self._wrapper(original, name, count_arg, rss))
        module = sys.modules.get(f"vacqrng.{SUITE_TABLE[0]}")
        table = getattr(module, SUITE_TABLE[1], None)
        if not isinstance(table, dict):
            self.absent.append(".".join(SUITE_TABLE))
            return
        for test_name, original in list(table.items()):
            wrapper = self._wrapper(original, f"stattests.{test_name}",
                                    None, False)
            self._replace_everywhere(original, wrapper)
            self._restore.append((table, test_name, original))
            table[test_name] = wrapper

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore = []

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Spans [lo, hi) as numpy arrays, parents re-based to the slice."""
        hi = len(self) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32)[lo:hi],
            "parent": np.where(parent < 0, -1, parent),
            "start": np.frombuffer(self.start)[lo:hi],
            "end": np.frombuffer(self.end)[lo:hi],
            "count": np.frombuffer(self.count)[lo:hi],
            "rss": np.frombuffer(self.rss)[lo:hi],
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer, lo: int, hi: int) -> dict[str, dict[str, float]]:
    """Per span name: total duration, self time, count and max RSS."""
    a = tracer.arrays(lo, hi)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    own = dur - child
    out: dict[str, dict[str, float]] = {}
    for nid in np.unique(a["name"]):
        sel = a["name"] == nid
        out[tracer.names[nid]] = {
            "total": float(dur[sel].sum()), "self": float(own[sel].sum()),
            "count": float(a["count"][sel].sum()), "calls": float(sel.sum()),
            "rss": float(a["rss"][sel].max())}
    return out
