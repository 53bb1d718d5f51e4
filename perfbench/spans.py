"""Nested spans with self time around bandflow's public functions.

Each function is wrapped where the calling module binds it (the ``cli``,
``spectrum`` and ``semiquantum`` namespaces), so the package itself is not
edited.  A span's self time is its duration minus the time its child spans
cover.  A name that no longer exists is skipped and reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

# span name -> (attribute, modules whose namespace binds it)
SPANS = {
    "linalg.eigh": ("eigh", ("spectrum", "semiquantum")),
    "linalg.hermitian_matrix": ("hermitian_matrix", ("spectrum",)),
    "linalg.spin_operators": ("spin_operators", ("semiquantum",)),
    "semiquantum.h_semiquantum": ("h_semiquantum", ("semiquantum",)),
    "semiquantum.chern_numbers": ("chern_numbers", ("cli",)),
    "semiquantum.sphere_mesh": ("sphere_mesh", ("cli",)),
    "spectrum.jz_blocks": ("jz_blocks", ("spectrum",)),
    "spectrum.joint_spectrum": ("joint_spectrum", ("cli", "spectrum")),
    "spectrum.assign_bands": ("assign_bands", ("cli", "spectrum")),
    "spectrum.sweep_spectral_flow": ("sweep_spectral_flow", ("cli",)),
    "classical.em_image": ("em_image", ("cli",)),
    "classical.dh_volume": ("dh_volume", ("cli",)),
    "monodromy.build_lattice": ("build_lattice", ("cli",)),
    "monodromy.transport_cell": ("transport_cell", ("cli",)),
    "serialize.write_csv": ("write_csv", ("cli",)),
    "serialize.write_json": ("write_json", ("cli",)),
}


def _count_refusal(args, result) -> int:
    # A refusal is reported (valid=False) or raised (MeshTooCoarseError).
    return int(isinstance(result, RuntimeError)
               or getattr(result, "valid", True) is False)


def _count_levels(args, result) -> int:
    return len(getattr(result, "levels", ()))


def _count_bytes(args, result) -> int:
    return 0 if isinstance(result, BaseException) else os.path.getsize(args[0])


# counter -> (spans whose wrapper takes it, increment from (args, result)).
# A raised exception is passed as the result.
COUNTERS = {
    "semiquantum.refusals": (("semiquantum.chern_numbers",), _count_refusal),
    "spectrum.levels": (("spectrum.joint_spectrum",), _count_levels),
    "serialize.bytes": (("serialize.write_csv", "serialize.write_json"),
                        _count_bytes),
}


class Tracer:
    """Accumulates self time, calls and counters over all traced rounds."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [name, start, child seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn):
        counters = [(counter, count) for counter, (spans, count)
                    in COUNTERS.items() if name in spans]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                self.exit()
                for counter, count in counters:
                    self.counts[counter] += count(args, result)
        return traced

    def install(self) -> set[str]:
        """Wrap every span that still exists; return the absent names."""
        absent = set()
        for name, (attr, modules) in SPANS.items():
            found = False
            for module_name in modules:
                try:
                    module = importlib.import_module(f"bandflow.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(name, fn))
                    found = True
            if not found:
                absent.add(name)
        return absent
