"""Each package module's import-time allocation peak, in KiB.

Usage, from the root of a checkout:

    python3 tests/compile_peak.py

It imports the package from this checkout's src/ under `tracemalloc`,
compiling every module from source as a checkout without bytecode caches
does, and prints, in import order, the peak reached while each module is
compiled: the memory the modules imported before it still hold plus that
compile's transient memory. The benchmark's `peak_alloc_mb` on a workload
whose calls allocate little is the largest of these. pytest does not
collect it.
"""
from __future__ import annotations

import importlib.machinery
import sys
import tempfile
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def compile_peaks() -> dict[str, float]:
    peaks: dict[str, float] = {}
    loader = importlib.machinery.SourceFileLoader
    compile_source = loader.source_to_code

    def measured(self, data, path, *args, **kwargs):
        tracemalloc.reset_peak()
        code = compile_source(self, data, path, *args, **kwargs)
        if Path(path).parent.parent == SRC:  # the standard library compiles here too
            peaks[Path(path).stem] = tracemalloc.get_traced_memory()[1] / 1024
        return code

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as empty:
        # no cached bytecode is found there, and none is written
        sys.pycache_prefix, sys.dont_write_bytecode = empty, True
        loader.source_to_code = measured
        tracemalloc.start()
        try:
            import aofcanon  # noqa: F401
        finally:
            tracemalloc.stop()
            loader.source_to_code = compile_source
    return peaks


if __name__ == "__main__":
    for name, kib in compile_peaks().items():
        print(f"{name:<12} {kib:7.0f}")
