"""Set-up time: package import plus the workload's first call, repeated in one interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR CALL_FILE REPEATS

CALL_FILE holds a function name on its first line and one argument per
following line, written "s:<word>" or "i:<integer>". Before each repeat the
probe forgets every module imported since the interpreter started, so each
import of aofcanon from SRC_DIR also pays for the standard-library modules
it brings in, as in a fresh interpreter. Each repeat is scaled to the
reference speed by the median of the calibration units run just before
and after it.
Prints one line per repeat: scaled and unscaled seconds.
"""
import sys
import time

STARTUP_MODULES = set(sys.modules)

import statistics  # noqa: E402 - imported after the snapshot, so forgotten too

import calibration  # noqa: E402

UNITS = 3  # calibration units run between repeats


def forget_imports() -> None:
    for name in set(sys.modules) - STARTUP_MODULES:
        del sys.modules[name]


def main() -> None:
    src, call_file, repeats = sys.argv[1], sys.argv[2], int(sys.argv[3])
    with open(call_file) as f:
        fn, *lines = f.read().splitlines()
    args = [int(a[2:]) if a.startswith("i:") else a[2:] for a in lines]
    sys.path.insert(0, src)
    forget_imports()
    before = [calibration.unit() for _ in range(UNITS)]
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        import aofcanon

        getattr(aofcanon, fn)(*args)
        t = time.perf_counter_ns() - t0
        del aofcanon
        forget_imports()
        after = [calibration.unit() for _ in range(UNITS)]
        scale = calibration.REF_NS / statistics.median(before + after)
        print(t * scale / 1e9, t / 1e9)
        before = after


if __name__ == "__main__":
    main()
