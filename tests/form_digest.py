"""One digest of the descent, rebuild and verdict of every word of 1 to N letters.

Usage, from the root of a checkout:

    python3 tests/form_digest.py N

Each word's record is what `pipeline._form(w, trace=True)` returns: the stop
word, every field of every `Round`, the class representative, the rebuilt
word and the final check's verdict. The script prints the sha256 of all the
records in (length, lex) order, so two checkouts that print the same digest
for N agree round by round on every word of up to N letters. It imports the
package from this checkout's src/. pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aofcanon import pipeline  # noqa: E402


def form_digest(n: int) -> str:
    h = hashlib.sha256()
    for k in range(1, n + 1):
        for letters in itertools.product("ab", repeat=k):
            series, rep, v, ok = pipeline._form("".join(letters), trace=True)
            rounds = [[getattr(r, f) for f in pipeline.Round.__slots__] for r in series.rounds]
            h.update(repr((series.anc, rounds, rep, v, ok)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(form_digest(int(sys.argv[1])))
