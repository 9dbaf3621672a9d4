"""Command-line front end.

`eqaof` and `explain` both run the library's one path from word to verdict
(`pipeline._form`), so `explain` shows the rounds and stages of the very run
`eqaof` answers from. The other commands each make one library call on the
word they are given. Where a WORD argument is omitted, words are read from
standard input, one per line, and each input line produces exactly one
output line (multi-line reports collapse onto one line, parts joined by "; ").

Exit codes: 0 success, 1 negative result (false / FALSE / NOT_EQUIVALENT),
2 UNKNOWN from equiv, 64 misuse of the command line, 65 bad input: an
invalid or empty word, a word that is not cube-collapsed given to check
ab-whole, or an equiv batch line that is not exactly two words. In batch
mode the per-line result codes collapse to 0; a line that would exit 65
still aborts the stream with 65, after the output of the lines before it.
"""
from __future__ import annotations

import functools
import sys
from typing import Callable

import click

from . import classes as classes_mod
from . import oracle as oracle_mod
from . import __version__, pipeline, reductions, words
from .errors import EmptyInput, WordError

click.UsageError.exit_code = 64

EX_DATA = 65


def _data_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except WordError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EX_DATA)

    return wrapper


def _checked(w: str) -> str:
    if w == "":
        raise EmptyInput("empty word")
    return words.check_word(w)


def _each_word(word: str | None, fn: Callable[[str], tuple[list[str], bool]]) -> None:
    """Print fn(w) = (lines, positive) for WORD or each stdin line, as the module notes say."""
    if word is not None:
        lines, ok = fn(_checked(word))
        click.echo("\n".join(lines))
        sys.exit(0 if ok else 1)
    for line in sys.stdin:
        lines, _ = fn(_checked(line.rstrip("\r\n")))
        click.echo("; ".join(lines))


def _dash(x: str | None) -> str:
    return x if x else "-"


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Canonical almost overlap-free forms under the YY = YYY equivalence."""


_PREDICATES: dict[str, Callable[[str], bool]] = {
    "overlap-free": words.is_overlap_free,
    "almost-overlap-free": words.is_almost_overlap_free,
    "cube-free": words.is_cube_free,
    "uniform": words.is_uniform,
    "letter-alternating": words.is_letter_alternating,
    "ab-whole": reductions.is_ab_whole,
    "phi-image": words.is_phi_image,
}


@main.command()
@click.argument("predicate", type=click.Choice(list(_PREDICATES)))
@click.argument("word", required=False)
@_data_errors
def check(predicate: str, word: str | None) -> None:
    """Test WORD against PREDICATE; prints true or false (exit 0 / 1)."""
    fn = _PREDICATES[predicate]
    _each_word(word, lambda w: (["true"], True) if fn(w) else (["false"], False))


_REDUCERS: dict[str, Callable[[str], str]] = {
    "r1": reductions.r1,
    "r": reductions.complete_reduction,
}


@main.command()
@click.argument("mode", type=click.Choice(list(_REDUCERS)))
@click.argument("word", required=False)
@_data_errors
def reduce(mode: str, word: str | None) -> None:
    """Rewrite WORD: r1 collapses powers, r reduces fully."""
    fn = _REDUCERS[mode]
    _each_word(word, lambda w: ([fn(w)], True))


@main.command()
@click.argument("word", required=False)
@_data_errors
def explain(word: str | None) -> None:
    """Run the whole eqaof path: one line per descent round, then each stage's result."""
    tail = "{0.side}:{0.letter_class}:{0.family}:{0.start}..{0.end}"

    def report(w: str) -> tuple[list[str], bool]:
        s, rep, v, ok = pipeline._form(w, trace=True)
        lines = [
            f"k={k} U={r.word} L={_dash(r.L)} R={_dash(r.R)} h={_dash(r.h)} t={_dash(r.t)}"
            f" tails={_dash(','.join(tail.format(t) for t in r.tails))}"
            for k, r in enumerate(s.rounds, start=1)
        ]
        lines.append(
            f"anc={s.anc} rep={_dash(rep)} rebuilt={_dash(v)} eqaof={v if ok else 'FALSE'}"
        )
        return lines, ok

    _each_word(word, report)


@main.command("eqaof")
@click.argument("word", required=False)
@_data_errors
def eqaof_cmd(word: str | None) -> None:
    """Canonical almost overlap-free form of WORD, or FALSE (exit 1)."""

    def report(w: str) -> tuple[list[str], bool]:
        v = pipeline.eqaof(w)
        return ["FALSE" if v is None else v], v is not None

    _each_word(word, report)


_VERDICT_CODE = {
    pipeline.Verdict.EQUIVALENT: 0,
    pipeline.Verdict.NOT_EQUIVALENT: 1,
    pipeline.Verdict.UNKNOWN: 2,
}


@main.command("equiv")
@click.argument("u", required=False)
@click.argument("v", required=False)
@_data_errors
def equiv_cmd(u: str | None, v: str | None) -> None:
    """Compare U and V; EQUIVALENT / NOT_EQUIVALENT / UNKNOWN (exit 0/1/2).

    Without arguments, reads two whitespace-separated words per input line.
    """
    if (u is None) != (v is None):
        raise click.UsageError("equiv needs both words or neither")
    if u is not None and v is not None:
        verdict = pipeline.decide_equiv(_checked(u), _checked(v))
        click.echo(verdict.value)
        sys.exit(_VERDICT_CODE[verdict])
    for line in sys.stdin:
        parts = line.split()
        if len(parts) != 2:
            raise WordError(f"expected two words per line, got {line.rstrip()!r}")
        verdict = pipeline.decide_equiv(_checked(parts[0]), _checked(parts[1]))
        click.echo(verdict.value)


@main.command("enum-aof")
@click.argument("n", type=click.IntRange(min=1))
def enum_aof(n: int) -> None:
    """List every almost overlap-free word of length at most N."""
    for w in oracle_mod.enumerate_aof(n):
        click.echo(w)


@main.command("closure")
@click.argument("word", required=False)
@click.option("--max-len", type=click.IntRange(min=1), required=True, help="Length bound.")
@click.option("--max-steps", type=click.IntRange(min=1), default=1_000_000, show_default=True)
@_data_errors
def closure_cmd(word: str | None, max_len: int, max_steps: int) -> None:
    """Bounded rewriting closure of WORD under YY <-> YYY."""

    def report(w: str) -> tuple[list[str], bool]:
        try:
            res = oracle_mod.closure(w, max_len, max_steps)
        except ValueError as exc:  # the bound is below the word's length
            raise click.BadParameter(str(exc), param_hint="'--max-len'") from exc
        header = (
            f"seed={res.seed} bound={res.length_bound}"
            f" exhausted={'true' if res.exhausted else 'false'} count={len(res.members)}"
        )
        return [header, *res.members], True

    _each_word(word, report)


@main.group()
def classes() -> None:
    """Exceptional-class table."""


@classes.command("dump")
def classes_dump() -> None:
    """Print each class representative with its star-expression pattern."""
    for cp in classes_mod.pattern_table():
        click.echo(f"{cp.representative} {cp.pattern}")


if __name__ == "__main__":
    main()
