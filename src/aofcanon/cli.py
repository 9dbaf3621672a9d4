"""Command-line front end.

`eqaof` and `explain` both run the library's one path from word to verdict
(`pipeline._form`), so `explain` shows the rounds and stages of the very run
`eqaof` answers from; the other commands each make one library call. Where
the words are omitted, each stdin line is split on whitespace into exactly
as many words as the command takes (two for equiv, else one) and gives one
output line (a multi-line report joins its lines with "; ").

Exit codes: 0 success, 1 negative result (false / FALSE / NOT_EQUIVALENT),
2 UNKNOWN from equiv, 64 misuse of the command line, 65 bad input: an
invalid or empty word, or a batch line with the wrong number of words, 70
an internal fault: a broken invariant of the descent, reported on one
stderr line. In batch mode the per-line result codes collapse to 0; a line
that would exit 65 or 70 still aborts the stream with that code, after the
output of the lines before it.
"""
from __future__ import annotations

import sys
from typing import Callable

import click

from . import classes as classes_mod
from . import oracle as oracle_mod
from . import __version__, pipeline, words
from .errors import WordError

click.UsageError.exit_code = 64


class _Main(click.Group):
    """The command group; bad input from any command exits 65, an internal fault 70."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except WordError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(65)
        except (click.exceptions.Exit, click.Abort):  # click's own RuntimeErrors
            raise
        except RuntimeError as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(70)


_PER_LINE = ("one word", "two words")


def _each(args: tuple[str | None, ...], fn: Callable[..., tuple[list[str], int]]) -> None:
    """Print fn(*words) = (lines, exit code) for the arguments or each stdin line."""
    if None not in args:
        lines, code = fn(*map(words.check_word, args))
        click.echo("\n".join(lines))
        sys.exit(code)
    if any(a is not None for a in args):
        raise click.UsageError("give all the words or none")
    for line in sys.stdin:
        ws = line.split()
        if len(ws) != len(args):
            raise WordError(f"expected {_PER_LINE[len(args) - 1]} per line, got {line.rstrip()!r}")
        lines, _ = fn(*map(words.check_word, ws))
        click.echo("; ".join(lines))


def _dash(x: str | None) -> str:
    return x if x else "-"


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main() -> None:
    """Canonical almost overlap-free forms under the YY = YYY equivalence."""


_PREDICATES: dict[str, Callable[[str], bool]] = {
    "overlap-free": words.is_overlap_free,
    "almost-overlap-free": words.is_almost_overlap_free,
}


@main.command()
@click.argument("predicate", type=click.Choice(list(_PREDICATES)))
@click.argument("word", required=False)
def check(predicate: str, word: str | None) -> None:
    """Test WORD against PREDICATE; prints true or false (exit 0 / 1)."""
    fn = _PREDICATES[predicate]
    _each((word,), lambda w: (["true"], 0) if fn(w) else (["false"], 1))


@main.command()
@click.argument("word", required=False)
def explain(word: str | None) -> None:
    """Run the whole eqaof path: one line per descent round, then each stage's result."""
    tail = "{0.side}:{0.letter_class}:{0.family}:{0.start}..{0.end}"

    def report(w: str) -> tuple[list[str], int]:
        s, rep, v, ok = pipeline._form(w, trace=True)
        lines = [
            f"k={k} U={r.word} L={_dash(r.L)} R={_dash(r.R)} h={_dash(r.h)} t={_dash(r.t)}"
            f" tails={_dash(','.join(tail.format(t) for t in r.tails))}"
            for k, r in enumerate(s.rounds, start=1)
        ]
        lines.append(
            f"anc={s.anc} rep={_dash(rep)} rebuilt={_dash(v)} eqaof={v if ok else 'FALSE'}"
        )
        return lines, 0 if ok else 1

    _each((word,), report)


@main.command("eqaof")
@click.argument("word", required=False)
def eqaof_cmd(word: str | None) -> None:
    """Canonical almost overlap-free form of WORD, or FALSE (exit 1)."""

    def report(w: str) -> tuple[list[str], int]:
        v = pipeline.eqaof(w)
        return (["FALSE"], 1) if v is None else ([v], 0)

    _each((word,), report)


_VERDICT_CODE = {
    pipeline.Verdict.EQUIVALENT: 0,
    pipeline.Verdict.NOT_EQUIVALENT: 1,
    pipeline.Verdict.UNKNOWN: 2,
}


@main.command("equiv")
@click.argument("u", required=False)
@click.argument("v", required=False)
def equiv_cmd(u: str | None, v: str | None) -> None:
    """Compare U and V; EQUIVALENT / NOT_EQUIVALENT / UNKNOWN (exit 0/1/2).

    Without arguments, reads two whitespace-separated words per input line.
    """

    def report(a: str, b: str) -> tuple[list[str], int]:
        verdict = pipeline.decide_equiv(a, b)
        return [verdict.value], _VERDICT_CODE[verdict]

    _each((u, v), report)


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
def closure_cmd(word: str | None, max_len: int, max_steps: int) -> None:
    """Bounded rewriting closure of WORD under YY <-> YYY."""

    def report(w: str) -> tuple[list[str], int]:
        try:
            res = oracle_mod.closure(w, max_len, max_steps)
        except ValueError as exc:  # the bound is below the word's length
            raise click.BadParameter(str(exc), param_hint="'--max-len'") from exc
        header = (
            f"seed={res.seed} bound={res.length_bound}"
            f" exhausted={'true' if res.exhausted else 'false'} count={len(res.members)}"
        )
        return [header, *res.members], 0

    _each((word,), report)


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
