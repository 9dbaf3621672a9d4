"""Command-line surface: outputs, exit codes, batch mode."""
from __future__ import annotations

import pytest
from click.testing import CliRunner

import aofcanon
from aofcanon.classes import in_special_class, match_S
from aofcanon.cli import main
from aofcanon.frames import frame
from aofcanon.pipeline import ancestor
from aofcanon.reductions import (
    detect_non_reducible_tails,
    detect_non_uniform_tails,
    is_ab_whole,
    r1,
    tail_reduce,
)

import _oracles as slow


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args, **kw):
    return runner.invoke(main, list(args), **kw)


def test_check_true_false_exit_codes(runner):
    res = run(runner, "check", "overlap-free", "abaabbab")
    assert res.exit_code == 0 and res.output == "true\n"
    res = run(runner, "check", "almost-overlap-free", "abababa")
    assert res.exit_code == 1 and res.output == "false\n"
    res = run(runner, "check", "overlap-free", "aaa")
    assert res.exit_code == 1 and res.output == "false\n"
    res = run(runner, "check", "almost-overlap-free", "aaa")
    assert res.exit_code == 0 and res.output == "true\n"


def test_check_batch_exit_zero(runner):
    res = run(runner, "check", "overlap-free", input="abaabbab\nababa\n")
    assert res.exit_code == 0
    assert res.output == "true\nfalse\n"


def test_tails_report(runner):
    # the tails= field of each round line, "-" without any
    res = run(runner, "explain", "aabaabbabb")
    assert [line.split(" tails=")[1] for line in res.output.splitlines()[:-1]] == [
        "left:A:nonuniform:1..8,right:B:nonuniform:3..10",
        "-",
        "-",
    ]
    res = run(runner, "explain", "abab")
    assert res.output.startswith("k=1 U=abab L=- R=- h=- t=- tails=-\n")


def test_tails_report_shifts_non_reducible_tail(runner):
    # a round that stops on a non-reducible tail lists it too, its span
    # shifted past the letter the left trim dropped, so that it indexes U
    res = run(runner, "explain", "aabaabbabaababaaba")
    assert res.exit_code == 1
    assert res.output == (
        "k=1 U=aabaabbabaababaaba L=a R=- h=- t=-"
        " tails=left:A:nonuniform:1..8,right:A:nonreducible:10..18\n"
        "anc=aabaabbabaababaaba rep=- rebuilt=- eqaof=FALSE\n"
    )


def test_tails_batch_joins_lines(runner):
    res = run(runner, "explain", input="aabaabbabb\nabab\n")
    assert res.exit_code == 0
    assert [
        [part.split(" tails=")[1] for part in line.split("; ")[:-1]]
        for line in res.output.splitlines()
    ] == [["left:A:nonuniform:1..8,right:B:nonuniform:3..10", "-", "-"], ["-", "-"]]


def test_explain_rounds_follow_descent(runner):
    # one round line per record of the library's descent, in its order
    s = ancestor("aabaabbabb", trace=True)
    assert (s.anc, s.ell) == ("b", 3)
    res = run(runner, "explain", "aabaabbabb")
    *rounds, summary = res.output.splitlines()
    assert [line.split(" tails=")[0] for line in rounds] == [
        f"k={k} U={r.word} L={r.L or '-'} R={r.R or '-'} h={r.h or '-'} t={r.t or '-'}"
        for k, r in enumerate(s.rounds, start=1)
    ]
    assert summary.startswith(f"anc={s.anc} ")


def test_explain_trace(runner):
    res = run(runner, "explain", "aabaabbabb")
    assert res.output == (
        "k=1 U=aabaabbabb L=a R=b h=a t=b tails=left:A:nonuniform:1..8,right:B:nonuniform:3..10\n"
        "k=2 U=bab L=- R=- h=- t=b tails=-\n"
        "k=3 U=b L=- R=- h=- t=- tails=-\n"
        "anc=b rep=b rebuilt=aabaabbabb eqaof=aabaabbabb\n"
    )


def test_explain_trace_batch(runner):
    res = run(runner, "explain", input="aabaabbabb\nbab\n")
    assert res.exit_code == 0
    assert res.output == (
        "k=1 U=aabaabbabb L=a R=b h=a t=b tails=left:A:nonuniform:1..8,right:B:nonuniform:3..10;"
        " k=2 U=bab L=- R=- h=- t=b tails=-; k=3 U=b L=- R=- h=- t=- tails=-;"
        " anc=b rep=b rebuilt=aabaabbabb eqaof=aabaabbabb\n"
        "k=1 U=bab L=- R=- h=- t=b tails=-; k=2 U=b L=- R=- h=- t=- tails=-;"
        " anc=b rep=b rebuilt=bab eqaof=bab\n"
    )


def test_explain_batch_stop_words(runner):
    # one output line per input word, ending with that word's stop word
    res = run(runner, "explain", input="aabaabbabb\nbab\n")
    summaries = [line.split("; ")[-1] for line in res.output.splitlines()]
    assert [s.split()[0] for s in summaries] == ["anc=b", "anc=b"]


def test_explain_rebuild_stages(runner):
    res = run(runner, "explain", "aabbaabbaabb")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "anc=aa rep=aa rebuilt=aabbaabb eqaof=aabbaabb"
    # the stop word has no class representative, so nothing is rebuilt
    res = run(runner, "explain", "aabaabab")
    assert res.exit_code == 1
    assert res.output.splitlines()[-1] == "anc=aabaabab rep=- rebuilt=- eqaof=FALSE"
    # the rebuild runs even when the result fails the almost overlap-free check
    res = run(runner, "explain", "bababb")
    assert res.exit_code == 1
    assert res.output.splitlines()[-1] == "anc=aa rep=aa rebuilt=bababb eqaof=FALSE"


def test_explain_batch_verdicts(runner):
    # a FALSE line does not change the batch exit code
    res = run(runner, "explain", input="aabbaabbaabb\naabaabab\n")
    assert res.exit_code == 0
    assert [line.split()[-1] for line in res.output.splitlines()] == [
        "eqaof=aabbaabb",
        "eqaof=FALSE",
    ]


def test_explain_agrees_with_eqaof_on_all_short_words(runner):
    # one batch run over every word of 1-10 letters: the summary's eqaof=
    # field is the eqaof command's answer, and rep=- marks exactly the stop
    # words outside the exceptional classes
    ws = list(slow.words_up_to(10))
    stdin = "".join(w + "\n" for w in ws)
    explained = run(runner, "explain", input=stdin)
    canonical = run(runner, "eqaof", input=stdin)
    assert explained.exit_code == canonical.exit_code == 0
    summaries = [line.split("; ")[-1].split() for line in explained.output.splitlines()]
    assert len(summaries) == len(ws)
    assert [s[3] for s in summaries] == ["eqaof=" + v for v in canonical.output.splitlines()]
    for w, s in zip(ws, summaries):
        assert (s[1] == "rep=-") == (match_S(ancestor(w).anc) is None), w


def test_explain_tails_field_on_all_short_words(runner):
    # round 1 lists exactly the non-uniform tails of r1(w), plus the
    # non-reducible tail, shifted past the left trim, when it stops there;
    # every listed span, cut out of its round word, is a tail pattern of
    # its family, class and side
    ws = list(slow.words_up_to(12))
    res = run(runner, "explain", input="".join(w + "\n" for w in ws))
    assert res.exit_code == 0
    for w, line in zip(ws, res.output.splitlines(), strict=True):
        rounds = [dict(f.split("=", 1) for f in part.split()) for part in line.split("; ")[:-1]]
        for r in rounds:
            for tail in [] if r["tails"] == "-" else r["tails"].split(","):
                side, cls, family, span = tail.split(":")
                start, end = map(int, span.split(".."))
                x = r["U"][start - 1 : end]
                assert (family, side, cls, 1, len(x)) in slow.tails_slow(x), (w, tail)
        u = r1(w)
        want = []
        if len(u) > 2 and not in_special_class(u):
            want = detect_non_uniform_tails(u)
            _, lo, hi = tail_reduce(u)
            up = u[lo:hi]
            if frame(up) is None and is_ab_whole(up) and (stuck := detect_non_reducible_tails(up)):
                assert len(rounds) == 1, w
                want += [t._replace(start=t.start + lo, end=t.end + lo) for t in stuck]
        got = rounds[0]["tails"]
        assert got == (",".join(
            f"{t.side}:{t.letter_class}:{t.family}:{t.start}..{t.end}" for t in want
        ) or "-"), w


def test_eqaof_exit_codes(runner):
    res = run(runner, "eqaof", "bababb")
    assert res.exit_code == 1 and res.output == "FALSE\n"
    res = run(runner, "eqaof", "aabbaabbaabb")
    assert res.exit_code == 0 and res.output == "aabbaabb\n"


@pytest.mark.parametrize("cmd", ["eqaof", "explain"])
def test_internal_fault_is_not_a_negative_answer(runner, monkeypatch, cmd):
    # a broken descent invariant raises RuntimeError; the CLI reports it on
    # one stderr line with exit 70, which no answer uses, in single-word and
    # batch mode alike, and batch output before the fault stays
    monkeypatch.setattr(aofcanon.pipeline, "complete_reduction", lambda w: w)
    fault = "internal error: complete_reduction left a non-uniform word from 'abaabaaba'\n"
    res = run(runner, cmd, "abaabaaba")
    assert (res.exit_code, res.stdout, res.stderr) == (70, "", fault)
    first = run(runner, cmd, "abab").stdout.rstrip("\n").replace("\n", "; ") + "\n"
    res = run(runner, cmd, input="abab\nabaabaaba\nabab\n")
    assert (res.exit_code, res.stdout, res.stderr) == (70, first, fault)
    # click's own exits are RuntimeErrors too, and keep their codes
    assert run(runner, cmd, "--help").exit_code == 0


def test_eqaof_batch(runner):
    res = run(runner, "eqaof", input="bababb\nabab\n")
    assert res.exit_code == 0
    assert res.output == "FALSE\nabab\n"


def test_equiv_exit_codes(runner):
    res = run(runner, "equiv", "abab", "ababab")
    assert res.exit_code == 0 and res.output == "EQUIVALENT\n"
    res = run(runner, "equiv", "a", "b")
    assert res.exit_code == 1 and res.output == "NOT_EQUIVALENT\n"
    res = run(runner, "equiv", "ababaa", "abababaa")
    assert res.exit_code == 2 and res.output == "UNKNOWN\n"


def test_equiv_batch_pairs(runner):
    res = run(runner, "equiv", input="abab ababab\na b\n")
    assert res.exit_code == 0
    assert res.output == "EQUIVALENT\nNOT_EQUIVALENT\n"


def test_equiv_single_word_is_usage_error(runner):
    res = run(runner, "equiv", "abab")
    assert res.exit_code == 64


@pytest.mark.parametrize("bad", ["", "abab"], ids=["blank", "one-word"])
def test_equiv_batch_bad_line_is_data_error(runner, bad):
    # a blank or one-word line is bad input, not misuse of the command line
    res = run(runner, "equiv", input=f"abab ababab\n{bad}\na b\n")
    assert res.exit_code == 65
    assert res.stdout == "EQUIVALENT\n"
    assert res.stderr == f"error: expected two words per line, got {bad!r}\n"


@pytest.mark.parametrize(
    "cmd",
    [["check", "overlap-free"], ["explain"], ["eqaof"], ["closure", "--max-len", "12"], ["equiv"]],
    ids=lambda cmd: cmd[0],
)
def test_batch_reader_is_one_rule(runner, cmd):
    # every batch line is split on whitespace into exactly the command's
    # number of words and gives the single-word run's output on one line;
    # a line with another count stops the stream after the lines before it
    n = 2 if cmd == ["equiv"] else 1
    given = [ws[:n] for ws in (["aab", "abab"], ["bababb", "b"], ["abba", "aabaabab"])]
    # the middle line pads its words with spaces and tabs
    lines = [" ".join(given[0]), "  " + "\t ".join(given[1]) + "\t", " ".join(given[2])]
    want = [run(runner, *cmd, *ws).output.rstrip("\n").replace("\n", "; ") for ws in given]
    res = run(runner, *cmd, input="".join(line + "\n" for line in lines))
    assert res.exit_code == 0
    assert res.output.splitlines() == want
    bad = " ".join(["ab"] * (n + 1))
    res = run(runner, *cmd, input=f"{lines[0]}\n{bad}\n{lines[2]}\n")
    assert res.exit_code == 65
    assert res.stdout == want[0] + "\n"
    assert res.stderr.startswith("error: expected ")


def test_enum_aof(runner):
    res = run(runner, "enum-aof", "3")
    lines = res.output.splitlines()
    assert len(lines) == 14
    assert lines[:2] == ["a", "b"]
    assert "aaa" in lines and "bbb" in lines


def test_closure_output(runner):
    res = run(runner, "closure", "ab", "--max-len", "6")
    assert res.output == "seed=ab bound=6 exhausted=true count=1\nab\n"


def test_closure_batch_joins_lines(runner):
    res = run(runner, "closure", "--max-len", "5", input="ab\naaa\n")
    assert res.exit_code == 0
    assert res.output == (
        "seed=ab bound=5 exhausted=true count=1; ab\n"
        "seed=aaa bound=5 exhausted=false count=4; aa; aaa; aaaa; aaaaa\n"
    )


def test_closure_bound_below_length_is_usage_error(runner):
    res = run(runner, "closure", "abab", "--max-len", "2")
    assert res.exit_code == 64
    assert res.output.splitlines()[-1] == (
        "Error: Invalid value for '--max-len': length bound 2 below |seed| = 4"
    )
    # batch mode reports the words before the bad one, then stops
    res = run(runner, "closure", "--max-len", "2", input="ab\nabab\nb\n")
    assert res.exit_code == 64
    assert res.output.startswith("seed=ab bound=2 exhausted=true count=1; ab\n")
    assert res.output.splitlines()[-1].startswith("Error: Invalid value for '--max-len'")


def test_classes_dump(runner):
    res = run(runner, "classes", "dump")
    lines = res.output.splitlines()
    assert len(lines) == 30
    assert lines[0] == "aabaa aabaa"
    assert lines[8] == "aabaabbaabaa (aab)^2(aab)*(b(aab)*aab)*(baa)*(baa)^2"
    assert lines[-1] == "ba ba"


def test_empty_word_is_rejected(runner):
    res = run(runner, "eqaof", "")
    assert res.exit_code == 65
    res = run(runner, "check", "almost-overlap-free", input="ab\n\n")
    assert res.exit_code == 65


def test_invalid_letters_rejected(runner):
    res = run(runner, "eqaof", "abc")
    assert res.exit_code == 65


def test_usage_errors(runner):
    assert run(runner, "nosuchcmd").exit_code == 64
    assert run(runner, "closure", "ab").exit_code == 64  # missing --max-len
    assert run(runner, "enum-aof", "0").exit_code == 64


def test_cli_keeps_the_papers_objects(runner):
    # the descent's internals are shown by explain, not by commands of their own
    assert run(runner, "reduce", "r1", "ab").exit_code == 64
    for predicate in ("cube-free", "uniform", "letter-alternating", "ab-whole", "phi-image"):
        assert run(runner, "check", predicate, "ab").exit_code == 64, predicate
    assert sorted(main.commands) == ["check", "classes", "closure", "enum-aof", "eqaof", "equiv", "explain"]


def test_version_flag(runner):
    # The version comes from the package itself, so the flag works whether
    # or not the distribution is installed.
    res = run(runner, "--version")
    assert res.exit_code == 0
    assert res.output.rstrip("\n").endswith(f"version {aofcanon.__version__}")
