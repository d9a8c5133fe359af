import os
import subprocess
import sys
from itertools import islice, product
from pathlib import Path

import pytest

import wqokit
from wqokit import cli
from wqokit.cli import run

NET = """\
places 2
transition t1 consume (1,0) produce (0,1)
initial (2,0)
target (0,2)
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_order_leq_e_exit_codes(capsys):
    assert run(["order", "leq-e", "aabbca", "abababcac"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert run(["order", "leq-e", "abababcac", "aabbca"]) == 1
    assert capsys.readouterr().out == "false\n"


def test_order_leq_E(capsys):
    assert run(["order", "leq-E", "ab", "aabb"]) == 0
    assert run(["order", "leq-E", "a", "ab"]) == 1


def test_order_dickson(capsys):
    assert run(["order", "dickson", "(1,2)", "(2,2)"]) == 0
    assert run(["order", "dickson", "(2,2)", "(1,2)"]) == 1


def test_order_dickson_dimension_error_reports_operands(capsys):
    assert run(["order", "dickson", "(1,2)", "(1,2,3)"]) == 2
    err = capsys.readouterr().err
    assert "(1,2)" in err and "(1,2,3)" in err


def test_order_word_forms(capsys):
    assert run(["order", "leq-e", "[0,1]", "[0,0,1,1]"]) == 0
    assert run(["order", "leq-e", "ab", "[0,1]"]) == 2  # mixed forms
    assert run(["order", "leq-e", "ab", "[0,1]", "--alphabet", "ab"]) == 0
    assert run(["order", "leq-e", "xy", "xxyy", "--alphabet", "xy"]) == 0
    assert run(["order", "leq-e", "xz", "xxyy", "--alphabet", "xy"]) == 2


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["order", "nonsense", "a", "b"]) == 2
    assert run(["--help"]) == 0


def test_seq_good_pair(tmp_path, capsys):
    f = write(tmp_path, "seq.txt", "(1,0)\n(0,1)\n(1,1)\n")
    assert run(["seq", "good-pair", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "good pair: 0 2"
    assert "(1,0) <= (1,1)" in out

    bad = write(tmp_path, "bad.txt", "(1,0)\n(0,1)\n")
    assert run(["seq", "good-pair", bad]) == 1
    assert capsys.readouterr().out == "bad\n"

    ws = write(tmp_path, "words.txt", "ba\nab\naabb\n")
    assert run(["seq", "good-pair", ws]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "good pair: 1 2"


def test_seq_lines_end_only_at_line_ends(tmp_path, capsys):
    # U+2028 inside a comment does not end it, so "ab" after it is no element
    f = tmp_path / "sep.txt"
    f.write_bytes("ab\n# older: ba\u2028ab\nb\n".encode())
    assert run(["seq", "good-pair", str(f)]) == 1
    assert capsys.readouterr().out == "bad\n"


def test_upset_normalize(tmp_path, capsys):
    f = write(tmp_path, "x.up", "upset X { ab ba aba }")
    assert run(["upset", "normalize", f]) == 0
    assert capsys.readouterr().out == "upset {\n  ab\n  ba\n}\n"

    g = write(tmp_path, "f.up", "upset F { (2,2) (1,2) (2,1) }")
    assert run(["upset", "normalize", g]) == 0
    assert capsys.readouterr().out == "upset {\n  (1,2)\n  (2,1)\n}\n"


def test_upset_normalize_output_reparses_identically(tmp_path, capsys):
    f = write(tmp_path, "x.up", "upset X { bb ba aab bab }")
    assert run(["upset", "normalize", f]) == 0
    first = capsys.readouterr().out
    g = write(tmp_path, "y.up", first)
    assert run(["upset", "normalize", g]) == 0
    assert capsys.readouterr().out == first


def test_upset_member(tmp_path, capsys):
    f = write(tmp_path, "f.up", "upset F { (1,2) }")
    assert run(["upset", "member", "(3,2)", f]) == 0
    assert run(["upset", "member", "(0,2)", f]) == 1
    x = write(tmp_path, "x.up", "upset X { ab }")
    assert run(["upset", "member", "ba", x]) == 1
    assert run(["upset", "member", "cacb", x]) == 0


def test_upset_includes(tmp_path):
    big = write(tmp_path, "big.up", "upset { (0,1) }")
    small = write(tmp_path, "small.up", "upset { (1,2) }")
    assert run(["upset", "includes", big, small]) == 0
    assert run(["upset", "includes", small, big]) == 1


def test_upset_union_and_intersect(tmp_path, capsys):
    a = write(tmp_path, "a.up", "upset { (1,0) }")
    b = write(tmp_path, "b.up", "upset { (0,1) }")
    assert run(["upset", "union", a, b]) == 0
    assert capsys.readouterr().out == "upset {\n  (0,1)\n  (1,0)\n}\n"
    assert run(["upset", "intersect", a, b]) == 0
    assert capsys.readouterr().out == "upset {\n  (1,1)\n}\n"

    w = write(tmp_path, "w.up", "upset { ab }")
    assert run(["upset", "intersect", w, w]) == 2


def test_upset_quotient(tmp_path, capsys):
    x = write(tmp_path, "x.up", "upset X { ab ba }")
    assert run(["upset", "quotient", "a", x]) == 0
    assert capsys.readouterr().out == "upset {\n  b\n}\n"

    y = write(tmp_path, "y.up", "upset { a }")
    assert run(["upset", "quotient", "a", y]) == 0
    assert capsys.readouterr().out == "upset {\n  []\n}\n"

    # quotient by a letter outside the generators leaves the set alone
    assert run(["upset", "quotient", "c", x]) == 0
    assert capsys.readouterr().out == "upset {\n  ab\n  ba\n}\n"


def test_upset_som(tmp_path, capsys):
    x = write(tmp_path, "x.up", "upset X { ab ba }")
    assert run(["upset", "som", x]) == 0
    assert capsys.readouterr().out == "{a,b}\n"
    e = write(tmp_path, "e.up", "upset { [] }")
    assert run(["upset", "som", e]) == 0
    assert capsys.readouterr().out == "{}\n"


def test_upset_phi_slice(tmp_path, capsys):
    f = write(tmp_path, "f.up", "upset F { (1,2) (3,0) }")
    assert run(["upset", "phi-slice", f, "(1)"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert run(["upset", "phi-slice", f, "(0)"]) == 0
    assert capsys.readouterr().out == "inf\n"
    assert run(["upset", "phi-slice", f, "(3)"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_embed_check(capsys):
    assert run(["embed", "check", "dickson-to-word", "3", "--dim", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "true"
    assert run(["embed", "check", "word-to-labeled", "3"]) == 0
    assert run(["embed", "check", "no-such-map", "3"]) == 2


def test_cover(tmp_path, capsys):
    net = write(tmp_path, "demo.net", NET)
    assert run(["cover", net]) == 0
    out = capsys.readouterr().out
    assert out == (
        "coverable: true\n"
        "iterations: 2\n"
        "upset basis {\n  (0,2)\n  (1,1)\n  (2,0)\n}\n"
    )

    assert run(["cover", net, "--oracle-bound", "(4,4)"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "oracle: true"


def test_cover_uncoverable_and_errors(tmp_path, capsys):
    net = write(tmp_path, "n.net", "places 1\ninitial (0)\ntarget (2)\n")
    assert run(["cover", net]) == 1
    out = capsys.readouterr().out
    assert out.startswith("coverable: false\n")

    broken = write(tmp_path, "b.net", "places 1\nwhat (0)\ntarget (2)\n")
    assert run(["cover", broken]) == 2
    assert "line 2" in capsys.readouterr().err

    slow = write(
        tmp_path,
        "slow.net",
        "places 1\ntransition t consume (0) produce (1)\ninitial (0)\ntarget (9)\n",
    )
    assert run(["cover", slow, "--max-iterations", "2"]) == 2
    assert run(["cover", slow]) == 0


def test_cover_oracle_bound_note(tmp_path, capsys):
    # coverable, but the witness run leaves the bound: the oracle line
    # flags itself as inconclusive instead of contradicting the verdict
    net = write(
        tmp_path,
        "pump.net",
        "places 1\ntransition t consume (0) produce (2)\ninitial (0)\ntarget (3)\n",
    )
    assert run(["cover", net, "--oracle-bound", "(3)"]) == 0
    assert "inconclusive" in capsys.readouterr().out


def test_a_closed_stdout_ends_the_process_as_sigpipe_does(tmp_path):
    # 20,000 nine-letter words print about 240 KB, more than a pipe holds,
    # so the process is still writing when the reader stops after a line
    words = ("".join(t) for t in islice(product("abcd", repeat=9), 20_000))
    up = write(tmp_path, "words9.up", "upset {\n" + "".join(f"  {w}\n" for w in words) + "}\n")
    src = str(Path(wqokit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "wqokit.cli", "upset", "normalize", up]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"upset {\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    # 128 + SIGPIPE, what a shell reports for `cat` in the same place
    assert (proc.returncode, err) == (141, b"")
    # a reader that takes the whole answer gets all of it
    done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout.count(b"\n"), done.stderr) == (0, 20_002, b"")


# a coverable net, one whose target is out of reach, one without a target
# line, and no net at all, with the status and stderr of each call when
# stdout takes the answer
ANSWERS = {
    "true": (NET, 0, b""),
    "false": (NET.replace("target (0,2)", "target (0,3)"), 1, b""),
    "input error": (NET.replace("target (0,2)\n", ""), 2, b"error: missing target line\n"),
    "usage error": (None, 2, b"usage: wqokit cover [-h] [--max-iterations MAX_ITERATIONS]\n"
                    b"                    [--oracle-bound ORACLE_BOUND]\n"
                    b"                    netfile\n"
                    b"wqokit cover: error: the following arguments are required: netfile\n"),
}
ENOSPC = b"error: [Errno 28] No space left on device\n"


def _shell_call(tmp_path, argv, redirects, unbuffered):
    """(status, bytes written to "$0") of `python -m wqokit.cli argv` under
    the sh redirects, in which "$0" names a file."""
    src = str(Path(wqokit.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, COLUMNS="80", **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    out = tmp_path / "out"
    done = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirects}', str(out), sys.executable, "-m", "wqokit.cli", *argv],
        env=env, timeout=60,
    )
    return done.returncode, out.read_bytes() if out.exists() else b""


def _cover_argv(tmp_path, answer):
    text = ANSWERS[answer][0]
    return ["cover"] if text is None else ["cover", write(tmp_path, "q.net", text)]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", ["open", "closed", "full"])
@pytest.mark.parametrize("stdout", ["closed", "full"])
@pytest.mark.parametrize("answer", list(ANSWERS))
def test_exit_status_when_stdout_or_stderr_cannot_be_written(
    tmp_path, answer, stdout, stderr, unbuffered
):
    # a closed stdout loses the answer as a closed pipe does (141); a full one
    # fails the call (2). An input or usage error stays 2, and a stderr that
    # cannot take the report changes no status. The stream's buffering
    # changes nothing.
    _, code, report = ANSWERS[answer]
    redirects = {"closed": ">&-", "full": ">/dev/full"}[stdout] + " " + {
        "open": '2>"$0"', "closed": "2>&-", "full": "2>/dev/full"}[stderr]
    got = _shell_call(tmp_path, _cover_argv(tmp_path, answer), redirects, unbuffered)
    if code == 2:
        expected = (2, report)
    else:
        expected = (141, b"") if stdout == "closed" else (2, ENOSPC)
    if stderr != "open":
        expected = (expected[0], b"")
    assert got == expected


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", ["closed", "full"])
@pytest.mark.parametrize("answer", ["input error", "usage error"])
def test_an_error_writes_no_stdout_when_stderr_cannot_be_written(
    tmp_path, answer, stderr, unbuffered
):
    # argparse prints a usage error's usage line on stdout when stderr is closed
    redirects = '>"$0" ' + {"closed": "2>&-", "full": "2>/dev/full"}[stderr]
    assert _shell_call(tmp_path, _cover_argv(tmp_path, answer), redirects, unbuffered) == (2, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stdout", [">&-", ">/dev/full"])
def test_help_into_a_full_stdout_is_lost(tmp_path, stdout, unbuffered):
    # argparse writes the help to stderr when stdout is closed
    assert _shell_call(tmp_path, ["--help"], stdout + ' 2>"$0"', unbuffered) == (0, b"")


def test_cover_builds_only_its_own_parser(tmp_path, capsys):
    net = write(tmp_path, "demo.net", NET)
    cli._build_parser.cache_clear()
    assert run(["cover", net]) == 0
    assert run(["cover", net, "--max-iterations=4"]) == 0
    up = write(tmp_path, "x.up", "upset { ab }\n")
    assert run(["upset", "member", "aab", up]) == 0
    assert run(["order", "dickson", "(1,2)", "(2,2)"]) == 0
    assert cli._build_parser.cache_info().currsize == 0
    assert run(["cover", net, "--bogus"]) == 2
    assert cli._build_parser.cache_info().currsize == 1


# the file cases _read must read as open() does: the bytes of a file, a
# directory (None) or no file at all (absent)
READ_CASES = {
    "lf": b"places 1\ninitial (0)\ntarget (1)\n",
    "crlf": b"places 1\r\ninitial (0)\r\n",
    "cr": b"places 1\rinitial (0)\r",
    "mixed": b"a\r\nb\rc\nd\r\r\n\n\re",
    "empty": b"",
    "bom": b"\xef\xbb\xbfupset { ab }\n",
    "latin1": "caf\xe9 \xa0na\xefve\n".encode("latin-1"),
    "bad_byte": b"ab\n" * 7_000 + b"\xff\n",
    "dir": None,
}


def _read_cases(tmp_path) -> list[str]:
    paths = []
    for name, data in READ_CASES.items():
        p = tmp_path / name
        if data is None:
            p.mkdir()
        else:
            p.write_bytes(data)
        paths.append(str(p))
    return paths + [str(tmp_path / "missing")]


def _outcome(read, path):
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _open_read(path):
    with open(path) as f:
        return f.read()


def _differ(paths) -> list[str]:
    """The paths that _read reads otherwise than open(path).read()."""
    return [p for p in paths if _outcome(cli._read, p) != _outcome(_open_read, p)]


def test_read_is_open_text(tmp_path):
    assert _differ(_read_cases(tmp_path)) == []
    assert cli._read(str(tmp_path / "mixed")) == "a\nb\nc\nd\n\n\n\ne"


@pytest.mark.parametrize("env", [{"PYTHONUTF8": "0", "LC_ALL": "C"}, {"PYTHONUTF8": "1"}])
def test_read_is_open_text_under_other_locales(tmp_path, env):
    """The same table in a fresh interpreter, in the C locale (ASCII: LC_ALL
    keeps it from being coerced to UTF-8) and in UTF-8 mode."""
    src = str(Path(wqokit.__file__).parents[1])
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import test_cli; "
        "print(test_cli._differ(sys.argv[3:]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), src, *_read_cases(tmp_path)],
        env={**os.environ, **env}, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
