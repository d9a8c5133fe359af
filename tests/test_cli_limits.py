"""Inputs the CLI refuses before doing any work: oversized `embed check`
ranges, letter indices that would need a huge inferred alphabet, and
`cover --oracle-bound` values the oracle cannot use or whose box holds
too many reachable markings."""

import pytest

from wqokit import cli, coverability
from wqokit.cli import run
from wqokit.words import Alphabet

NET = """\
places 2
transition t1 consume (1,0) produce (0,1)
initial (2,0)
target (0,2)
"""


@pytest.mark.parametrize("bound,message", [
    ("(1,1)", "initial marking (2,0) exceeds oracle bound (1,1)"),
    ("(1,1,1)", "dimension mismatch"),
    ("(x)", "bad vector component 'x' in '(x)'"),
])
def test_bad_oracle_bound_fails_before_printing(tmp_path, capsys, bound, message):
    net = tmp_path / "demo.net"
    net.write_text(NET)
    assert run(["cover", str(net), "--oracle-bound", bound]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_oracle_over_its_marking_cap_fails_before_printing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(coverability, "_MAX_MARKINGS", 2)
    net = tmp_path / "demo.net"
    net.write_text(NET)
    assert run(["cover", str(net), "--oracle-bound", "(9,9)"]) == 2
    assert capsys.readouterr() == (
        "", "error: the forward oracle visited 3 markings, over the limit of 2\n"
    )


@pytest.mark.parametrize("argv,message", [
    (["dickson-to-word", "1000", "--dim", "3"],
     "the range has at least 1006015020015006001 pairs, over the limit of 1000000"),
    (["dickson-to-word", "0", "--dim", "1000000000"],
     "--dim 1000000000 is over the limit of 1000000"),
    (["dickson-to-word", "99999999999999", "--dim", "99999999"],
     "--dim 99999999 is over the limit of 1000000"),
    (["dickson-to-word", "31", "--dim", "2"],
     "the range has at least 1048576 pairs, over the limit of 1000000"),
    (["word-to-labeled", "1000"],
     "the range has at least 1046529 pairs, over the limit of 1000000"),
    (["word-to-labeled", "1000", "--alphabet", "a"],
     "the range has at least 1002001 pairs, over the limit of 1000000"),
])
def test_embed_check_refuses_oversized_ranges(monkeypatch, capsys, argv, message):
    def no_product(*args, **kwargs):
        pytest.fail("the range was built")

    monkeypatch.setattr(cli, "product", no_product)
    assert run(["embed", "check", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv,line", [
    (["dickson-to-word", "3", "--dim", "2"], "dickson-to-word[2]: order reflected on 256 pairs"),
    (["word-to-labeled", "4", "--alphabet", "ab"], "word-to-labeled: order reflected on 961 pairs"),
    (["dickson-to-word", "0", "--dim", "40"], "dickson-to-word[40]: order reflected on 1 pairs"),
])
def test_embed_check_within_the_cap(capsys, argv, line):
    assert run(["embed", "check", *argv]) == 0
    assert capsys.readouterr().out == f"true\n  {line}\n"


@pytest.mark.parametrize("argv,message", [
    (["order", "leq-e", "[0]", "[99999999]"], "letter index 99999999 is over the limit of 99999"),
    (["order", "leq-E", "[100000,0]", "[]"], "letter index 100000 is over the limit of 99999"),
    (["upset", "member", "[0]", "{big}"], "letter index 123456789 is over the limit of 99999"),
])
def test_large_letter_index_fails_before_the_alphabet_is_built(
    tmp_path, monkeypatch, capsys, argv, message
):
    def no_alphabet(size):
        pytest.fail("the alphabet was built")

    monkeypatch.setattr(Alphabet, "indexed", no_alphabet)
    big = tmp_path / "big.up"
    big.write_text("upset { [0,123456789] }")
    assert run([a.format(big=big) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_largest_letter_index_within_the_limit(capsys):
    assert run(["order", "leq-e", "[99999]", "[0,99999]"]) == 0
    assert capsys.readouterr() == ("true\n", "")
