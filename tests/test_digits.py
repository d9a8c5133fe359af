"""Numbers in every input format are ASCII digits only.

str.isdigit also accepts other scripts' digits ("٣" is Arabic-Indic
three) and superscripts ("²"), which int() then either silently converts
or rejects with an unrelated message.
"""

import pytest

from wqokit import Alphabet, NetParseError, format_vec, parse_net, parse_vec, parse_word
from wqokit.cli import run

FOREIGN = ["٣", "²"]


@pytest.mark.parametrize("digit", FOREIGN)
def test_parse_vec_rejects_non_ascii_digits(digit):
    with pytest.raises(ValueError, match="bad vector component"):
        parse_vec(f"({digit},1)")


@pytest.mark.parametrize("digit", FOREIGN)
def test_parse_word_rejects_non_ascii_digits(digit):
    with pytest.raises(ValueError, match="bad letter index"):
        parse_word(f"[0,{digit}]", Alphabet.indexed(4))


@pytest.mark.parametrize("digit", FOREIGN)
def test_parse_net_rejects_non_ascii_place_count(digit):
    with pytest.raises(NetParseError, match="expected: places <count>"):
        parse_net(f"places {digit}\ninitial (0)\ntarget (0)\n")


@pytest.mark.parametrize("digit", FOREIGN)
def test_cli_rejects_non_ascii_digits(digit, tmp_path, capsys):
    net = tmp_path / "net.txt"
    net.write_text(f"places {digit}\ninitial (0)\ntarget (0)\n")
    assert run(["cover", str(net)]) == 2
    assert run(["order", "dickson", f"({digit},1)", "(1,1)"]) == 2
    assert run(["order", "leq-e", f"[{digit}]", "[0,1]"]) == 2
    assert run(["embed", "check", "dickson-to-word", digit, "--dim", "2"]) == 2
    assert "range must be a number" in capsys.readouterr().err


def test_format_vec_prints_only_what_parse_vec_reads():
    most = 10**4300 - 1
    assert parse_vec(format_vec((most, 0))) == (most, 0)
    with pytest.raises(ValueError, match="^cannot print a vector component over the limit"):
        format_vec((0, most + 1))
