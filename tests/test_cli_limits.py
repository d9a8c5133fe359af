"""Inputs the CLI refuses before doing any work: oversized `embed check`
ranges, letter indices that would need a huge inferred alphabet, and
`cover --oracle-bound` values the oracle cannot use or whose box holds
too many reachable markings, `upset intersect` inputs that need too many
joins, vector blocks whose generator count squared times their
dimension is too large, and `seq good-pair` searches that need too many
comparisons or mix dimensions. Nets of any width are answered."""

import pytest

from wqokit import cli, coverability, upset
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


def wide_net(n: int) -> str:
    """n places; one transition moves a token from the first to the last."""
    zeros = ",".join(["0"] * (n - 2))
    return (
        f"places {n}\n"
        f"transition t consume (1,{zeros},0) produce (0,{zeros},1)\n"
        f"initial (0,{zeros},0)\n"
        f"target (0,{zeros},2)\n"
    )


@pytest.mark.parametrize("n", [500, 1200])
def test_wide_net_is_answered(tmp_path, capsys, n):
    # the saturation has no place limit
    net = tmp_path / "wide.net"
    net.write_text(wide_net(n))
    assert run(["cover", str(net)]) == 1
    zeros = ",".join(["0"] * (n - 2))
    basis = "".join(f"  ({a},{zeros},{2 - a})\n" for a in range(3))
    assert capsys.readouterr() == (
        f"coverable: false\niterations: 2\nupset basis {{\n{basis}}}\n", ""
    )


def antichain(tmp_path, name: str, n: int) -> str:
    """A block of n 2-dimensional vectors, none below another."""
    path = tmp_path / name
    path.write_text("upset {\n" + "".join(f"  ({i},{n - i})\n" for i in range(n)) + "}\n")
    return str(path)


def test_intersect_over_the_join_limit_fails_before_any_join(tmp_path, monkeypatch, capsys):
    def no_join(*args):
        pytest.fail("a join was built")

    monkeypatch.setattr(upset, "join", no_join)
    x, y = antichain(tmp_path, "x.up", 401), antichain(tmp_path, "y.up", 400)
    assert run(["upset", "intersect", x, y]) == 2
    assert capsys.readouterr() == ("", (
        "error: intersecting 401 and 400 generators makes 160400 joins, "
        "over the limit of 160000\n"
    ))


def test_intersect_at_the_join_limit_is_answered(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_JOINS", 6)
    x, y = antichain(tmp_path, "x.up", 3), antichain(tmp_path, "y.up", 2)
    assert run(["upset", "intersect", x, y]) == 0
    assert capsys.readouterr() == ("upset {\n  (0,3)\n  (1,2)\n  (2,1)\n}\n", "")
    assert run(["upset", "intersect", x, x]) == 2
    assert capsys.readouterr() == (
        "", "error: intersecting 3 and 3 generators makes 9 joins, over the limit of 6\n"
    )


def test_good_pair_search_over_the_comparison_limit_fails(tmp_path, monkeypatch, capsys):
    # a bad sequence of 4 vectors takes 6 comparisons
    monkeypatch.setattr(cli, "_MAX_COMPARISONS", 6)
    bad = tmp_path / "bad.seq"
    bad.write_text("(3,0)\n(2,1)\n(1,2)\n(0,3)\n")
    assert run(["seq", "good-pair", str(bad)]) == 1
    assert capsys.readouterr() == ("bad\n", "")
    # the sixth comparison finds the pair (2, 3)
    good = tmp_path / "good.seq"
    good.write_text("(3,0)\n(2,1)\n(1,2)\n(1,3)\n")
    assert run(["seq", "good-pair", str(good)]) == 0
    assert capsys.readouterr() == ("good pair: 2 3\n  (1,2) <= (1,3)\n", "")
    monkeypatch.setattr(cli, "_MAX_COMPARISONS", 5)
    for path in (bad, good):
        assert run(["seq", "good-pair", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            "error: searching 4 elements for a good pair makes more than "
            "5 comparisons, the limit\n"
        ))
    # a pair found early is answered however long the sequence
    early = tmp_path / "early.seq"
    early.write_text("a\nab\n" + "b\n" * 100)
    assert run(["seq", "good-pair", str(early)]) == 0
    assert capsys.readouterr() == ("good pair: 0 1\n  a <= ab\n", "")


def test_good_pair_search_refuses_two_dimensions_before_an_answer(tmp_path, capsys):
    # the pair (0, 1) is good, but the third vector has another dimension
    seq = tmp_path / "mixed.seq"
    seq.write_text("(1,0)\n(1,0)\n(1,2,3)\n")
    assert run(["seq", "good-pair", str(seq)]) == 2
    assert capsys.readouterr() == ("", (
        "error: dimension mismatch: (1,0) is 2-dimensional, (1,2,3) is 3-dimensional\n"
    ))


def test_vector_blocks_over_the_work_limit_fail_before_parsing(
    tmp_path, monkeypatch, capsys
):
    # four 2-dimensional vectors make 4^2 * 2 = 32
    monkeypatch.setattr(cli, "_MAX_VECTOR_WORK", 32)
    two, three = antichain(tmp_path, "two.up", 2), antichain(tmp_path, "three.up", 3)
    four, five = antichain(tmp_path, "four.up", 4), antichain(tmp_path, "five.up", 5)
    assert run(["upset", "normalize", four]) == 0
    assert capsys.readouterr() == ("upset {\n  (0,4)\n  (1,3)\n  (2,2)\n  (3,1)\n}\n", "")
    assert run(["upset", "union", two, two]) == 0
    assert capsys.readouterr() == ("upset {\n  (0,2)\n  (1,1)\n}\n", "")
    assert run(["upset", "member", "(9,9)", four]) == 0
    assert capsys.readouterr() == ("true\n", "")
    # the dimension counts: two vectors of dimension 8 make 32, of 9 make 36
    wide = tmp_path / "wide.up"
    wide.write_text("upset { (1,0,0,0,0,0,0,0) (0,1,0,0,0,0,0,0) }")
    assert run(["upset", "normalize", str(wide)]) == 0
    assert capsys.readouterr()[0].count("\n  (") == 2
    wider = tmp_path / "wider.up"
    wider.write_text("upset { (1,0,0,0,0,0,0,0,0) (0,1,0,0,0,0,0,0,0) }")
    # word blocks have no such limit
    words = tmp_path / "words.up"
    words.write_text("upset { ab ba a b aa }")
    assert run(["upset", "normalize", str(words)]) == 0
    assert capsys.readouterr() == ("upset {\n  a\n  b\n}\n", "")

    def no_parse(*args):
        pytest.fail("an element was parsed")

    monkeypatch.setattr(cli, "_parse_elem", no_parse)
    for argv, n, d in (
        (["upset", "normalize", five], 5, 2),
        (["upset", "union", two, three], 5, 2),
        (["upset", "member", "(9,9)", five], 5, 2),
        (["upset", "intersect", three, three], 6, 2),
        (["upset", "normalize", str(wider)], 2, 9),
    ):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", (
            f"error: the input has {n} vector generators of dimension {d}: "
            f"{n}^2 * {d} = {n * n * d}, over the limit of 32\n"
        ))
