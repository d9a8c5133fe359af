"""Exact CLI outputs of every upset verb and every input error branch.

Each case gives an argument list, where `{name}` stands for the path of
the block BLOCKS[name], and the exact exit status, stdout and stderr.
Two kinds of failure are pinned loosely: a dimension mismatch only
has to name both operands (their order is not part of the contract),
and an argparse usage error only has to exit 2, since argparse words its
messages differently across Python versions. The one usage message
pinned whole is the last line of an unrecognized argument's.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqokit import coverability, transport, upset
from wqokit.cli import (
    _COMMANDS, CliError, _build_parser, _carrier, _parse, _parse_elem, run,
)
from wqokit.words import Alphabet, Word

# one digit past the longest decimal read (dickson._MAX_DIGITS), and the longest
NINES = "9" * 4301
MOST = "9" * 4300

BLOCKS = {
    "vec": "upset F { (2,2) (1,2) (2,1) }",
    "vec_b": "upset {\n  (1,0) (0,3)\n  (1,0)\n}",
    "vec3": "upset { (1,1,1) }",
    "let": "upset X { ab ba aba }",
    "let_c": "upset { bb ba aab bab c }",
    "idx": "upset { [0,1] [1,0] [2] }",
    "idx_b": "upset { [1] [0,0] }",
    "empty": "upset { }",
    "nil": "upset { [] }",
    "nil_ab": "upset { [] ab }",
    "mixed": "upset { (1,2) ab }",
    "forms": "upset { ab [0,1] }",
    "dims": "upset { (1,2) (1,2,3) }",
    "bad": "not a block",
    "bad_vec": "upset { (1,x) }",
    "bad_idx": "upset { [0,q] }",
    "commas": "upset { a,b }",
    "seq_empty": "# nothing here\n\n",
    "seq_mixed": "(1,0)\nab\n",
    "bad_net": "places 1\ninitial (x)\ntarget (0)\n",
    "seq_vec": "(1,0)\n(0,1)\n",
    "net": "places 1\ntransition t consume (1) produce (0)\ninitial (0)\ntarget (1)\n",
    "idx_sp": "upset { [0, 1] [ 2 ] }",
    "idx_adj": "upset { [0,1][1] }",
    "idx_open": "upset { [0,1 }",
    "idx_long": f"upset {{ [{NINES}] }}",
    "net_long": f"places {NINES}\ninitial (0)\ntarget (0)\n",
    "stray_close": "upset { a } b }",
    "stray_paren": "upset { (1,2) ) (2,1) }",
    "two_blocks": "upset { a } upset { b }",
    "open_paren": "upset { a(b }",
    "no_coords": "upset { () }",
    # the basis holds (2*MOST,0), one digit too long to print
    "net_wide": (
        f"places 2\ntransition t consume ({MOST},0) produce (0,2)\n"
        f"initial (0,0)\ntarget ({MOST},1)\n"
    ),
    "seq_good": "(0,1)\n(1,1)\n",
}


def up(*gens):
    return "upset {\n" + "".join(f"  {g}\n" for g in gens) + "}\n"


OK = [
    # normalize: vectors, letter form, index form, empty blocks
    (["upset", "normalize", "{vec}"], 0, up("(1,2)", "(2,1)")),
    (["upset", "normalize", "{vec_b}"], 0, up("(0,3)", "(1,0)")),
    (["upset", "normalize", "{let}"], 0, up("ab", "ba")),
    (["upset", "normalize", "{let_c}"], 0, up("c", "ba", "bb", "aab")),
    (["upset", "normalize", "{let}", "--alphabet", "bax"], 0, up("ba", "ab")),
    (["upset", "normalize", "{idx}"], 0, up("[2]", "[0,1]", "[1,0]")),
    (["upset", "normalize", "{idx}", "--alphabet", "xyz"], 0, up("z", "xy", "yx")),
    (["upset", "normalize", "{empty}"], 0, up()),
    (["upset", "normalize", "{nil}"], 0, up("[]")),
    # member
    (["upset", "member", "(3,2)", "{vec}"], 0, "true\n"),
    (["upset", "member", "(0,9)", "{vec}"], 1, "false\n"),
    (["upset", "member", "cacb", "{let}"], 0, "true\n"),
    (["upset", "member", "aa", "{let}"], 1, "false\n"),
    (["upset", "member", "[2,0,1]", "{idx}"], 0, "true\n"),
    (["upset", "member", "[0,0]", "{idx}"], 1, "false\n"),
    (["upset", "member", "ab", "{empty}"], 1, "false\n"),
    (["upset", "member", "(1,1)", "{empty}"], 1, "false\n"),
    (["upset", "member", "[]", "{nil}"], 0, "true\n"),
    # includes
    (["upset", "includes", "{vec_b}", "{vec}"], 0, "true\n"),
    (["upset", "includes", "{vec}", "{vec_b}"], 1, "false\n"),
    (["upset", "includes", "{let}", "{let_c}"], 1, "false\n"),
    (["upset", "includes", "{nil}", "{let_c}"], 0, "true\n"),
    (["upset", "includes", "{idx_b}", "{idx_b}"], 0, "true\n"),
    (["upset", "includes", "{idx}", "{idx_b}"], 1, "false\n"),
    (["upset", "includes", "{vec}", "{empty}"], 0, "true\n"),
    # union
    (["upset", "union", "{vec}", "{vec_b}"], 0, up("(0,3)", "(1,0)")),
    (["upset", "union", "{let}", "{let_c}"], 0, up("c", "ab", "ba", "bb")),
    (["upset", "union", "{idx}", "{idx_b}"], 0, up("[1]", "[2]", "[0,0]")),
    (["upset", "union", "{empty}", "{empty}"], 0, up()),
    (["upset", "union", "{empty}", "{let}"], 0, up("ab", "ba")),
    # intersect
    (["upset", "intersect", "{vec}", "{vec_b}"], 0, up("(1,2)", "(2,1)")),
    (["upset", "intersect", "{vec}", "{empty}"], 0, up()),
    (["upset", "intersect", "{empty}", "{empty}"], 0, up()),
    # quotient
    (["upset", "quotient", "a", "{let}"], 0, up("b")),
    (["upset", "quotient", "c", "{let}"], 0, up("ab", "ba")),
    (["upset", "quotient", "c", "{let_c}"], 0, up("[]")),
    (["upset", "quotient", "1", "{idx}"], 0, up("[1]", "[2]")),
    (["upset", "quotient", "2", "{idx_b}"], 0, up("[]")),
    (["upset", "quotient", "a", "{empty}"], 0, up()),
    (["upset", "quotient", "y", "{idx}", "--alphabet", "xyz"], 0, up("x", "z")),
    # som
    (["upset", "som", "{let}"], 0, "{a,b}\n"),
    (["upset", "som", "{let_c}"], 0, "{a,b,c}\n"),
    (["upset", "som", "{idx}"], 0, "{1,2,3}\n"),
    (["upset", "som", "{idx}", "--alphabet", "xyz"], 0, "{x,y,z}\n"),
    (["upset", "som", "{nil}"], 0, "{}\n"),
    (["upset", "som", "{empty}"], 0, "{}\n"),
    # phi-slice
    (["upset", "phi-slice", "{vec}", "(1)"], 0, "2\n"),
    (["upset", "phi-slice", "{vec}", "(0)"], 0, "inf\n"),
    (["upset", "phi-slice", "{vec_b}", "(5)"], 0, "0\n"),
    (["upset", "phi-slice", "{empty}", "(5)"], 0, "inf\n"),
    # an index list is one word, spaces and all; adjacent lists are two words
    (["upset", "normalize", "{idx_sp}"], 0, up("[2]", "[0,1]")),
    (["upset", "normalize", "{idx_sp}", "--alphabet", "abc"], 0, up("c", "ab")),
    (["upset", "normalize", "{idx_adj}"], 0, up("[1]")),
    # the longest decimal is read
    (["order", "dickson", "(1)", f"({MOST})"], 0, "true\n"),
    # a [] generator carries no letters, so the letter argument still joins
    (["upset", "quotient", "c", "{nil_ab}"], 0, up("[]")),
    (["upset", "quotient", "c", "{nil}"], 0, up("[]")),
]


ERR = [
    # carriers
    (["upset", "normalize", "{mixed}"], "cannot mix vectors and words in one command"),
    (["upset", "member", "ab", "{vec}"], "cannot mix vectors and words in one command"),
    (["upset", "union", "{vec}", "{let}"], "cannot mix vectors and words in one command"),
    (["upset", "phi-slice", "{let}", "(1)"], "cannot mix vectors and words in one command"),
    (["upset", "normalize", "{forms}"],
     "cannot mix letter-form and index-form words without --alphabet"),
    (["upset", "includes", "{let}", "{idx}"],
     "cannot mix letter-form and index-form words without --alphabet"),
    (["upset", "quotient", "a", "{vec}"], "letter arguments apply to word upsets only"),
    (["upset", "intersect", "{let}", "{let}"], "intersect is available for vector upsets only"),
    (["upset", "intersect", "{empty}", "{idx}"], "intersect is available for vector upsets only"),
    (["upset", "som", "{vec}"], "som is available for word upsets only"),
    (["upset", "som", "{bad_vec}"], "som is available for word upsets only"),
    (["upset", "phi-slice", "{let}", "ab"], "phi-slice is available for vector upsets only"),
    # the carrier is checked before any generator is parsed
    (["upset", "intersect", "{idx}", "{bad_idx}"],
     "intersect is available for vector upsets only"),
    # parsing
    (["upset", "normalize", "{bad}"], "expected a block of the form 'upset name {{ ... }}'"),
    (["upset", "union", "{vec}", "{bad}"], "expected a block of the form 'upset name {{ ... }}'"),
    (["upset", "normalize", "{bad_vec}"], "bad vector component 'x' in '(1,x)'"),
    (["upset", "normalize", "{bad_idx}"], "bad letter index 'q' in '[0,q]'"),
    (["upset", "member", "(1,x)", "{vec}"], "bad vector component 'x' in '(1,x)'"),
    (["upset", "phi-slice", "{vec}", "(x)"], "bad vector component 'x' in '(x)'"),
    (["upset", "phi-slice", "{vec}", "(1,1)"],
     "slice point (1,1) needs generators of dimension 3, got (1,2)"),
    (["upset", "normalize", "{idx}", "--alphabet", "ab"],
     "letter index 2 out of range for alphabet ab"),
    (["upset", "member", "ax", "{let}", "--alphabet", "ab"], "letter 'x' is not in alphabet ab"),
    (["upset", "quotient", "z", "{let}", "--alphabet", "ab"], "letter 'z' is not in alphabet ab"),
    (["upset", "quotient", "a", "{idx}"], "letter 'a' is not in alphabet 123"),
    (["upset", "quotient", "4", "{idx}"], "letter '4' is not in alphabet 123"),
    # other verbs
    (["seq", "good-pair", "{seq_empty}"], "no elements in {seq_empty}"),
    (["seq", "good-pair", "{seq_mixed}"], "cannot mix vectors and words in one command"),
    (["embed", "check", "dickson-to-word", "x"], "range must be a number, got 'x'"),
    (["embed", "check", "dickson-to-word", "-1"], "range must be a number, got '-1'"),
    (["embed", "check", "nope", "2"],
     "unknown embedding 'nope'; known: dickson-to-word, word-to-labeled"),
    (["embed", "check", "dickson-to-word", "2", "--dim", "0"], "dimension must be at least 1"),
    (["order", "leq-e", "ab", "[0,1]"],
     "cannot mix letter-form and index-form words without --alphabet"),
    (["order", "dickson", "ab", "(1)"], "expected a parenthesized vector, got 'ab'"),
    (["cover", "{bad_net}"], "line 2, column 9: bad vector component 'x' in '(x)'"),
    # word relations refuse vectors instead of reading them as letter-form words
    (["order", "leq-e", "(1,2)", "(1,2,3)"], "leq-e compares words, not vectors"),
    (["order", "leq-E", "(1,2)", "(2,1)"], "leq-E compares words, not vectors"),
    (["order", "leq-e", "(1,2)", "ab"], "cannot mix vectors and words in one command"),
    (["order", "leq-E", "[0]", "(1)"], "cannot mix vectors and words in one command"),
    # a letter-form word has no spaces and none of (),[]{}
    (["order", "leq-e", "a b", "ab"],
     "bad word 'a b': a letter-form word has no spaces and none of (),[]{{}}"),
    (["upset", "normalize", "{commas}"],
     "bad word 'a,b': a letter-form word has no spaces and none of (),[]{{}}"),
    # checked before a letter argument joins the inferred alphabet
    (["upset", "quotient", "a b", "{let}"],
     "bad word 'a b': a letter-form word has no spaces and none of (),[]{{}}"),
    # --alphabet letters follow the same rule, so printed words parse back
    (["upset", "normalize", "{idx_b}", "--alphabet", "a,b"],
     "bad alphabet 'a,b': letters cannot be spaces or any of (),[]{{}}"),
    # an inferred index alphabet is refused before it is built
    (["order", "leq-e", "[0]", "[99999999]"], "letter index 99999999 is over the limit of 99999"),
    # --alphabet is checked on every verb that takes it, vectors included
    (["upset", "member", "(9,9)", "{vec}", "--alphabet", "a,b"],
     "bad alphabet 'a,b': letters cannot be spaces or any of (),[]{{}}"),
    (["order", "dickson", "(1)", "(2)", "--alphabet", "a b"],
     "bad alphabet 'a b': letters cannot be spaces or any of (),[]{{}}"),
    (["seq", "good-pair", "{seq_vec}", "--alphabet", "a,b"],
     "bad alphabet 'a,b': letters cannot be spaces or any of (),[]{{}}"),
    (["embed", "check", "dickson-to-word", "1", "--alphabet", "a,b"],
     "bad alphabet 'a,b': letters cannot be spaces or any of (),[]{{}}"),
    # negative option values
    (["embed", "check", "dickson-to-word", "3", "--dim", "-1"], "dimension must be at least 1"),
    (["cover", "{net}", "--max-iterations", "-5"], "max_iterations must be at least 0"),
    # an index list is one word, spaces and all; an unterminated one still fails
    (["upset", "normalize", "{idx_sp}", "--alphabet", "ab"],
     "letter index 2 out of range for alphabet ab"),
    (["upset", "normalize", "{idx_open}"], "unterminated index list '[0,1'"),
    # a decimal over dickson._MAX_DIGITS digits is refused on every interpreter
    (["order", "dickson", "(1)", f"({NINES})"],
     "vector component of 4301 characters is over the limit of 4300 digits"),
    (["order", "leq-e", "[0]", f"[{NINES}]"],
     "letter index of 4301 characters is over the limit of 4300 digits"),
    (["upset", "normalize", "{idx_long}"],
     "letter index of 4301 characters is over the limit of 4300 digits"),
    (["cover", "{net_long}"], "line 1, column 1: expected: places <count>"),
    (["embed", "check", "dickson-to-word", NINES], f"range must be a number, got '{NINES}'"),
    # a delimiter outside a vector or an index list is refused, not skipped
    (["upset", "normalize", "{stray_close}"], "unexpected '}}' in an upset block"),
    (["upset", "normalize", "{stray_paren}"], "unexpected ')' in an upset block"),
    (["upset", "normalize", "{two_blocks}"], "unexpected '}}' in an upset block"),
    (["upset", "normalize", "{open_paren}"], "unexpected '(' in an upset block"),
    # while "()" is still a vector token, refused by parse_vec
    (["upset", "normalize", "{no_coords}"], "a vector needs at least one component"),
    # a computed coordinate too long to print back fails with wqokit's message
    (["cover", "{net_wide}"],
     "cannot print a vector component over the limit of 4300 digits"),
    # an empty --alphabet is refused, not read as no alphabet
    (["order", "leq-e", "ab", "aab", "--alphabet", ""], "an alphabet needs at least one letter"),
    (["embed", "check", "word-to-labeled", "1", "--alphabet", ""],
     "an alphabet needs at least one letter"),
    # an input file is opened as given, so a directory fails with the OS's message
    (["cover", "{dir}"], "[Errno 21] Is a directory: '{dir}'"),
]


DIMENSION = [
    ["upset", "normalize", "{dims}"],
    ["upset", "union", "{vec}", "{vec3}"],
    ["upset", "includes", "{vec3}", "{vec}"],
    ["upset", "intersect", "{vec}", "{vec3}"],
    ["upset", "member", "(1,1,1)", "{vec}"],
    ["order", "dickson", "(1,2)", "(1,1,1)"],
]


USAGE = [
    [],
    ["upset"],
    ["upset", "bogus", "{vec}"],
    ["upset", "member", "(1,1)"],
    ["upset", "intersect", "{vec}", "{vec}", "--alphabet", "ab"],
    ["upset", "phi-slice", "{vec}", "(1)", "--alphabet", "ab"],
    ["seq", "good-pair"],
    ["order", "leq-x", "a", "b"],
    ["embed", "verify", "dickson-to-word", "2"],
    ["embed", "check", "dickson-to-word", "2", "--dim", "x"],
    ["cover"],
    ["cover", "{vec}", "--max-iterations", "x"],
]


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in BLOCKS.items():
        p = tmp_path / f"{name}.up"
        p.write_text(text)
        paths[name] = str(p)
    paths["missing"] = str(tmp_path / "missing.up")
    paths["dir"] = str(tmp_path)
    return paths


def call(capsys, files, argv):
    code = run([a.format(**files) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv,code,out", OK)
def test_verb_output(capsys, files, argv, code, out):
    assert call(capsys, files, argv) == (code, out, "")


@pytest.mark.parametrize("argv,message", ERR)
def test_input_error(capsys, files, argv, message):
    assert call(capsys, files, argv) == (2, "", f"error: {message.format(**files)}\n")


MISSING = [
    ["upset", "normalize", "{missing}"],
    ["upset", "includes", "{missing}", "{vec}"],
    ["upset", "includes", "{vec}", "{missing}"],
    ["seq", "good-pair", "{missing}"],
    ["cover", "{missing}"],
]


def test_missing_file(capsys, files):
    for argv in MISSING:
        want = f"error: [Errno 2] No such file or directory: '{files['missing']}'\n"
        assert call(capsys, files, argv) == (2, "", want)


@pytest.mark.parametrize(
    "argv",
    [["cover", "{net}"], ["upset", "normalize", "{vec_b}"], ["seq", "good-pair", "{seq_good}"]],
)
def test_crlf_file_reads_as_lf(capsys, files, tmp_path, argv):
    """A file with CRLF line ends gives the same answer, byte for byte."""
    crlf = dict(files)
    for name in files:
        if "{" + name + "}" in argv:
            path = tmp_path / f"{name}.crlf"
            path.write_bytes(BLOCKS[name].replace("\n", "\r\n").encode())
            crlf[name] = str(path)
    assert call(capsys, crlf, argv) == call(capsys, files, argv)


@pytest.mark.parametrize("argv", DIMENSION)
def test_dimension_mismatch_names_both_operands(capsys, files, argv):
    code, out, err = call(capsys, files, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: dimension mismatch: ")
    assert "(1,1,1) is 3-dimensional" in err or "(1,2,3) is 3-dimensional" in err
    assert "is 2-dimensional" in err


@pytest.mark.parametrize("argv", USAGE)
def test_usage_error(capsys, files, argv):
    assert call(capsys, files, argv)[0] == 2


@pytest.mark.parametrize("argv,extra", [
    (["cover", "{net}", "--bogus"], "--bogus"),
    (["upset", "member", "(1,2)", "{vec}", "extra"], "extra"),
])
def test_unrecognized_arguments_are_named(capsys, files, argv, extra):
    code, out, err = call(capsys, files, argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"wqokit: error: unrecognized arguments: {extra}"


def test_group_help(capsys, files):
    code, out, err = call(capsys, files, ["upset", "-h"])
    assert code == 0
    assert out.startswith("usage: wqokit upset")


def _argv_corpus(n=20_000, seed=18):
    """Seeded argvs: every command path and prefixes of verb names, each
    followed by tokens the parsers treat specially or by random strings."""
    rng = random.Random(seed)
    paths = [command.split() for command, *_ in _COMMANDS]
    heads = paths + [[], ["cov"], ["upset", "mem"], ["seq", "good"], ["upset member"]]
    tokens = [
        "-h", "--help", "--", "--bogus", "--max-it", "--max-iterations=4", "-1", "",
        "--max-iterations", "--alphabet", "--alpha=ab", "--dim", "--oracle-bound",
        "(1,2)", "ab", "[0]", "x.up", "3", "check", "leq-e", "dickson",
        "--oracle-bound=(1,2)", "--max-iterations=-1", "--dim=3", "--alphabet=",
        *{word for path in paths for word in path},
    ]

    def token():
        if rng.random() < 0.8:
            return rng.choice(tokens)
        return "".join(rng.choice("-=a1 (,") for _ in range(rng.randint(0, 5)))

    corpus = [head + [t] for head in heads for t in tokens] + [
        # plain argvs: an option before the positionals, then given again
        ["order", "--alphabet=ab", "leq-e", "a", "b", "--alphabet", "xy"],
        ["upset", "member", "--alphabet", "ab", "a", "x.up", "--alphabet="],
        ["embed", "--dim=3", "check", "dickson-to-word", "3", "--dim", "4"],
        ["cover", "--max-iterations", "4", "x.up", "--max-iterations=-1"],
        ["cover", "--oracle-bound=(1,2)", "x.up", "--oracle-bound", "(3)"],
    ]
    while len(corpus) < n:
        argv = rng.choice(heads) + [token() for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.1:
            argv.insert(0, token())
        corpus.append(argv)
    return corpus


def _through(parse, argv):
    """(exit code, stdout, stderr, namespace) of parse(argv); None where absent."""
    out, err, code, ns = io.StringIO(), io.StringIO(), None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), ns


HELP = [[flag] for flag in ("-h", "--help")] + [
    command.split() + [flag] for command, *_ in _COMMANDS for flag in ("-h", "--help")
]


def test_verb_parsers_answer_as_the_full_parser():
    full = _build_parser().parse_args
    corpus = _argv_corpus() + HELP
    differ = [argv for argv in corpus if _through(_parse, argv) != _through(full, argv)]
    assert not differ, differ[:5]


def test_reused_parser_keeps_no_state(capsys, files):
    """Every argv above, twice in a shuffled order through the cached
    parsers, answers as it does on parsers built just for it."""
    assert _build_parser() is _build_parser()
    argvs = (
        [argv for argv, *_ in OK + ERR] + DIMENSION + USAGE + MISSING + HELP
    ) * 2
    random.Random(7).shuffle(argvs)
    reused = [call(capsys, files, argv) for argv in argvs]
    for argv, got in zip(argvs, reused):
        _build_parser.cache_clear()
        assert call(capsys, files, argv) == got, argv


def _upset_of(texts):
    """The carrier the CLI infers from texts, and the upset they generate."""
    alpha, show = _carrier(texts, None)
    make = upset.dickson_upset if alpha is None else upset.word_upset
    return alpha, show, make([_parse_elem(alpha, t) for t in texts])


_VECTORS = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 4), min_size=k, max_size=k).map(
        lambda c: "(" + ",".join(map(str, c)) + ")"),
    max_size=6,
))
_LETTER_WORDS = st.lists(st.text("abc12", min_size=1, max_size=4), max_size=6)
_INDEX_WORDS = st.lists(
    st.lists(st.integers(0, 11), max_size=4).map(lambda w: "[" + ",".join(map(str, w)) + "]"),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_VECTORS, _LETTER_WORDS, _INDEX_WORDS))
def test_a_printed_block_reads_back_as_its_upset(texts):
    alpha, _, minimal = _upset_of(texts)
    # the generators as written that are minimal, so that the carrier of x
    # is inferred from x's own generators, as from a printed block
    kept = [t for t in texts if _parse_elem(alpha, t) in minimal.gens]
    _, show, x = _upset_of(kept)
    printed = upset.format_upset_block(x, show=show)
    assert _upset_of(upset.parse_upset_block(printed)[1])[2] == x, printed


def _carrier_of(texts, letters):
    """What _carrier(texts, None, letters) returns, or the error it raises."""
    try:
        return _carrier(texts, None, letters)
    except CliError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_LETTER_WORDS, _INDEX_WORDS),
    st.lists(st.sampled_from(["a", "c", "1", "", "[]"]), max_size=1),
    st.sampled_from(["", "[]", " [] "]),
    st.integers(0, 6),
)
def test_uninformative_texts_leave_the_carrier_alone(texts, letters, blank, at):
    # a blank or [] generator neither adds letters nor makes the words index form
    padded = texts[:at] + [blank] + texts[at:]
    assert _carrier_of(padded, letters) == _carrier_of(texts, letters)


def test_embed_check_prints_a_counterexample(capsys, monkeypatch):
    # every vector maps to the empty word, so no order is reflected
    monkeypatch.setattr(transport, "dickson_to_word", lambda v: Word(Alphabet(("1",))))
    assert run(["embed", "check", "dickson-to-word", "1", "--dim", "2"]) == 1
    assert capsys.readouterr() == ("false\n  counterexample: (0,1), (0,0)\n", "")


def test_cover_reports_an_oracle_disagreement(capsys, files, monkeypatch):
    # the net cannot leave (0); an oracle claiming otherwise fails the call
    # as any error does: exit 2, empty stdout, one line on stderr
    monkeypatch.setattr(coverability, "forward_cover_oracle", lambda query, bound: True)
    assert call(capsys, files, ["cover", "{net}", "--oracle-bound", "(3)"]) == (
        2,
        "",
        "error: forward oracle covers the target but the backward analysis "
        "says unreachable\n",
    )


def _boom(*args):
    raise ValueError("boom")


@pytest.mark.parametrize("formatter,argv", [
    ("format_upset_block", ["cover", "{net}"]),
    ("_show", ["seq", "good-pair", "{seq_good}"]),
])
def test_a_failing_verb_prints_nothing(capsys, files, monkeypatch, formatter, argv):
    # the formatter called last fails after the rest of the answer is built
    monkeypatch.setattr(upset, formatter, _boom)
    assert call(capsys, files, argv) == (2, "", "error: boom\n")


def test_a_failing_counterexample_prints_nothing(capsys, monkeypatch):
    monkeypatch.setattr(transport, "dickson_to_word", lambda v: Word(Alphabet(("1",))))
    monkeypatch.setattr(upset, "_show", _boom)
    assert run(["embed", "check", "dickson-to-word", "1", "--dim", "2"]) == 2
    assert capsys.readouterr() == ("", "error: boom\n")
