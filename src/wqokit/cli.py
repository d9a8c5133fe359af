"""Batch command line front end.

Verbs: `order` (pairwise checks), `seq` (good-pair search), `upset`
(the set algebra), `embed` (quasi-embedding verification on exhaustive
ranges), `cover` (backward coverability on a net file). Boolean verbs
print true/false and exit 0/1; usage and input errors exit 2. Output is
canonical, so piping a printed block back in reproduces the value.

A `_cmd_*` handler returns (exit code, stdout text) and writes nothing to
stdout; run() prints the text after the handler returns. So a verb prints
its whole answer or nothing, and an input error exits 2 with empty stdout.
A stdout closed before the answer is written, as by `| head`, is no input
error: main() ends the process silently with status 141, as SIGPIPE ends
`cat`.

run() parses argv with a parser built for the one verb that its leading
words name (`cover`, `upset member`, ...), from that verb's _COMMANDS
row, and the full parser reports what that parser leaves over, as its
own parse_args would. So the namespace, exit code and messages are the
full parser's, and a call that names a verb builds no other verb's
parser. The full parser, with every verb's subparser, is built only for
argv that names no verb (none, `-h`, `upset -h`, an unknown verb, a
leading `--`) and for the "unrecognized arguments" error, which prints
its usage: only it can answer those.

_read gives an input file's text as open(path).read() does, the locale's
encoding and universal newlines, in one unbuffered read and one decode:
a file with CRLF or CR line ends reads as its LF copy, and a path that
cannot be read fails with the OSError's own text. Net and sequence files
break lines only at those line ends. A net file is split into words by
str.split() on each line once its comment is cut; the column of a word
is computed only for an error message (coverability.parse_net).
"""

from __future__ import annotations

import argparse
import locale
import os
import sys
from collections.abc import Callable
from functools import cache, partial
from itertools import count, product

from . import coverability, dickson, orders, transport, upset, words
from .words import Alphabet, Word


class CliError(Exception):
    """Usage-level failure; reported on stderr with exit status 2."""


def _bool(value: bool) -> tuple[int, str]:
    return (0, "true") if value else (1, "false")


_MAX_LETTERS = 10**5


def _carrier(texts, alphabet_opt, letters=()) -> tuple[Alphabet | None, Callable]:
    """Decide vectors vs words from the pooled element texts.

    Returns (None, upset._show) for vectors, else the words' alphabet and
    how to print a word; vectors and words cannot share a command. The
    --alphabet read by run() wins. Otherwise
    letter-form words, checked against the letter-form grammar of
    words.parse_word, pool their characters (sorted) with the letter
    arguments, and index-form words pool their indices; mixing the two
    forms needs the explicit flag. Index-form letters are named "1".."m",
    so letter arguments do not join them: such a name would read as a
    letter-form word. "[]" and blank texts carry no information, as
    generators or as letter arguments: they neither make the words index
    form nor add letters. An inferred index alphabet holds at most
    _MAX_LETTERS letters, and its words print in index form
    (words._index_form), so a printed word reads back as itself; every
    other word prints as upset._show prints it.
    """
    texts = [t.strip() for t in texts]
    if any(t.startswith("(") for t in texts):
        if not all(t.startswith("(") for t in texts):
            raise CliError("cannot mix vectors and words in one command")
        if letters:
            raise CliError("letter arguments apply to word upsets only")
        return None, upset._show
    if alphabet_opt:
        return alphabet_opt, upset._show
    informative = [t for t in texts if t not in ("", "[]")]
    if not any(t.startswith("[") for t in informative):
        informative += [t for t in map(str.strip, letters) if t not in ("", "[]")]
    bracketed = [t for t in informative if t.startswith("[")]
    plain = [t for t in informative if not t.startswith("[")]
    if bracketed and plain:
        raise CliError(
            "cannot mix letter-form and index-form words without --alphabet"
        )
    for t in plain:
        words._check_letter_form(t)
    if plain:
        return Alphabet.from_letters(
            "".join(sorted({ch for t in plain for ch in t}))
        ), upset._show
    top = 0
    for t in bracketed:
        for part in t[1:-1].split(","):
            if dickson.is_decimal(part.strip()):
                top = max(top, int(part.strip()))
    if top >= _MAX_LETTERS:
        raise CliError(f"letter index {top} is over the limit of {_MAX_LETTERS - 1}")
    return Alphabet.indexed(top + 1), words._index_form


def _read(path: str) -> str:
    """The text of the file at path, as open(path).read() gives it, in one read.

    One unbuffered readall, one decode in the locale's encoding, then
    "\r\n" and "\r" become "\n": open()'s universal newlines, without
    its buffer and incremental decoder.
    """
    with open(path, "rb", buffering=0) as f:
        data = f.readall()
    text = data.decode(locale.getpreferredencoding(False))
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_elem(alpha: Alphabet | None, text: str):
    if alpha is None:
        return dickson.parse_vec(text)
    return words.parse_word(text, alpha)


# normalizing n vectors of dimension d inserts each into the coordinate
# trie of dickson, which compares it only with the kept generators it
# cannot rule out by a key. n^2 * d still models the trie's worst case:
# the spread vectors (i,0,...,0,n-i) of dimension 200, 600 at the cap,
# took 8.3-9.2 s (500 took 6.4-8.2 s and 1,000 24.6-26.3 s in-process),
# so the cap must not be relaxed. Other shapes at the cap cost less:
# 6,000 pairwise incomparable 2-dimensional vectors normalized in
# 1.35-1.45 s, a union of two blocks of 3,000 that make one antichain in
# 2.0-2.1 s, and 600 vectors (0,...,0,i,600-i) of dimension 200 in
# 0.23-0.26 s. On a 2-core VM under Python 3.11, through the CLI with
# process start included unless marked in-process.
_MAX_VECTOR_WORK = 6_000**2 * 2


def _upsets(ns, *paths, extra=(), letters=(), only=None):
    """Read the blocks at paths; return (alphabet or None, printer, one upset each).

    The carrier is picked from the pooled texts (the generators plus the
    extra element or point) and checked against `only` before parsing;
    with no text at all, the upsets are empty and take the carrier that
    `only` names (words when it names none). Vector blocks whose n
    generators between them, of the dimension d of the first one, make
    n^2 * d over _MAX_VECTOR_WORK are refused before parsing.
    """
    blocks = [upset.parse_upset_block(_read(p))[1] for p in paths]
    texts = [t for toks in blocks for t in toks] + list(extra)
    alpha, show = _carrier(texts, getattr(ns, "alphabet", None), letters)
    if only and only != ("vector" if alpha is None else "word"):
        if texts:
            raise CliError(f"{ns.op} is available for {only} upsets only")
        alpha = None
    gens = sum(map(len, blocks))
    if alpha is None and gens:
        dim = texts[0].count(",") + 1
        if gens * gens * dim > _MAX_VECTOR_WORK:
            raise CliError(
                f"the input has {gens} vector generators of dimension {dim}: "
                f"{gens}^2 * {dim} = {gens * gens * dim}, over the limit of {_MAX_VECTOR_WORK}"
            )
    make = upset.dickson_upset if alpha is None else upset.word_upset
    return alpha, show, [make([_parse_elem(alpha, t) for t in toks]) for toks in blocks]


# ---------------------------------------------------------------- verbs


# relation -> the module and name of its order, read when it is called, so
# an order rebound there (as a tracer does) is the one called
_RELATIONS = {"leq-e": (words, "leq_e"), "leq-E": (words, "leq_E"), "dickson": (dickson, "leq")}


def _cmd_order(ns) -> tuple[int, str]:
    module, name = _RELATIONS[ns.relation]
    alpha = None if module is dickson else _carrier([ns.left, ns.right], ns.alphabet)[0]
    if alpha is None and module is words:
        raise CliError(f"{ns.relation} compares words, not vectors")
    leq = getattr(module, name)
    return _bool(leq(_parse_elem(alpha, ns.left), _parse_elem(alpha, ns.right)))


# a bad sequence of n elements takes n(n-1)/2 comparisons: 5,000
# 2-dimensional vectors (12.5 M) took 7.5 s. Under the length rule words
# of one length cost one key equality each (3,000 distinct 9-letter
# words, 4.5 M pairs, took 1.0 s), but the cap counts pairs, not
# letters: the worst measured shape is words of increasing length, and
# 1,199 words a^(1200-k) b^(2k) (718,201 pairs) took 27 s. On a 2-core
# VM under Python 3.11, process start included.
_MAX_COMPARISONS = 5_000_000


def _cmd_seq(ns) -> tuple[int, str]:
    # _read leaves "\n" the one line end
    texts = [ln.split("#", 1)[0].strip() for ln in _read(ns.file).split("\n")]
    texts = [t for t in texts if t]
    if not texts:
        raise CliError(f"no elements in {ns.file}")
    alpha, show = _carrier(texts, ns.alphabet)
    seq = [_parse_elem(alpha, t) for t in texts]
    # checked once here, so the capped search compares unchecked keys
    keys, key_leq = upset._keyed(dickson.leq if alpha is None else words.leq_e, seq)
    made = count(1)

    def capped(j, k) -> bool:
        if next(made) > _MAX_COMPARISONS:
            raise CliError(
                f"searching {len(seq)} elements for a good pair makes more than "
                f"{_MAX_COMPARISONS} comparisons, the limit"
            )
        return key_leq(j, k)

    pair = orders.find_good_pair(keys, capped)
    if pair is None:
        return 1, "bad"
    i, j = pair
    return 0, f"good pair: {i} {j}\n  {show(seq[i])} <= {show(seq[j])}"


def _cmd_normalize(ns) -> tuple[int, str]:
    _, show, (x,) = _upsets(ns, ns.file)
    return 0, upset.format_upset_block(x, show=show)


def _cmd_member(ns) -> tuple[int, str]:
    alpha, _, (x,) = _upsets(ns, ns.file, extra=[ns.element])
    return _bool(x.member(_parse_elem(alpha, ns.element)))


def _cmd_includes(ns) -> tuple[int, str]:
    x, y = _upsets(ns, ns.big, ns.small)[2]
    return _bool(x.includes(y))


def _cmd_union(ns) -> tuple[int, str]:
    _, show, (x, y) = _upsets(ns, ns.left, ns.right)
    return 0, upset.format_upset_block(x.union(y), show=show)


# one join per pair of generators, then a normalization of the joins
# through the trie. At the cap, two 4-dimensional blocks of 400 on
# disjoint coordinates, whose 160,000 joins are all minimal, take
# 7.7-8.7 s, and two 2-dimensional antichains of 400 generators each
# 0.4-0.5 s (2-core VM, Python 3.11, process start included)
_MAX_JOINS = 160_000


def _cmd_intersect(ns) -> tuple[int, str]:
    x, y = _upsets(ns, ns.left, ns.right, only="vector")[2]
    joins = len(x.gens) * len(y.gens)
    if joins > _MAX_JOINS:
        raise CliError(
            f"intersecting {len(x.gens)} and {len(y.gens)} generators makes "
            f"{joins} joins, over the limit of {_MAX_JOINS}"
        )
    return 0, upset.format_upset_block(upset.intersect_dickson(x, y))


def _cmd_quotient(ns) -> tuple[int, str]:
    alpha, show, (x,) = _upsets(ns, ns.file, letters=[ns.letter])
    x = upset.quotient(alpha.index(ns.letter), x)
    return 0, upset.format_upset_block(x, show=show)


def _cmd_som(ns) -> tuple[int, str]:
    alpha, _, (x,) = _upsets(ns, ns.file, only="word")
    return 0, "{" + ",".join(alpha.names[l] for l in sorted(upset.som(x))) + "}"


def _cmd_phi_slice(ns) -> tuple[int, str]:
    (f,) = _upsets(ns, ns.file, extra=[ns.point], only="vector")[2]
    value = upset.phi_slice(f, dickson.parse_vec(ns.point))
    return 0, "inf" if value == upset.INF else str(int(value))


_MAX_PAIRS = 10**6


def _check_range_size(base: int, lengths) -> None:
    """Refuse a range with more than _MAX_PAIRS pairs before building it.

    The sum stops past the cap, and exponents are clipped at the cap's bit
    length, where any base above 1 passes it: a huge range costs little.
    """
    points = 0
    for n in lengths:
        points += base ** min(n, _MAX_PAIRS.bit_length())
        if points * points > _MAX_PAIRS:
            raise CliError(
                f"the range has at least {points * points} pairs, "
                f"over the limit of {_MAX_PAIRS}"
            )


def _cmd_embed(ns) -> tuple[int, str]:
    if not dickson.is_decimal(ns.range):
        raise CliError(f"range must be a number, got {ns.range!r}")
    hi = int(ns.range)
    # the range is every tuple over range(base) with a length in lengths
    if ns.name == "dickson-to-word":
        # the embedding refuses a dimension below 1 before anything is built
        f = transport.dickson_word_embedding(ns.dim)
        if ns.dim > _MAX_PAIRS:
            raise CliError(f"--dim {ns.dim} is over the limit of {_MAX_PAIRS}")
        base, lengths, point = hi + 1, [ns.dim], tuple
    elif ns.name == "word-to-labeled":
        f = transport.labeling_embedding()
        alpha = ns.alphabet or Alphabet.from_letters("ab")
        base, lengths, point = alpha.size, range(hi + 1), partial(Word, alpha)
    else:
        raise CliError(
            f"unknown embedding {ns.name!r}; "
            f"known: dickson-to-word, word-to-labeled"
        )
    _check_range_size(base, lengths)
    points = [point(t) for n in lengths for t in product(range(base), repeat=n)]
    ok, witness = transport.check_quasi_embedding(f, product(points, points))
    if ok:
        return 0, f"true\n  {f.name}: order reflected on {len(points) ** 2} pairs"
    a1, a2 = witness
    return 1, f"false\n  counterexample: {upset._show(a1)}, {upset._show(a2)}"


def _cmd_cover(ns) -> tuple[int, str]:
    query = coverability.parse_net(_read(ns.netfile))
    # the oracle runs first, so a bad bound fails before a long saturation
    # and its error wins over SaturationLimit
    oracle = None
    if ns.oracle_bound is not None:
        bound = dickson.parse_vec(ns.oracle_bound)
        oracle = coverability.forward_cover_oracle(query, bound)
    result = coverability.backward_cover(query, max_iterations=ns.max_iterations)
    if oracle and not result.coverable:
        raise CliError("forward oracle covers the target but the backward "
                       "analysis says unreachable")
    code, verdict = _bool(result.coverable)
    out = f"coverable: {verdict}\niterations: {result.iterations}\n"
    out += upset.format_upset_block(result.basis, "basis")
    if oracle is not None:
        # the oracle agrees, or it is false where only the saturation covers
        out += "\noracle: " + (verdict if oracle == result.coverable
                               else f"false (inconclusive under bound {ns.oracle_bound})")
    return code, out


# ---------------------------------------------------------------- parser

# (command, help, handler, arguments); an argument is a name or a pair of
# a name and its add_argument options. A row without a handler is a group
# of verbs, declared in the "group verb" rows after it.
_COMMANDS = [
    ("order", "compare two elements", _cmd_order, (
        ("relation", {"choices": list(_RELATIONS)}),
        "left", "right", "--alphabet")),
    ("seq", "analyze a sequence file", None, ()),
    ("seq good-pair", "first i<j with seq[i] <= seq[j]", _cmd_seq, ("file", "--alphabet")),
    ("upset", "upward closed set algebra", None, ()),
    ("upset normalize", "canonical form of a block", _cmd_normalize, ("file", "--alphabet")),
    ("upset member", "element membership", _cmd_member, ("element", "file", "--alphabet")),
    ("upset includes", "is the second set within the first", _cmd_includes,
     ("big", "small", "--alphabet")),
    ("upset union", "union of two upsets", _cmd_union, ("left", "right", "--alphabet")),
    ("upset intersect", "intersection of vector upsets", _cmd_intersect, ("left", "right")),
    ("upset quotient", "left quotient of a word upset", _cmd_quotient,
     ("letter", "file", "--alphabet")),
    ("upset som", "starting letters of minimal elements", _cmd_som, ("file", "--alphabet")),
    ("upset phi-slice", "least last coordinate over a prefix", _cmd_phi_slice, ("file", "point")),
    ("embed", "verify a quasi-embedding on a range", _cmd_embed, (
        ("action", {"choices": ["check"]}), "name",
        ("range", {"help": "per-coordinate max (vectors) or max length (words)"}),
        "--alphabet", ("--dim", {"type": int, "default": 2}))),
    ("cover", "backward coverability on a net file", _cmd_cover, (
        "netfile", ("--max-iterations", {"type": int}),
        ("--oracle-bound", {"help": "vector bound enabling the forward cross-check"}))),
]


# (handler, arguments) of each verb in _COMMANDS, by command path
_VERBS = {tuple(c.split()): (h, args) for c, _, h, args in _COMMANDS if h}


def _add_arguments(p: argparse.ArgumentParser, handler, arguments) -> None:
    """Give p a verb's arguments and handler, as its _COMMANDS row lists them."""
    for arg in arguments:
        name, options = (arg, {}) if isinstance(arg, str) else arg
        p.add_argument(name, **options)
    p.set_defaults(handler=handler)


@cache
def _verb_parser(path: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of the verb at path (("cover",), ("upset", "member"), ...).

    It is built as the full parser builds that verb's subparser, with
    the same prog, so it prints the same usage, help and errors.
    """
    p = argparse.ArgumentParser(prog="wqokit " + " ".join(path))
    _add_arguments(p, *_VERBS[path])
    return p


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The full parser: the top-level parser and every verb's subparser.

    run() needs it only for argv that names no verb, to print the
    top-level and group help and to refuse an unknown verb, and for the
    "unrecognized arguments" error, which prints the top-level usage.
    parse_args keeps no state between calls.
    """
    parser = argparse.ArgumentParser(
        prog="wqokit",
        description="Embedding orders, upward closed sets, and coverability.",
    )
    groups = {"": parser.add_subparsers(dest="verb", required=True)}
    for command, help_text, handler, arguments in _COMMANDS:
        group, _, verb = command.rpartition(" ")
        p = groups[group].add_parser(verb, help=help_text)
        if handler is None:
            groups[verb] = p.add_subparsers(dest="op", required=True)
        else:
            _add_arguments(p, handler, arguments)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace, exit and messages of the full parser's parse_args(argv).

    A verb parser keeps what it does not know, and the full parser reports
    it, as parse_args does after the verb parser has run; the namespace
    gets the verb and op words that the full parser's subparsers set.
    """
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        if path in _VERBS:
            ns, extra = _verb_parser(path).parse_known_args(argv[len(path):])
            if extra:
                _build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
            vars(ns).update(zip(("verb", "op"), path))
            return ns
    return _build_parser().parse_args(argv)


def run(argv=None) -> int:
    try:
        ns = _parse(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # --alphabet is read here once, so every verb taking it checks it
        if getattr(ns, "alphabet", None) is not None:
            ns.alphabet = Alphabet.from_letters(ns.alphabet)
        code, out = ns.handler(ns)
        print(out)
        return code
    except BrokenPipeError:
        # stdout was closed, not an input: main() ends the process
        raise
    except (CliError, ValueError, OSError, coverability.SaturationLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# the status a shell reports for a process killed by SIGPIPE (13): 128 + 13
_SIGPIPE_STATUS = 141


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: end as SIGPIPE would, saying
        # nothing, with fd 1 on devnull so that exit's own flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _SIGPIPE_STATUS
    sys.exit(code)


if __name__ == "__main__":
    main()
