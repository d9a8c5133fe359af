"""Batch command line front end.

Verbs: `order` (pairwise checks), `seq` (good-pair search), `upset`
(the set algebra), `embed` (quasi-embedding verification on exhaustive
ranges), `cover` (backward coverability on a net file). Boolean verbs
print true/false and exit 0/1; usage and input errors exit 2. Output is
canonical, so piping a printed block back in reproduces the value.

A `_cmd_*` handler returns (exit code, stdout text) and writes nothing to
stdout; run() prints the text after the handler returns. So a verb prints
its whole answer or nothing, and an input error exits 2 with empty stdout.
A stdout closed before the answer is written, as by `| head` or `>&-`, is
no input error: run() returns 141 and main() ends the process with it,
silently, as SIGPIPE ends `cat`. A stdout that refuses the answer
otherwise, as /dev/full does, fails the call with status 2. A stderr that
is closed or full loses the error report but leaves the status as it is.
Help that a closed or full stdout cannot take is lost, with status 0, and
a usage error writes only to stderr; the full parser is a _Parser, so this
holds on every Python version, whatever its argparse does.

run() reads plain argv itself, from the _COMMANDS row of the verb that
its leading words name (`cover`, `upset member`, ...): the verb's
positionals in order and its long options spelled out, as `--name value`
or `--name=value`, each converted by the row's type and checked against
its choices. That gives the namespace the full argparse parser would
give. Any other argv (`-h`, an abbreviated option, `--`, a token or a
separate option value starting with "-", a failed type or choice, too
few or too many positionals, no verb) goes whole to the full parser,
built on first use, which alone prints help and usage errors.

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
from contextlib import suppress
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


def _arguments(arguments):
    """(name, add_argument options) of each argument of a _COMMANDS row."""
    return [(arg, {}) if isinstance(arg, str) else arg for arg in arguments]


def _table(command, handler, arguments):
    """The command path of a verb and what _plain needs of it: its positionals
    in order and its options by name, each as (dest, type, choices), and the
    namespace of a call that gives none of its options."""
    path, positionals, options = tuple(command.split()), [], {}
    defaults = {"handler": handler, **dict(zip(("verb", "op"), path))}
    for name, o in _arguments(arguments):
        # argparse's dest: an option's name without "--", "-" read as "_"
        dest = name[2:].replace("-", "_") if name.startswith("--") else name
        spec = (dest, o.get("type", str), o.get("choices"))
        if name.startswith("--"):
            options[name], defaults[spec[0]] = spec, o.get("default")
        else:
            positionals.append(spec)
    return path, (positionals, options, defaults)


# the table of each verb in _COMMANDS, by command path
_TABLES = dict(_table(c, h, args) for c, _, h, args in _COMMANDS if h)


def _plain(positionals, options, defaults, args):
    """The namespace the full parser gives for a verb's args, or None.

    Only plain args are read here: the verb's positionals in order and its
    long options spelled out, as --name value or --name=value, the last of
    a repeated option winning. Anything else (-h, an abbreviation, --, a
    token or a separate option value starting with "-", a failed type or
    choices, too few or too many positionals) gives None.
    """
    values, words, given = dict(defaults), [], []
    tokens = iter(args)
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        name, eq, value = token.partition("=")
        # a missing separate value reads as "-", so it too gives None
        value = value if eq else next(tokens, "-")
        if name not in options or not eq and value.startswith("-"):
            return None
        given.append((options[name], value))
    try:
        # strict: a count of words other than the verb's positionals fails
        for (dest, convert, choices), value in [*given, *zip(positionals, words, strict=True)]:
            values[dest] = convert(value)
            if choices is not None and values[dest] not in choices:
                return None
    except (TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


class _Parser(argparse.ArgumentParser):
    """argparse's parser under run()'s rule for stdio, on every Python: text
    that a closed or full stream cannot take is lost, with no traceback and
    no other status, and a usage error writes only to stderr."""

    def _print_message(self, message, file=None):
        # file is None only when its std stream is closed
        with suppress(AttributeError, OSError):
            file.write(message)

    def error(self, message):
        # argparse's own error() prints the usage on stdout when stderr is closed
        self.exit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The full parser: the top-level parser and every verb's subparser.

    run() needs it only for argv that _plain does not read: it alone prints
    help and usage errors. parse_args keeps no state between calls.
    """
    parser = _Parser(
        prog="wqokit",
        description="Embedding orders, upward closed sets, and coverability.",
    )
    groups = {"": parser.add_subparsers(dest="verb", required=True)}
    for command, help_text, handler, arguments in _COMMANDS:
        group, _, verb = command.rpartition(" ")
        p = groups[group].add_parser(verb, help=help_text)
        if handler is None:
            groups[verb] = p.add_subparsers(dest="op", required=True)
            continue
        for name, options in _arguments(arguments):
            p.add_argument(name, **options)
        p.set_defaults(handler=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace, exit and messages of the full parser's parse_args(argv).

    Plain args after the words of a verb are read from that verb's table;
    the full parser answers any other argv.
    """
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        if path in _TABLES and (ns := _plain(*_TABLES[path], argv[len(path):])) is not None:
            return ns
    return _build_parser().parse_args(argv)


# the status a shell reports for a process killed by SIGPIPE (13): 128 + 13
_SIGPIPE_STATUS = 141


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
        if sys.stdout is None:
            # fd 1 closed before the start loses the answer as a closed pipe does
            return _SIGPIPE_STATUS
        # flushed here, so a stdout that cannot take it fails in this try
        # whether or not the stream is buffered
        print(out, flush=True)
        return code
    except BrokenPipeError:
        # the reader closed stdout early, which is no input error: end as
        # SIGPIPE would, saying nothing
        return _SIGPIPE_STATUS
    except (CliError, ValueError, OSError, coverability.SaturationLimit) as exc:
        # a stderr that is closed (None) or fails loses the report, not the status
        with suppress(AttributeError, OSError):
            sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    code = run()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            # what the stream holds cannot be written (help, a lost answer or
            # report): fd on devnull, so that exit's own flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
