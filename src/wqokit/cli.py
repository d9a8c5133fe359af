"""Batch command line front end.

Verbs: `order` (pairwise checks), `seq` (good-pair search), `upset`
(the set algebra), `embed` (quasi-embedding verification on exhaustive
ranges), `cover` (backward coverability on a net file). Boolean verbs
print true/false and exit 0/1; usage and input errors exit 2. Output is
canonical, so piping a printed block back in reproduces the value.

A `_cmd_*` handler returns (exit code, stdout text) and writes nothing to
stdout; run() prints the text after the handler returns. So a verb prints
its whole answer or nothing, and an input error exits 2 with empty stdout.
The one exception is a `cover --oracle-bound` disagreement: it exits 2
with the answer on stdout and the error on stderr.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from itertools import product
from pathlib import Path

from . import coverability, dickson, orders, transport, upset, words
from .words import Alphabet, Word


class CliError(Exception):
    """Usage-level failure; reported on stderr with exit status 2."""


def _bool(value: bool) -> tuple[int, str]:
    return (0, "true") if value else (1, "false")


_MAX_LETTERS = 10**5


def _carrier(texts, alphabet_opt, letters=()) -> Alphabet | None:
    """Decide vectors vs words from the pooled element texts.

    Returns None for vectors, else the words' alphabet; vectors and words
    cannot share a command. The --alphabet read by run() wins. Otherwise
    letter-form words, checked against the letter-form grammar of
    words.parse_word, pool their characters (sorted) with the letter
    arguments, and index-form words pool their indices; mixing the two
    forms needs the explicit flag. Index-form letters are named "1".."m",
    so letter arguments do not join them: such a name would read as a
    letter-form word. "[]" and blank texts carry no information. An
    inferred index alphabet holds at most _MAX_LETTERS letters.
    """
    texts = [t.strip() for t in texts]
    if any(t.startswith("(") for t in texts):
        if not all(t.startswith("(") for t in texts):
            raise CliError("cannot mix vectors and words in one command")
        if letters:
            raise CliError("letter arguments apply to word upsets only")
        return None
    if alphabet_opt:
        return alphabet_opt
    if not any(t.startswith("[") for t in texts):
        texts += [t.strip() for t in letters]
    informative = [t for t in texts if t not in ("", "[]")]
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
        )
    top = 0
    for t in bracketed:
        for part in t[1:-1].split(","):
            if dickson.is_decimal(part.strip()):
                top = max(top, int(part.strip()))
    if top >= _MAX_LETTERS:
        raise CliError(f"letter index {top} is over the limit of {_MAX_LETTERS - 1}")
    return Alphabet.indexed(top + 1)


def _parse_elem(alpha: Alphabet | None, text: str):
    if alpha is None:
        return dickson.parse_vec(text)
    return words.parse_word(text, alpha)


def _upsets(ns, *paths, extra=(), letters=(), only=None):
    """Read the blocks at paths; return (alphabet or None, one upset each).

    The carrier is picked from the pooled texts (the generators plus the
    extra element or point) and checked against `only` before parsing;
    with no text at all, either carrier fits.
    """
    blocks = [upset.parse_upset_block(Path(p).read_text())[1] for p in paths]
    texts = [t for toks in blocks for t in toks] + list(extra)
    alpha = _carrier(texts, getattr(ns, "alphabet", None), letters)
    if only and texts and only != ("vector" if alpha is None else "word"):
        raise CliError(f"{ns.op} is available for {only} upsets only")
    make = upset.dickson_upset if alpha is None else upset.word_upset
    return alpha, [make([_parse_elem(alpha, t) for t in toks]) for toks in blocks]


# ---------------------------------------------------------------- verbs


def _cmd_order(ns) -> tuple[int, str]:
    if ns.relation == "dickson":
        a = dickson.parse_vec(ns.left)
        b = dickson.parse_vec(ns.right)
        return _bool(dickson.leq(a, b))
    alpha = _carrier([ns.left, ns.right], ns.alphabet)
    if alpha is None:
        raise CliError(f"{ns.relation} compares words, not vectors")
    u = words.parse_word(ns.left, alpha)
    v = words.parse_word(ns.right, alpha)
    rel = words.leq_e if ns.relation == "leq-e" else words.leq_E
    return _bool(rel(u, v))


def _cmd_seq(ns) -> tuple[int, str]:
    lines = Path(ns.file).read_text().splitlines()
    texts = [ln.split("#", 1)[0].strip() for ln in lines]
    texts = [t for t in texts if t]
    if not texts:
        raise CliError(f"no elements in {ns.file}")
    alpha = _carrier(texts, ns.alphabet)
    seq = [_parse_elem(alpha, t) for t in texts]
    leq = dickson.leq if alpha is None else words.leq_e
    pair = orders.find_good_pair(seq, leq)
    if pair is None:
        return 1, "bad"
    i, j = pair
    return 0, f"good pair: {i} {j}\n  {upset._show(seq[i])} <= {upset._show(seq[j])}"


def _cmd_normalize(ns) -> tuple[int, str]:
    return 0, upset.format_upset_block(_upsets(ns, ns.file)[1][0])


def _cmd_member(ns) -> tuple[int, str]:
    alpha, (x,) = _upsets(ns, ns.file, extra=[ns.element])
    return _bool(x.member(_parse_elem(alpha, ns.element)))


def _cmd_includes(ns) -> tuple[int, str]:
    x, y = _upsets(ns, ns.big, ns.small)[1]
    return _bool(x.includes(y))


def _cmd_union(ns) -> tuple[int, str]:
    x, y = _upsets(ns, ns.left, ns.right)[1]
    return 0, upset.format_upset_block(x.union(y))


def _cmd_intersect(ns) -> tuple[int, str]:
    x, y = _upsets(ns, ns.left, ns.right, only="vector")[1]
    return 0, upset.format_upset_block(upset.intersect_dickson(x, y))


def _cmd_quotient(ns) -> tuple[int, str]:
    alpha, (x,) = _upsets(ns, ns.file, letters=[ns.letter])
    return 0, upset.format_upset_block(upset.quotient(alpha.index(ns.letter), x))


def _cmd_som(ns) -> tuple[int, str]:
    alpha, (x,) = _upsets(ns, ns.file, only="word")
    return 0, "{" + ",".join(alpha.names[l] for l in sorted(upset.som(x))) + "}"


def _cmd_phi_slice(ns) -> tuple[int, str]:
    (f,) = _upsets(ns, ns.file, extra=[ns.point], only="vector")[1]
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
    query = coverability.parse_net(Path(ns.netfile).read_text())
    # the oracle runs first, so a bad bound fails before a long saturation
    # and its error wins over SaturationLimit
    oracle = None
    if ns.oracle_bound is not None:
        bound = dickson.parse_vec(ns.oracle_bound)
        oracle = coverability.forward_cover_oracle(query, bound)
    result = coverability.backward_cover(query, max_iterations=ns.max_iterations)
    code, verdict = _bool(result.coverable)
    out = f"coverable: {verdict}\niterations: {result.iterations}\n"
    out += upset.format_upset_block(result.basis, "basis")
    if oracle is None:
        return code, out
    if oracle and not result.coverable:
        print(
            "error: forward oracle covers the target but the backward "
            "analysis says unreachable",
            file=sys.stderr,
        )
        return 2, out + "\noracle: true"
    if not oracle and result.coverable:
        return code, out + f"\noracle: false (inconclusive under bound {ns.oracle_bound})"
    # here the oracle agrees with the verdict
    return code, out + f"\noracle: {verdict}"


# ---------------------------------------------------------------- parser

# (command, help, handler, arguments); an argument is a name or a pair of
# a name and its add_argument options. A row without a handler is a group
# of verbs, declared in the "group verb" rows after it.
_COMMANDS = [
    ("order", "compare two elements", _cmd_order, (
        ("relation", {"choices": ["leq-e", "leq-E", "dickson"]}),
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state between calls."""
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
            continue
        for arg in arguments:
            name, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(name, **options)
        p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # --alphabet is read here once, so every verb taking it checks it
        if getattr(ns, "alphabet", None):
            ns.alphabet = Alphabet.from_letters(ns.alphabet)
        code, out = ns.handler(ns)
        print(out)
        return code
    except (CliError, ValueError, OSError, coverability.SaturationLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
