"""Batch command line front end.

Verbs: `order` (pairwise checks), `seq` (good-pair search), `upset`
(the set algebra), `embed` (quasi-embedding verification on exhaustive
ranges), `cover` (backward coverability on a net file). Boolean verbs
print true/false and exit 0/1; usage and input errors exit 2. Output is
canonical, so piping a printed block back in reproduces the value.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from pathlib import Path

from . import coverability, dickson, orders, transport, upset, words
from .words import Alphabet, Word


class CliError(Exception):
    """Usage-level failure; reported on stderr with exit status 2."""


def _show(e) -> str:
    return dickson.format_vec(e) if isinstance(e, tuple) else str(e)


def _bool_line(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _infer_alphabet(texts, override: str | None) -> Alphabet:
    """Pick the alphabet for a batch of word texts.

    An explicit --alphabet wins. Otherwise letter-form words pool their
    characters (sorted), index-form words pool their indices; mixing the
    two forms needs the explicit flag. "[]" and blank texts carry no
    information.
    """
    if override:
        return Alphabet.from_letters(override)
    stripped = [t.strip() for t in texts]
    informative = [t for t in stripped if t not in ("", "[]")]
    bracketed = [t for t in informative if t.startswith("[")]
    plain = [t for t in informative if not t.startswith("[")]
    if bracketed and plain:
        raise CliError(
            "cannot mix letter-form and index-form words without --alphabet"
        )
    if plain:
        return Alphabet.from_letters(
            "".join(sorted({ch for t in plain for ch in t}))
        )
    top = 0
    for t in bracketed:
        for part in t[1:-1].split(","):
            if dickson.is_decimal(part.strip()):
                top = max(top, int(part.strip()))
    return Alphabet.indexed(top + 1)


def _carrier(element_texts, alphabet_opt, letter_names=()):
    """Decide vec vs word mode from the pooled element texts.

    Returns ("vec", None) or ("word", alphabet). Vectors and words
    cannot share a command.
    """
    texts = [t.strip() for t in element_texts]
    if any(t.startswith("(") for t in texts):
        if not all(t.startswith("(") for t in texts):
            raise CliError("cannot mix vectors and words in one command")
        if letter_names:
            raise CliError("letter arguments apply to word upsets only")
        return "vec", None
    return "word", _infer_alphabet(list(texts) + list(letter_names), alphabet_opt)


def _parse_elem(kind: str, alpha: Alphabet | None, text: str):
    if kind == "vec":
        return dickson.parse_vec(text)
    return words.parse_word(text, alpha)


def _mk_upset(kind: str, alpha: Alphabet | None, texts) -> upset.UpSet:
    gens = [_parse_elem(kind, alpha, t) for t in texts]
    if kind == "vec":
        return upset.dickson_upset(gens)
    return upset.word_upset(gens)


def _load_block(path: str) -> list[str]:
    name_and_toks = upset.parse_upset_block(Path(path).read_text())
    return name_and_toks[1]


# ---------------------------------------------------------------- verbs


def _cmd_order(ns) -> int:
    if ns.relation == "dickson":
        a = dickson.parse_vec(ns.left)
        b = dickson.parse_vec(ns.right)
        return _bool_line(dickson.leq(a, b))
    alpha = _infer_alphabet([ns.left, ns.right], ns.alphabet)
    u = words.parse_word(ns.left, alpha)
    v = words.parse_word(ns.right, alpha)
    rel = words.leq_e if ns.relation == "leq-e" else words.leq_E
    return _bool_line(rel(u, v))


def _cmd_seq(ns) -> int:
    lines = Path(ns.file).read_text().splitlines()
    texts = [ln.split("#", 1)[0].strip() for ln in lines]
    texts = [t for t in texts if t]
    if not texts:
        raise CliError(f"no elements in {ns.file}")
    kind, alpha = _carrier(texts, ns.alphabet)
    seq = [_parse_elem(kind, alpha, t) for t in texts]
    leq = dickson.leq if kind == "vec" else words.leq_e
    pair = orders.find_good_pair(seq, leq)
    if pair is None:
        print("bad")
        return 1
    i, j = pair
    print(f"good pair: {i} {j}")
    print(f"  {_show(seq[i])} <= {_show(seq[j])}")
    return 0


def _cmd_up_normalize(ns) -> int:
    toks = _load_block(ns.file)
    kind, alpha = _carrier(toks, ns.alphabet)
    print(upset.format_upset_block(_mk_upset(kind, alpha, toks)))
    return 0


def _cmd_up_member(ns) -> int:
    toks = _load_block(ns.file)
    kind, alpha = _carrier([ns.element, *toks], ns.alphabet)
    x = _mk_upset(kind, alpha, toks)
    return _bool_line(x.member(_parse_elem(kind, alpha, ns.element)))


def _cmd_up_includes(ns) -> int:
    toks_x = _load_block(ns.big)
    toks_y = _load_block(ns.small)
    kind, alpha = _carrier(toks_x + toks_y, ns.alphabet)
    x = _mk_upset(kind, alpha, toks_x)
    y = _mk_upset(kind, alpha, toks_y)
    return _bool_line(x.includes(y))


def _cmd_up_union(ns) -> int:
    toks_x = _load_block(ns.left)
    toks_y = _load_block(ns.right)
    kind, alpha = _carrier(toks_x + toks_y, ns.alphabet)
    x = _mk_upset(kind, alpha, toks_x)
    y = _mk_upset(kind, alpha, toks_y)
    print(upset.format_upset_block(x.union(y)))
    return 0


def _cmd_up_intersect(ns) -> int:
    toks_x = _load_block(ns.left)
    toks_y = _load_block(ns.right)
    if not toks_x and not toks_y:
        print(upset.format_upset_block(upset.dickson_upset()))
        return 0
    kind, _ = _carrier(toks_x + toks_y, None)
    if kind != "vec":
        raise CliError("intersect is available for vector upsets only")
    x = _mk_upset(kind, None, toks_x)
    y = _mk_upset(kind, None, toks_y)
    print(upset.format_upset_block(upset.intersect_dickson(x, y)))
    return 0


def _cmd_up_quotient(ns) -> int:
    toks = _load_block(ns.file)
    # index-form upsets name their letters "1".."m"; pooling such a name
    # into alphabet inference would read as a letter-form word, so skip it
    pool = not any(t.strip().startswith("[") for t in toks)
    kind, alpha = _carrier(toks, ns.alphabet, letter_names=[ns.letter] if pool else [])
    x = _mk_upset(kind, alpha, toks)
    print(upset.format_upset_block(upset.quotient(alpha.index(ns.letter), x)))
    return 0


def _cmd_up_som(ns) -> int:
    toks = _load_block(ns.file)
    kind, alpha = _carrier(toks, ns.alphabet)
    if kind != "word":
        raise CliError("som is available for word upsets only")
    letters = sorted(upset.som(_mk_upset(kind, alpha, toks)))
    print("{" + ",".join(alpha.names[l] for l in letters) + "}")
    return 0


def _cmd_up_phi_slice(ns) -> int:
    toks = _load_block(ns.file)
    kind, _ = _carrier([*toks, ns.point], None)
    if kind != "vec":
        raise CliError("phi-slice is available for vector upsets only")
    f = _mk_upset(kind, None, toks)
    value = upset.phi_slice(f, dickson.parse_vec(ns.point))
    print("inf" if value == upset.INF else str(int(value)))
    return 0


def _cmd_embed(ns) -> int:
    if not dickson.is_decimal(ns.range):
        raise CliError(f"range must be a number, got {ns.range!r}")
    hi = int(ns.range)
    if ns.name == "dickson-to-word":
        points = list(product(range(hi + 1), repeat=ns.dim))
        f = transport.dickson_word_embedding(ns.dim)
        total = len(points) ** 2
        pairs = product(points, points)
    elif ns.name == "word-to-labeled":
        alpha = Alphabet.from_letters(ns.alphabet or "ab")
        ws = [
            Word(alpha, ls)
            for n in range(hi + 1)
            for ls in product(range(alpha.size), repeat=n)
        ]
        f = transport.labeling_embedding()
        total = len(ws) ** 2
        pairs = product(ws, ws)
    else:
        raise CliError(
            f"unknown embedding {ns.name!r}; "
            f"known: dickson-to-word, word-to-labeled"
        )
    ok, witness = transport.check_quasi_embedding(f, pairs)
    if ok:
        print("true")
        print(f"  {f.name}: order reflected on {total} pairs")
        return 0
    a1, a2 = witness
    print("false")
    print(f"  counterexample: {_show(a1)}, {_show(a2)}")
    return 1


def _cmd_cover(ns) -> int:
    query = coverability.parse_net(Path(ns.netfile).read_text())
    result = coverability.backward_cover(query, max_iterations=ns.max_iterations)
    print(f"coverable: {'true' if result.coverable else 'false'}")
    print(f"iterations: {result.iterations}")
    print(upset.format_upset_block(result.basis, "basis"))
    if ns.oracle_bound is not None:
        bound = dickson.parse_vec(ns.oracle_bound)
        oracle = coverability.forward_cover_oracle(query, bound)
        if oracle and not result.coverable:
            print("oracle: true")
            print(
                "error: forward oracle covers the target but the backward "
                "analysis says unreachable",
                file=sys.stderr,
            )
            return 2
        if not oracle and result.coverable:
            print(f"oracle: false (inconclusive under bound {ns.oracle_bound})")
        else:
            print(f"oracle: {'true' if oracle else 'false'}")
    return 0 if result.coverable else 1


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqokit",
        description="Embedding orders, upward closed sets, and coverability.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("order", help="compare two elements")
    p.add_argument("relation", choices=["leq-e", "leq-E", "dickson"])
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--alphabet")
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("seq", help="analyze a sequence file")
    seqsub = p.add_subparsers(dest="op", required=True)
    q = seqsub.add_parser("good-pair", help="first i<j with seq[i] <= seq[j]")
    q.add_argument("file")
    q.add_argument("--alphabet")
    q.set_defaults(handler=_cmd_seq)

    p = sub.add_parser("upset", help="upward closed set algebra")
    upsub = p.add_subparsers(dest="op", required=True)

    q = upsub.add_parser("normalize", help="canonical form of a block")
    q.add_argument("file")
    q.add_argument("--alphabet")
    q.set_defaults(handler=_cmd_up_normalize)

    q = upsub.add_parser("member", help="element membership")
    q.add_argument("element")
    q.add_argument("file")
    q.add_argument("--alphabet")
    q.set_defaults(handler=_cmd_up_member)

    q = upsub.add_parser("includes", help="is the second set within the first")
    q.add_argument("big")
    q.add_argument("small")
    q.add_argument("--alphabet")
    q.set_defaults(handler=_cmd_up_includes)

    q = upsub.add_parser("union", help="union of two upsets")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--alphabet")
    q.set_defaults(handler=_cmd_up_union)

    q = upsub.add_parser("intersect", help="intersection of vector upsets")
    q.add_argument("left")
    q.add_argument("right")
    q.set_defaults(handler=_cmd_up_intersect)

    q = upsub.add_parser("quotient", help="left quotient of a word upset")
    q.add_argument("letter")
    q.add_argument("file")
    q.add_argument("--alphabet")
    q.set_defaults(handler=_cmd_up_quotient)

    q = upsub.add_parser("som", help="starting letters of minimal elements")
    q.add_argument("file")
    q.add_argument("--alphabet")
    q.set_defaults(handler=_cmd_up_som)

    q = upsub.add_parser("phi-slice", help="least last coordinate over a prefix")
    q.add_argument("file")
    q.add_argument("point")
    q.set_defaults(handler=_cmd_up_phi_slice)

    p = sub.add_parser("embed", help="verify a quasi-embedding on a range")
    p.add_argument("action", choices=["check"])
    p.add_argument("name")
    p.add_argument("range", help="per-coordinate max (vectors) or max length (words)")
    p.add_argument("--alphabet")
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("cover", help="backward coverability on a net file")
    p.add_argument("netfile")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--oracle-bound", help="vector bound enabling the forward cross-check")
    p.set_defaults(handler=_cmd_cover)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return ns.handler(ns)
    except (CliError, ValueError, OSError, coverability.SaturationLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
