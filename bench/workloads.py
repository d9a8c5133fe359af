"""The benchmark's workloads: seeded inputs, timed operations and referees.

Each workload builds a pool of operations from its seed. One pass runs
every operation of the pool once; the timed phase repeats whole passes.
An operation returns the library's result; after the timed phase the
referee checks each pool item's first result against an answer the
benchmark computes itself, never with the code under test. The referees
use the hand-written oracles in tests/oracles.py where they fit.

Sizes are fixed per workload and only the content depends on the seed,
so the work in a pass, and hence every timing, is nearly the same for
every seed.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ROOT / "tests" / "oracles.py"

# Caps on inputs whose size is computed before they are built.
ENUM_CAP = 200_000  # candidate markings the chain referee may enumerate
PAIRS_CAP = 10_000  # pairs an exhaustive quasi-embedding range may hold
MAX_ITERATIONS = 200  # saturation rounds any cover operation may take


def load_oracles():
    spec = importlib.util.spec_from_file_location("wqokit_bench_oracles", ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], bool]  # referee for its result
    show: Callable[[Any], str]  # canonical text of its result, for the digest


@dataclass
class ProcItem:
    argv: list[str]  # arguments after `python -m wqokit.cli`
    check: Callable[[int, str], bool]  # referee for (exit code, stdout)


def vec_text(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def block_text(gens) -> str:
    """Canonical `upset { ... }` block as the CLI prints it, newline included."""
    return "".join(["upset {\n", *(f"  {vec_text(g)}\n" for g in gens), "}\n"])


def bool_out(value: bool) -> tuple[int, str]:
    return (0, "true\n") if value else (1, "false\n")


def flag(word: tuple) -> tuple:
    """First-occurrence flagging of a letter tuple: letter a becomes 2a or 2a+1."""
    seen: set = set()
    out = []
    for a in word:
        out.append(2 * a + (a in seen))
        seen.add(a)
    return tuple(out)


# ====================================================================
# cover-deep: backward_cover on seeded chain nets
# ====================================================================

# (branchings, target above the reachable maximum?, copies).  A chain
# with stages b_0..b_{k-1} has k+1 places; stage i turns one token of
# place i into b_i tokens of place i+1.  A branching of 0 is drawn from
# the seed (2 or 3); the seed also orders the pool.  Places keep their
# chain order: relabelling them reorders the canonical basis, which moves
# an operation's cost by up to a quarter.  The ten copies of (3,2,2) hold
# the median operation and the three of (2,2,3,2) the 90th percentile, so
# that each percentile falls inside a block of equal-cost operations. The
# deepest net has a basis of 144 generators.
CHAIN_SHAPES = (
    ((2, 0), 0, 2), ((2, 0), 1, 2), ((3, 0), 0, 2), ((3, 0), 1, 2),
    ((2, 2, 0), 0, 2), ((2, 3, 0), 0, 2),
    ((3, 2, 2), 0, 10),
    ((2, 2, 0), 1, 2), ((3, 3, 0), 1, 2),
    ((2, 2, 2, 2), 0, 1), ((2, 2, 2, 2), 1, 1), ((2, 2, 3, 2), 0, 1),
    ((2, 2, 3, 2), 1, 3), ((2, 3, 2, 2), 1, 1), ((3, 2, 3, 2), 1, 1),
)


def chain_weights(branchings) -> tuple[int, ...]:
    """Tokens on the last place that one token on each place can become."""
    w = [1]
    for b in reversed(branchings):
        w.insert(0, w[0] * b)
    return tuple(w)


def chain_candidates(weights, target: int) -> int:
    """Number of prefixes the minimal-solution enumeration visits at most."""
    return math.prod(-(-target // w) + 1 for w in weights[:-1])


def chain_min_solutions(weights, target: int) -> set[tuple]:
    """Minimal m with sum(m_i * w_i) >= target, for weights ending in 1.

    A marking m covers the target on the last place exactly when its
    tokens can become at least `target` tokens there, so these are the
    minimal coverable markings, in chain coordinates.
    """
    if chain_candidates(weights, target) > ENUM_CAP:
        raise ValueError(f"chain {weights} with target {target} is too large")
    n = len(weights)
    out: set[tuple] = set()

    def rec(i: int, acc: int, prefix: tuple) -> None:
        if i == n - 1:
            m = prefix + (max(0, target - acc),)
            total = acc + m[-1]
            if all(total - weights[j] < target for j in range(n) if m[j]):
                out.add(m)
            return
        top = -(-(target - acc) // weights[i]) if acc < target else 0
        for k in range(top + 1):
            rec(i + 1, acc + k * weights[i], prefix + (k,))

    rec(0, 0, ())
    return out


@dataclass
class ChainNet:
    branchings: tuple[int, ...]
    extra: int  # target = reachable maximum + extra

    @property
    def places(self) -> int:
        return len(self.branchings) + 1

    @property
    def weights(self) -> tuple[int, ...]:
        return chain_weights(self.branchings)

    @property
    def target_tokens(self) -> int:
        return self.weights[0] + self.extra

    def unit(self, pos: int, k: int = 1) -> tuple:
        return tuple(k if i == pos else 0 for i in range(self.places))

    def transitions(self):
        """(name, consume, produce) per stage."""
        return [
            (f"t{i}", self.unit(i), self.unit(i + 1, b))
            for i, b in enumerate(self.branchings)
        ]

    @property
    def initial(self) -> tuple:
        return self.unit(0)

    @property
    def target(self) -> tuple:
        return self.unit(self.places - 1, self.target_tokens)

    def text(self) -> str:
        lines = [f"places {self.places}"]
        lines += [
            f"transition {n} consume {vec_text(c)} produce {vec_text(p)}"
            for n, c, p in self.transitions()
        ]
        lines += [f"initial {vec_text(self.initial)}", f"target {vec_text(self.target)}"]
        return "\n".join(lines) + "\n"

    def expected(self) -> tuple[bool, set[tuple]]:
        """Reference verdict and minimal coverable markings."""
        return self.extra == 0, chain_min_solutions(self.weights, self.target_tokens)

    def verdict_ok(self, coverable: bool, gens: tuple) -> bool:
        """Verdict, canonical order and basis against the minimal solutions.

        When saturation stops early (coverable) the basis may be partial,
        so it must be a subset holding the initial marking; otherwise it
        is the whole set of minimal solutions.
        """
        want, sols = self.expected()
        if coverable != want or list(gens) != sorted(set(gens)):
            return False
        if coverable:
            return set(gens) <= sols and self.initial in gens
        return set(gens) == sols


def random_chain(rng: random.Random, shape, extra) -> ChainNet:
    return ChainNet(tuple(b or rng.choice((2, 3)) for b in shape), extra)


def parse_cover_stdout(stdout: str):
    """(coverable, iterations, basis generators) from `wqokit cover` output."""
    lines = stdout.splitlines()
    if len(lines) < 4 or lines[2] != "upset basis {" or lines[-1] != "}":
        return None
    if lines[0] not in ("coverable: true", "coverable: false"):
        return None
    if not lines[1].startswith("iterations: "):
        return None
    gens = []
    for line in lines[3:-1]:
        body = line.strip()
        if not (body.startswith("(") and body.endswith(")")):
            return None
        gens.append(tuple(int(x) for x in body[1:-1].split(",")))
    return lines[0] == "coverable: true", int(lines[1].split()[1]), tuple(gens)


class CoverDeep:
    name = "cover-deep"
    modules = ("wqokit",)

    def __init__(self, seed: int, workdir: Path, orc):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.nets = [
            random_chain(self.rng, shape, extra)
            for shape, extra, copies in CHAIN_SHAPES
            for _ in range(copies)
        ]
        self.rng.shuffle(self.nets)

    def build(self, wq):
        cov = wq.coverability
        pool, warm = [], []
        for net in self.nets:
            bound = chain_candidates(net.weights, net.target_tokens)
            if bound > ENUM_CAP:
                raise ValueError(f"net {net} exceeds the size cap")
            query = cov.CoverQuery(
                cov.Vas(net.places, tuple(cov.Transition(*t) for t in net.transitions())),
                net.initial,
                net.target,
            )

            def run(query=query, bound=bound):
                return cov.backward_cover(
                    query, max_iterations=MAX_ITERATIONS, max_basis=bound
                )

            op = Op(
                f"chain{net.places}",
                run,
                lambda r, net=net: net.verdict_ok(r.coverable, r.basis.gens),
                lambda r: f"{r.coverable}|{r.iterations}|"
                + ";".join(vec_text(g) for g in r.basis.gens),
            )
            pool.append(op)
            if net.places == 3:
                warm.append(op)
        return pool, warm

    def proc_items(self):
        net = next(n for n in self.nets if n.branchings == (3, 2, 2))
        path = self.workdir / "chain.net"
        path.write_text(net.text())

        def check(code: int, stdout: str) -> bool:
            parsed = parse_cover_stdout(stdout)
            if parsed is None:
                return False
            coverable, _, gens = parsed
            return code == (0 if coverable else 1) and net.verdict_ok(coverable, gens)

        return [ProcItem(["cover", str(path)], check)]


# ====================================================================
# cli-batch: many small in-process `wqokit.cli.run` calls
# ====================================================================


def rand_vec(rng, m: int, hi: int) -> tuple:
    return tuple(rng.randint(0, hi) for _ in range(m))


def rand_word(rng, letters: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def word_tuple(text: str, letters: str = "abc") -> tuple:
    return tuple(letters.index(ch) for ch in text)


def rel_E(u: tuple, v: tuple, orc, memo) -> bool:
    """Support-sensitive embedding from first principles."""
    return set(u) == set(v) and orc.embeds_recursive(flag(u), flag(v), memo)


@dataclass
class SmallNet:
    places: int
    transitions: list  # (consume, produce)
    initial: tuple
    target: tuple

    def text(self) -> str:
        lines = [f"places {self.places}"]
        lines += [
            f"transition t{i} consume {vec_text(c)} produce {vec_text(p)}"
            for i, (c, p) in enumerate(self.transitions)
        ]
        lines += [f"initial {vec_text(self.initial)}", f"target {vec_text(self.target)}"]
        return "\n".join(lines) + "\n"


def small_net_check(net: SmallNet, cov, orc, code: int, stdout: str) -> bool:
    """Check a `wqokit cover` answer on a small net.

    The exit code must match the verdict, the basis must be an antichain
    in canonical order, and the verdict must agree with "some generator
    lies below the initial marking". A true verdict needs a covering run:
    the bounded forward search must find one in a box of 6, 12 or 24
    tokens per place. A false verdict needs a certificate: the basis
    holds the target and its upward closure is closed under one backward
    step, so it contains every marking that can cover the target. The
    markings from which t reaches above g are those v >= consume with
    v - consume + produce >= g; their least element must lie above a
    generator. A bounded forward miss alone proves nothing, since a
    covering run may leave the box even when the basis fits in it.
    """
    parsed = parse_cover_stdout(stdout)
    if parsed is None:
        return False
    coverable, _, gens = parsed
    if code != (0 if coverable else 1) or list(gens) != sorted(set(gens)):
        return False
    if any(g != h and orc.vec_le(g, h) for g in gens for h in gens):
        return False
    if coverable != any(orc.vec_le(g, net.initial) for g in gens):
        return False
    if coverable:
        query = cov.CoverQuery(
            cov.Vas(
                net.places,
                tuple(cov.Transition(f"t{i}", c, p) for i, (c, p) in enumerate(net.transitions)),
            ),
            net.initial,
            net.target,
        )
        return any(cov.forward_cover_oracle(query, (b,) * net.places) for b in (6, 12, 24))
    if not any(orc.vec_le(g, net.target) for g in gens):
        return False
    for c, p in net.transitions:
        for g in gens:
            least = tuple(max(ci, gi + ci - pi) for gi, ci, pi in zip(g, c, p))
            if not any(orc.vec_le(h, least) for h in gens):
                return False
    return True


class CliBatch:
    name = "cli-batch"
    modules = ("wqokit", "wqokit.cli")

    N_NETS = 120
    N_UPSETS = 16

    def __init__(self, seed: int, workdir: Path, orc):
        self.orc = orc
        self.workdir = workdir
        rng = self.rng = random.Random(f"{self.name}:{seed}")
        self.nets = []
        for _ in range(self.N_NETS):
            m = rng.randint(3, 4)
            ts = [(rand_vec(rng, m, 2), rand_vec(rng, m, 2)) for _ in range(rng.randint(2, 4))]
            self.nets.append(SmallNet(m, ts, rand_vec(rng, m, 2), rand_vec(rng, m, 2)))
        # vector upsets, raw generators: duplicates and dominated ones included
        self.upsets = []
        for i in range(self.N_UPSETS):
            m = 2 + i % 2
            self.upsets.append([rand_vec(rng, m, 4) for _ in range(rng.randint(3, 8))])
        self.vec_seqs = [
            [rand_vec(rng, 2, 5) for _ in range(rng.randint(6, 10))] for _ in range(6)
        ]
        self.word_seqs = [
            [rand_word(rng, "abc", 2, 6) for _ in range(rng.randint(6, 10))] for _ in range(6)
        ]
        self.orders = []
        for i in range(18):
            rel = ("dickson", "leq-e", "leq-E")[i % 3]
            if rel == "dickson":
                m = rng.randint(2, 4)
                self.orders.append((rel, vec_text(rand_vec(rng, m, 3)), vec_text(rand_vec(rng, m, 3))))
            else:
                self.orders.append((rel, rand_word(rng, "abc", 1, 4), rand_word(rng, "abc", 3, 8)))
        self.order_seed = rng.random()
        self.items = self._argv_items(workdir)
        # Input files are the client's, not the library's work: written
        # once here, outside the timed set-up. Each call parses them.
        self._write_inputs(workdir)

    # ---------------------------------------------------------- files

    def _write_inputs(self, d: Path) -> None:
        for i, net in enumerate(self.nets):
            (d / f"net{i}.txt").write_text(net.text())
        for i, gens in enumerate(self.upsets):
            body = "\n".join("  " + vec_text(g) for g in gens)
            (d / f"up{i}.txt").write_text(f"upset u{i} {{\n{body}\n}}\n")
        for i, seq in enumerate(self.vec_seqs):
            (d / f"vseq{i}.txt").write_text("\n".join(vec_text(v) for v in seq) + "\n")
        for i, seq in enumerate(self.word_seqs):
            (d / f"wseq{i}.txt").write_text("\n".join(seq) + "\n")

    def _argv_items(self, d: Path):
        """(kind, argv, referee) for every pool item.

        A referee takes the call's (exit code, stdout). Most compare it
        with the exact text the benchmark expects.
        """
        orc, rng, ups = self.orc, self.rng, self.upsets
        f = lambda name: str(d / name)  # noqa: E731

        def expect(want):
            return lambda r: r == want()

        def minimal(gens):
            return sorted(orc.minimal_elements(gens, orc.vec_le))

        def member(gens, e):
            return any(orc.vec_le(g, e) for g in gens)

        items = [
            ("cover", ["cover", f(f"net{i}.txt"), "--max-iterations", str(MAX_ITERATIONS)],
             lambda r, net=net: small_net_check(net, self.cov, orc, *r))
            for i, net in enumerate(self.nets)
        ]
        by_dim = {m: [i for i in range(self.N_UPSETS) if len(ups[i][0]) == m] for m in (2, 3)}
        for i in range(10):
            items.append(("normalize", ["upset", "normalize", f(f"up{i}.txt")],
                          expect(lambda i=i: (0, block_text(minimal(ups[i]))))))
        for _ in range(12):
            i = rng.randrange(self.N_UPSETS)
            e = rand_vec(rng, len(ups[i][0]), 4)
            items.append(("member", ["upset", "member", vec_text(e), f(f"up{i}.txt")],
                          expect(lambda i=i, e=e: bool_out(member(ups[i], e)))))
        for verb in ("includes", "union", "intersect"):
            for _ in range(8):
                i, j = rng.sample(by_dim[rng.choice((2, 3))], 2)
                if verb == "includes":
                    want = lambda i=i, j=j: bool_out(all(member(ups[i], g) for g in ups[j]))  # noqa: E731
                elif verb == "union":
                    want = lambda i=i, j=j: (0, block_text(minimal(ups[i] + ups[j])))  # noqa: E731
                else:
                    want = lambda i=i, j=j: (0, block_text(self._intersection(ups[i], ups[j])))  # noqa: E731
                items.append((verb, ["upset", verb, f(f"up{i}.txt"), f(f"up{j}.txt")], expect(want)))
        for _ in range(8):
            i = rng.choice(by_dim[3])
            a = rand_vec(rng, 2, 4)

            def slice_text(i=i, a=a):
                c = orc.phi_slice_scan(ups[i], a)
                return (0, "inf\n" if c is None else f"{c}\n")

            items.append(("phi-slice", ["upset", "phi-slice", f(f"up{i}.txt"), vec_text(a)],
                          expect(slice_text)))
        for rel, u, v in self.orders:
            items.append(("order", ["order", rel, u, v],
                          expect(lambda rel=rel, u=u, v=v: self._order(rel, u, v))))
        for i, seq in enumerate(self.vec_seqs):
            items.append(("seq", ["seq", "good-pair", f(f"vseq{i}.txt")],
                          expect(lambda seq=seq: self._pair_text(
                              orc.first_good_pair(seq, orc.vec_le), [vec_text(v) for v in seq]))))
        memo: dict = {}
        embeds = lambda a, b: orc.embeds_recursive(a, b, memo)  # noqa: E731
        for i, seq in enumerate(self.word_seqs):
            items.append(("seq", ["seq", "good-pair", f(f"wseq{i}.txt")],
                          expect(lambda seq=seq: self._pair_text(
                              orc.first_good_pair([word_tuple(w) for w in seq], embeds), seq))))
        return items

    def _intersection(self, x, y):
        orc = self.orc
        hi = max(c for g in x + y for c in g)
        universe = orc.box(hi, len(x[0]))
        points = orc.vec_points(x, universe) & orc.vec_points(y, universe)
        return sorted(orc.minimal_elements(points, orc.vec_le))

    def _order(self, rel, u, v):
        orc = self.orc
        if rel == "dickson":
            a = tuple(int(x) for x in u[1:-1].split(","))
            b = tuple(int(x) for x in v[1:-1].split(","))
            return bool_out(orc.vec_le(a, b))
        a, b = word_tuple(u), word_tuple(v)
        if rel == "leq-e":
            return bool_out(orc.embeds_recursive(a, b, {}))
        return bool_out(rel_E(a, b, orc, {}))

    @staticmethod
    def _pair_text(pair, shown):
        if pair is None:
            return (1, "bad\n")
        i, j = pair
        return (0, f"good pair: {i} {j}\n  {shown[i]} <= {shown[j]}\n")

    # ---------------------------------------------------------- ops

    def build(self, wq):
        cli = wq.cli
        self.cov = wq.coverability

        def runner(argv):
            def run():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
                return code, out.getvalue()

            return run

        pool = [
            Op(kind, runner(argv), check, lambda r: f"{r[0]}\n{r[1]}")
            for kind, argv, check in self.items
        ]
        random.Random(self.order_seed).shuffle(pool)
        return pool, pool[:8]

    def proc_items(self):
        return [
            ProcItem(
                ["cover", str(self.workdir / f"net{i}.txt"), "--max-iterations", str(MAX_ITERATIONS)],
                lambda code, out, net=self.nets[i]: small_net_check(net, self.cov, self.orc, code, out),
            )
            for i in range(3)
        ]


# ====================================================================
# words-query: library calls on the word carrier only
# ====================================================================

LETTERS = "abc"


def extend_word(rng, u: tuple, k: int) -> tuple:
    """Insert k letters of u, each after that letter's first occurrence.

    The result lies above u under both leq_e and leq_E: supports agree and
    the inserted letters only add flagged copies.
    """
    v = list(u)
    for _ in range(k):
        a = rng.choice(v)
        v.insert(rng.randint(v.index(a) + 1, len(v)), a)
    return tuple(v)


def exhaustive_words(k: int, max_len: int) -> int:
    return sum(k**n for n in range(max_len + 1))


class WordsQuery:
    name = "words-query"
    modules = ("wqokit",)

    N_UPSETS = 6
    ANTICHAIN = 20  # distinct words of one length: an antichain for both orders
    DOMINATED = 6  # extensions of those, dropped by normalization
    GEN_LEN = 6
    N_BATCHES = 30
    BATCH = 8

    def __init__(self, seed: int, workdir: Path, orc):
        self.orc = orc
        self.workdir = workdir
        rng = self.rng = random.Random(f"{self.name}:{seed}")
        self.raw = []  # raw generators of each upset, as letter tuples
        for _ in range(self.N_UPSETS):
            base: set = set()
            while len(base) < self.ANTICHAIN:
                base.add(tuple(rng.randrange(3) for _ in range(self.GEN_LEN)))
            base_l = sorted(base)
            rng.shuffle(base_l)
            dom = [extend_word(rng, rng.choice(base_l), 2) for _ in range(self.DOMINATED)]
            self.raw.append(base_l + dom)
        self.small = [  # subsets of the upsets above, for includes
            raw[: self.ANTICHAIN // 2] + [extend_word(rng, raw[0], 1)] for raw in self.raw
        ]
        # (upset index, batch of query words): half drawn above a generator.
        # A membership op answers a whole batch, which evens out the cost of
        # the short-circuiting scans between ops and between seeds.
        self.queries = []
        for k in range(self.N_BATCHES):
            i = k % self.N_UPSETS
            batch = []
            for b in range(self.BATCH):
                if b % 2:
                    batch.append(extend_word(rng, rng.choice(self.raw[i]), rng.randint(0, 3)))
                else:
                    batch.append(tuple(rng.randrange(3) for _ in range(rng.randint(6, 9))))
            self.queries.append((i, tuple(batch)))
        self.good_seqs = [
            [tuple(rng.randrange(3) for _ in range(rng.randint(3, 6))) for _ in range(10)]
            for _ in range(12)
        ]
        self.homog_seqs = [
            [tuple(rng.randrange(3) for _ in range(rng.randint(2, 4))) for _ in range(8)]
            for _ in range(12)
        ]
        self.pairs = []
        for _ in range(3):
            u = tuple(rng.randrange(3) for _ in range(rng.randint(3, 5)))
            self.pairs.append((u, extend_word(rng, u, 2)))
        self.order_seed = rng.random()

    # ---------------------------------------------------------- referee helpers

    def _E(self, u, v):
        return rel_E(u, v, self.orc, self.memo_E)

    def _e(self, u, v):
        return self.orc.embeds_recursive(u, v, self.memo_e)

    def _member(self, rel, gens, w) -> bool:
        return any(rel(g, w) for g in gens)

    def _quotient_ok(self, a: int, raw, gens) -> bool:
        """gens must be exactly the minimal words w with a.w above raw.

        Each generator lies in the quotient, deleting any one of its
        letters leaves it, and every word of a sample that lies in the
        quotient lies above a generator. The sample holds every raw
        generator, its tail, and random words.
        """
        e = self._e
        inside = lambda w: self._member(e, raw, (a,) + w)  # noqa: E731
        for g in gens:
            if not inside(g):
                return False
            if any(inside(g[:i] + g[i + 1:]) for i in range(len(g))):
                return False
        if list(gens) != sorted(set(gens), key=lambda g: (len(g), g)):
            return False
        rng = random.Random(f"{a}:{raw}")
        sample = list(raw) + [g[1:] for g in raw]
        sample += [tuple(rng.randrange(3) for _ in range(rng.randint(3, 7))) for _ in range(40)]
        return all(self._member(e, gens, w) for w in sample if inside(w))

    # ---------------------------------------------------------- ops

    def build(self, wq):
        wd, up, od, tr = wq.words, wq.upset, wq.orders, wq.transport
        orc = self.orc
        self.memo_e, self.memo_E = {}, {}
        alpha = wd.Alphabet.from_letters(LETTERS)
        W = lambda t: wd.Word(alpha, t)  # noqa: E731
        gens_of = lambda x: tuple(g.letters for g in x.gens)  # noqa: E731
        xe = [up.word_upset([W(t) for t in raw]) for raw in self.raw]
        xE = [up.UpSet(wd.leq_E, [W(t) for t in raw]) for raw in self.raw]
        xL = [tr.transport_upset(tr.labeling_embedding(), x) for x in xE]
        ye = [up.word_upset([W(t) for t in raw]) for raw in self.small]
        yE = [up.UpSet(wd.leq_E, [W(t) for t in raw]) for raw in self.small]
        E, e = self._E, self._e
        pool: list[Op] = []
        show_bool = lambda r: "true" if r else "false"  # noqa: E731
        show_bools = lambda r: "".join("1" if b else "0" for b in r)  # noqa: E731
        for i, batch in self.queries:
            ws = [W(t) for t in batch]
            lws = [wd.phi(w) for w in ws]
            raw = self.raw[i]
            for kind, x, args, rel in (("member_e", xe[i], ws, e), ("member_E", xE[i], ws, E),
                                       ("member_L", xL[i], lws, E)):
                pool.append(Op(kind, lambda x=x, args=args: tuple(x.member(a) for a in args),
                               lambda r, raw=raw, batch=batch, rel=rel:
                               r == tuple(self._member(rel, raw, t) for t in batch),
                               show_bools))
        for i in range(self.N_UPSETS):
            j = (i + 1) % self.N_UPSETS
            for rel, xs, ys, kind in ((e, xe, ye, "includes_e"), (E, xE, yE, "includes_E")):
                for big, small, rb, rs in ((xs[i], ys[i], self.raw[i], self.small[i]),
                                           (xs[i], ys[j], self.raw[i], self.small[j])):
                    pool.append(Op(kind, lambda big=big, small=small: big.includes(small),
                                   lambda r, rel=rel, rb=rb, rs=rs: r == all(self._member(rel, rb, g) for g in rs),
                                   show_bool))
            for a in range(3):
                pool.append(Op("quotient", lambda a=a, x=xe[i]: up.quotient(a, x),
                               lambda r, a=a, raw=self.raw[i]: self._quotient_ok(a, raw, gens_of(r)),
                               lambda r: ";".join(map(str, gens_of(r)))))
            for kind, xs, rel in (("som_e", xe, e), ("som_E", xE, E)):
                pool.append(Op(kind, lambda x=xs[i]: up.som(x),
                               lambda r, raw=self.raw[i], rel=rel: r == {g[0] for g in orc.minimal_elements(raw, rel) if g},
                               lambda r: str(sorted(r))))
            raw = self.raw[i]
            words = [W(t) for t in raw]

            def expect_L(raw=raw):
                mins = orc.minimal_elements(raw, E)
                return sorted(((flag(g), tuple(sorted(set(g)))) for g in mins),
                              key=lambda p: (len(p[0]), p[0], p[1]))

            pool.append(Op("build_E",
                           lambda words=words: tr.transport_upset(tr.labeling_embedding(), up.UpSet(wd.leq_E, words)),
                           lambda r, expect_L=expect_L: [(g.word.letters, tuple(sorted(g.support))) for g in r.gens] == expect_L(),
                           lambda r: ";".join(f"{g.word.letters}{sorted(g.support)}" for g in r.gens)))
        for seq in self.good_seqs:
            ws = [W(t) for t in seq]
            pool.append(Op("good_pair", lambda ws=ws: od.find_good_pair(ws, wd.leq_E),
                           lambda r, seq=seq: r == orc.first_good_pair(seq, E), str))
        tag = {"constant": "eq", "descending": "gt", "ascending": "lt", "antichain": "none"}
        for seq in self.homog_seqs:
            ws = [W(t) for t in seq]

            def check_h(r, seq=seq):
                want = orc.smallest_homogeneous(seq, 3, E)
                got = None if r is None else (tuple(r.indices), tag[r.shape.value])
                return got == want

            pool.append(Op("homogeneous", lambda ws=ws: od.homogeneous_subsequence(ws, 3, wd.leq_E),
                           check_h, lambda r: "none" if r is None else f"{r.indices}{r.shape.value}"))
        # exhaustive ranges; their size is computed before they are built
        for letters, max_len in (("ab", 3), ("abc", 2)):
            if exhaustive_words(len(letters), max_len) ** 2 > PAIRS_CAP:
                raise ValueError("quasi-embedding range too large")
            alpha_q = wd.Alphabet.from_letters(letters)
            ws = [
                wd.Word(alpha_q, t)
                for n in range(max_len + 1)
                for t in product(range(len(letters)), repeat=n)
            ]
            pool.append(Op("quasi", lambda ws=ws: tr.check_quasi_embedding(
                               tr.labeling_embedding(), product(ws, ws)),
                           lambda r: r == (True, None), str))
        random.Random(self.order_seed).shuffle(pool)
        warm = [op for op in pool if op.kind == "member_e"][:20]
        return pool, warm

    def proc_items(self):
        def item(u, v):
            us, vs = "".join(LETTERS[a] for a in u), "".join(LETTERS[a] for a in v)
            return ProcItem(["order", "leq-E", us, vs],
                            lambda code, out: (code, out) == bool_out(self._E(u, v)))

        u0, v0 = self.pairs[0]
        return [item(u, v) for u, v in self.pairs] + [item(v0, u0)]


WORKLOADS = {w.name: w for w in (CoverDeep, CliBatch, WordsQuery)}
