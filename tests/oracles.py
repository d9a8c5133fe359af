"""Hand-rolled reference implementations the tests check the library against.

Everything here recomputes answers from first principles, independently
of the library's algorithms: the recursive embedding definition instead
of the greedy matcher, raw generator scans instead of normalized
antichains, forward firing instead of backward saturation.
"""

from __future__ import annotations

from itertools import combinations, product


def embeds_recursive(u: tuple, v: tuple, memo: dict) -> bool:
    """Recursive embedding: empty embeds everywhere; otherwise strip the
    head letter at each of its occurrences in v and recurse."""
    if not u:
        return True
    key = (u, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    head, rest = u[0], u[1:]
    ok = any(
        v[i] == head and embeds_recursive(rest, v[i + 1:], memo)
        for i in range(len(v))
    )
    memo[key] = ok
    return ok


def flag_occurrences(t: tuple) -> tuple:
    """Letter a at position i becomes 2a, or 2a+1 if a occurs before i."""
    return tuple(2 * a + (a in t[:i]) for i, a in enumerate(t))


def vec_le(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def box(hi: int, m: int) -> list:
    """All vectors of dimension m with entries 0..hi."""
    return list(product(range(hi + 1), repeat=m))


def words_upto(k: int, max_len: int) -> list:
    """All letter tuples over {0..k-1}, lengths 0..max_len."""
    return [w for n in range(max_len + 1) for w in product(range(k), repeat=n)]


def vec_points(gens, universe) -> frozenset:
    """Extension within a universe of the upset generated by raw vectors."""
    return frozenset(p for p in universe if any(vec_le(g, p) for g in gens))


def word_points(gens, universe, memo) -> frozenset:
    """Extension within a universe of the upset generated by letter tuples."""
    return frozenset(
        w for w in universe if any(embeds_recursive(g, w, memo) for g in gens)
    )


def minimal_elements(elems, leq) -> set:
    distinct = set(elems)
    return {
        x for x in distinct if not any(y != x and leq(y, x) for y in distinct)
    }


def first_good_pair(seq, leq):
    """Plain double scan for the first i < j with seq[i] <= seq[j]."""
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if leq(seq[i], seq[j]):
                return (i, j)
    return None


def pair_tag(a, b, leq) -> str:
    ab, ba = leq(a, b), leq(b, a)
    if ab and ba:
        return "eq"
    if ab:
        return "lt"
    if ba:
        return "gt"
    return "none"


# shape priority used by smallest_homogeneous, matching the library's
TAG_ORDER = ("eq", "gt", "lt", "none")


def smallest_homogeneous(seq, k, leq):
    """Exhaustive subsequence search with priority and lexicographic ties."""
    if k > len(seq):
        return None
    for tag in TAG_ORDER:
        for idxs in combinations(range(len(seq)), k):
            if all(
                pair_tag(seq[i], seq[j], leq) == tag
                for i, j in combinations(idxs, 2)
            ):
                return idxs, tag
    return None


def phi_slice_scan(gens, a):
    """Scan the last coordinate upward against raw membership.

    Once c exceeds every generator's last component the answer cannot
    change, so the scan stops at that bound; None stands for infinity.
    """
    if not gens:
        return None
    top = max(g[-1] for g in gens) + 1
    for c in range(top + 1):
        if any(vec_le(g, a + (c,)) for g in gens):
            return c
    return None


def pre_points(gens, consume, produce, universe) -> frozenset:
    """Markings in the universe from which one firing lands above a generator."""
    out = set()
    for p in universe:
        if not vec_le(consume, p):
            continue
        succ = tuple(x - c + q for x, c, q in zip(p, consume, produce))
        if any(vec_le(g, succ) for g in gens):
            out.add(p)
    return frozenset(out)


def pre_image(g, consume, produce) -> tuple:
    """The least marking from which one firing lands above g: max(g - delta, consume)."""
    return tuple(max(x - (p - c), c) for x, c, p in zip(g, consume, produce))


def forward_covers(transitions, initial, target, bound) -> bool:
    """Whether plain firing from initial, inside the box below bound, covers target.

    transitions are (consume, produce) pairs. A transition fires from a
    marking that dominates its consume vector; markings outside the box
    are never entered, so a false answer holds only within the box.
    """
    seen = {tuple(initial)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for m in frontier:
            if vec_le(target, m):
                return True
            for consume, produce in transitions:
                if not vec_le(consume, m):
                    continue
                succ = tuple(x - c + p for x, c, p in zip(m, consume, produce))
                if vec_le(succ, bound) and succ not in seen:
                    seen.add(succ)
                    fresh.append(succ)
        frontier = fresh
    return False


def rand_vec(rng, m: int, hi: int) -> tuple:
    return tuple(rng.randint(0, hi) for _ in range(m))


def rand_letters(rng, k: int, max_len: int) -> tuple:
    return tuple(rng.randrange(k) for _ in range(rng.randint(0, max_len)))
