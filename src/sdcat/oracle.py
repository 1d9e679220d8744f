"""Brute-force reference implementations for conformance testing.

Everything here computes from definitions on bounded instances: word
enumeration for surjectivity, integer-coded periodic orbits for
injectivity on periodic points, pair BFS for diamonds, exhaustive rule
search for sections.  The point is independence from the decision engine,
so these deliberately avoid the canonical-automaton machinery.
"""

from __future__ import annotations

from itertools import product as iproduct

from .core import (BlockMap, EventuallyPeriodicPoint, PeriodicPoint, Presentation, _block_map,
                   apply_map, apply_map_ep, compose, full_shift, identity_map, make_block_map,
                   maps_equal)
from .errors import ValidationError, check_budget
from .records import record

# numpy is imported inside the functions that use it, so that importing the
# CLI, which imports this module, does not load it.

Word = tuple[str, ...]


@record
class EnumerationSpec:
    source: Presentation
    target: Presentation
    radius: int = 1


def enumerate_block_maps(spec: EnumerationSpec):
    """All block maps of the given radius, in deterministic rule order."""
    src, tgt, r = spec.source, spec.target, spec.radius
    windows = src.words(2 * r + 1)
    out_syms = sorted(a for a in tgt.alphabet if tgt.contains_word((a,)))
    check_budget(len(out_syms) ** len(windows), "block map enumeration")
    # the values are listed in words order, so they need no rule dict
    for values in iproduct(out_syms, repeat=len(windows)):
        try:
            yield _block_map(src, tgt, r, values)
        except ValidationError:
            continue


# ---------------------------------------------------------------------------
# Integer-coded brute force on binary full shifts


def _binary_rule_table(f: BlockMap) -> np.ndarray:
    import numpy as np

    w = f.width()
    table = np.zeros(2**w, dtype=np.int64)
    for word, val in f.rule_dict.items():
        idx = 0
        for s in word:
            idx = (idx << 1) | int(s)
        table[idx] = int(val)
    return table


def _binary_images_of_period(f: BlockMap, p: int) -> np.ndarray:
    """Images of all words of length p under the induced map on p-periodic
    points of the binary full shift, as integers."""
    import numpy as np

    table = _binary_rule_table(f)
    w = f.width()
    us = np.arange(2**p, dtype=np.int64)
    bits = [(us >> (p - 1 - i)) & 1 for i in range(p)]

    def bit(i):
        return bits[i % p]

    out = np.zeros_like(us)
    r = f.radius
    for i in range(p):
        idx = np.zeros_like(us)
        for j in range(-r, r + 1):
            idx = (idx << 1) | bit(i + j)
        out = (out << 1) | table[idx]
    return out


def brute_injective_on_periodic(f: BlockMap, period_bound: int = 16) -> bool:
    """Injectivity of the induced maps on p-periodic points, p <= bound.

    Only implemented for binary full-shift endomorphisms (the census
    class); distinct length-p words are distinct points, so injectivity is
    just table injectivity."""
    import numpy as np

    _require_binary_full(f)
    for p in range(1, period_bound + 1):
        imgs = _binary_images_of_period(f, p)
        if np.bincount(imgs).max() > 1:
            return False
    return True


def _binary_image_words(f: BlockMap, length: int) -> np.ndarray:
    import numpy as np

    r = f.radius
    w = f.width()
    total = length + 2 * r
    # int32 words halve the memory traffic of every shift below
    dtype = np.int32 if total < 32 else np.int64
    table = _binary_rule_table(f).astype(dtype)
    us = np.arange(2**total, dtype=dtype)
    mask = (1 << w) - 1
    idx = (us >> (total - w)) & mask
    out = table[idx].copy()
    for i in range(1, length):
        idx = ((idx << 1) | ((us >> (total - w - i)) & 1)) & mask
        out = (out << 1) | table[idx]
    return out


def brute_surjective(f: BlockMap, length: int | None = None) -> bool:
    """Word-level surjectivity.

    The default length dominates the size of any determinization of the
    image cover, so the check is exact for the instances used here; a
    binary full-shift source takes the integer-coded path.  Lengths run up
    to it from 1 and stop at the first missed target word: target words
    extend and image words are factorial, so a miss stays a miss."""
    import numpy as np

    src, tgt = f.source, f.target
    binary = set(src.alphabet) == {"0", "1"} and src.dfa.n == 1
    if length is None:
        cover = max(1, len(src.words(2 * f.radius))) if f.radius else src.n_live()
        length = 2 ** min(cover, 4) + tgt.dfa.n + 1
    for n in range(1, length + 1):
        if binary and set(tgt.alphabet) == {"0", "1"}:
            hit = np.bincount(_binary_image_words(f, n), minlength=2**n) > 0
            if tgt.dfa.n == 1 and tgt.count_words(1) == 2:
                onto = bool(hit.all())
            else:
                onto = all(hit[int("".join(w), 2)] for w in tgt.words(n))
        else:
            r = f.radius
            seen = {tuple(f.local(w[i : i + f.width()]) for i in range(n))
                    for w in src.words(n + 2 * r)}
            onto = set(tgt.words(n)) <= seen
        if not onto:
            return False
    return True


def brute_preinjective(f: BlockMap) -> bool:
    """Diamond search by direct pair BFS over de Bruijn window pairs.

    A diamond is a pair of equal-image paths that agree before and after a
    finite window.  Exact for full-shift sources."""
    r = f.radius
    x = f.source
    if r == 0:
        blocks = [w for w in x.words(1)]
        start_pairs = {(b, b) for b in blocks}
        step_words = x.words(2)

        def succs(pair):
            a, b = pair
            for w1 in step_words:
                if w1[0] != a[0]:
                    continue
                for w2 in step_words:
                    if w2[0] != b[0]:
                        continue
                    if f.local((w1[1],)) == f.local((w2[1],)):
                        yield ((w1[1],), (w2[1],))
    else:
        blocks = x.words(2 * r)
        start_pairs = {(b, b) for b in blocks}
        step_words = x.words(2 * r + 1)

        def succs(pair):
            a, b = pair
            for w1 in step_words:
                if w1[:-1] != a:
                    continue
                for w2 in step_words:
                    if w2[:-1] != b:
                        continue
                    if f.local(w1) == f.local(w2):
                        yield (w1[1:], w2[1:])

    reached = set(start_pairs)
    frontier = list(start_pairs)
    while frontier:
        nxt = []
        for pair in frontier:
            for p2 in succs(pair):
                if p2 not in reached:
                    reached.add(p2)
                    nxt.append(p2)
        frontier = nxt
    off = {p for p in reached if p[0] != p[1]}
    if not off:
        return True
    # can an off-diagonal reached pair come back to the diagonal?
    back = {p for p in reached if p[0] == p[1]}
    changed = True
    while changed:
        changed = False
        for pair in list(reached):
            if pair in back:
                continue
            for p2 in succs(pair):
                if p2 in back:
                    back.add(pair)
                    changed = True
                    break
    return not any(p in back and p[0] != p[1] for p in reached)


def brute_injective(f: BlockMap, period_bound: int = 16) -> bool:
    return brute_injective_on_periodic(f, period_bound) and brute_preinjective(f)


def brute_split_epic(f: BlockMap, radius_bound: int = 1) -> bool:
    """Exhaustive section search over all rules up to the radius bound."""
    idy = identity_map(f.target)
    for r in range(radius_bound + 1):
        spec = EnumerationSpec(f.target, f.source, radius=r)
        for g in enumerate_block_maps(spec):
            if maps_equal(compose(f, g), idy):
                return True
    return False


def ep_preimage_search(f: BlockMap, failing_tuple: dict, pad: int = 8):
    """Exhaustive bounded search for a preimage refuting a failing tuple.

    The tuple names periodic tail words (u, v), a middle word w, and the
    candidate preimage tails (a, b).  The search walks every preimage shape
    repeating a on the left and b on the right with paddings up to ``pad``,
    pruning prefixes whose induced image already disagrees with the point
    around w.  Returns a conforming preimage or None.
    """
    u, vv, w = failing_tuple["u"], failing_tuple["v"], failing_tuple["w"]
    a, b = failing_tuple["a"], failing_tuple["b"]
    x = f.source
    y_point = EventuallyPeriodicPoint(u, w, vv)
    r = f.radius
    for lp in range(0, pad + 1, len(u)):
        for rp in range(0, pad + 1, len(vv)):
            total = lp + len(w) + rp
            start = -lp
            stack = [()]
            while stack:
                prefix = stack.pop()
                if len(prefix) == total:
                    z = EventuallyPeriodicPoint(a, prefix, b, start)
                    if z.in_shift(x) and apply_map_ep(f, z).same_point(y_point):
                        return z
                    continue
                for sym in x.alphabet:
                    cand = prefix + (sym,)
                    if not _image_prefix_ok(f, a, cand, start, y_point, r):
                        continue
                    stack.append(cand)
    return None


def _image_prefix_ok(f, left_tail, prefix, start, y_point, r) -> bool:
    """Can the partial preimage still map onto the target point?"""
    n = len(prefix)

    def at(i):
        if i < start:
            return left_tail[(i - start) % len(left_tail)]
        j = i - start
        return prefix[j] if j < n else None

    # check image positions whose window is fully determined
    hi = start + n - r
    lo = max(start - 2 * r, start + n - r - 2)
    for pos in range(lo, hi):
        window = tuple(at(pos + k) for k in range(-r, r + 1))
        if any(s is None for s in window):
            continue
        if window not in f.rule_dict:
            return False
        if f.local(window) != y_point.at(pos):
            return False
    return True


def brute_same_period_preimages(f: BlockMap, period_bound: int = 6) -> bool:
    """Every periodic point of the target has a phase-aligned preimage of
    the same length."""
    for n in range(1, period_bound + 1):
        for u in f.target.words(n):
            if not f.target.contains_periodic(u):
                continue
            found = False
            for a in f.source.words(n):
                if f.source.contains_periodic(a) and apply_map(f, PeriodicPoint(a)).word == u:
                    found = True
                    break
            if not found:
                return False
    return True


def _require_binary_full(f: BlockMap) -> None:
    src = f.source
    if set(src.alphabet) != {"0", "1"} or src.dfa.n != 1:
        raise ValidationError("integer-coded brute force expects the binary full shift")


def brute_decide(prop: str, f: BlockMap, bounds: dict | None = None) -> bool:
    bounds = bounds or {}
    if prop == "epic" or prop == "surjective":
        return brute_surjective(f, bounds.get("length"))
    if prop == "injective":
        return brute_injective(f, bounds.get("period_bound", 16))
    if prop == "injective_on_periodic":
        return brute_injective_on_periodic(f, bounds.get("period_bound", 16))
    if prop == "preinjective":
        return brute_preinjective(f)
    if prop == "monic_k2":
        return brute_injective(f, bounds.get("period_bound", 16))
    if prop == "split_epic":
        return brute_split_epic(f, bounds.get("radius_bound", 1))
    if prop == "same_period_preimages":
        return brute_same_period_preimages(f, bounds.get("period_bound", 6))
    raise ValidationError(f"unknown brute property {prop!r}")


def census_radius1_binary(checks=("epic", "injective", "monic_k2", "preinjective")):
    """All 256 radius-1 endomorphisms of the binary full shift, with brute
    verdicts per requested check.  Yields (rule_bits, {check: bool})."""
    full = full_shift(["0", "1"])
    windows = full.words(3)
    for bits in range(256):
        rule = {w: str((bits >> i) & 1) for i, w in enumerate(windows)}
        f = make_block_map(full, full, 1, rule)
        row = {}
        for c in checks:
            row[c] = brute_decide(c, f)
        yield bits, f, row
