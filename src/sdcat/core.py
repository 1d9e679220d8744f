"""Finite representations of subshifts and sliding block codes.

A :class:`Presentation` stores the canonical minimal deterministic acceptor
of the factor language of a sofic shift, together with its *essential* part
(the states lying on bi-infinite paths).  The language of the acceptor is
``B(X) + epsilon``; the bi-infinite label sequences of the essential part
are exactly the points of the shift.  All higher constructions (images,
kernels, products, higher-block recodings) are built from these two views.

Every presentation comes out of :func:`presentation_from_nfa`; the derived
ones describe their shift as a labeled graph whose states are all initial
and accepting and hand its edges to :func:`presentation_from_edges`.

Words are tuples of symbol tokens.  Everything is immutable after
construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import automata as au
from .automata import Dfa, Nfa, Word
from .errors import ValidationError, DomainMismatch, check_budget


def make_alphabet(symbols) -> tuple[str, ...]:
    syms = tuple(str(s) for s in symbols)
    if len(set(syms)) != len(syms):
        raise ValidationError("alphabet symbols must be distinct")
    for s in syms:
        if not s or any(c.isspace() for c in s):
            raise ValidationError(f"bad symbol token: {s!r}")
    return syms


def pair_symbol(a: str, b: str) -> str:
    return f"({a},{b})"


def split_pair(token: str) -> tuple[str, str]:
    if not (token.startswith("(") and token.endswith(")")):
        raise ValidationError(f"not a pair token: {token!r}")
    body = token[1:-1]
    depth = 0
    for i, c in enumerate(body):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise ValidationError(f"not a pair token: {token!r}")


def block_symbol(word: Word) -> str:
    return "[" + "|".join(word) + "]"


def product_alphabet(left, right) -> tuple[str, ...]:
    return tuple(pair_symbol(a, b) for a in left for b in right)


# ---------------------------------------------------------------------------
# Presentations


@dataclass(frozen=True)
class Presentation:
    """A sofic shift, canonically presented.

    ``dfa`` is the minimal partial DFA of the factor language (all states
    accepting, initial state = empty context).  ``live`` is the set of
    states on bi-infinite paths; the subgraph on ``live`` presents the
    shift itself.  ``point`` is the designated uniform point used by the
    pointed categories, when one has been declared.
    """

    alphabet: tuple[str, ...]
    dfa: Dfa
    live: frozenset[int]
    point: str | None = None

    @cached_property
    def live_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.live))

    @cached_property
    def live_index(self) -> dict[int, int]:
        return {q: i for i, q in enumerate(self.live_list)}

    @cached_property
    def live_trans(self) -> tuple[dict[str, int], ...]:
        out = []
        for q in self.live_list:
            out.append(
                {a: self.live_index[p] for a, p in self.dfa.trans[q] if p in self.live}
            )
        return tuple(out)

    def is_empty(self) -> bool:
        return not self.live

    def estep(self, i: int, sym: str) -> int | None:
        return self.live_trans[i].get(sym)

    def n_live(self) -> int:
        return len(self.live_list)

    def contains_word(self, word) -> bool:
        return self.dfa.accepts(tuple(word))

    @cached_property
    def _words(self) -> dict[int, tuple[Word, ...]]:
        return {}

    def words(self, n: int) -> list[Word]:
        """The words of length ``n``, enumerated once per presentation."""
        words = self._words.get(n)
        if words is None:
            words = self._words[n] = tuple(au.words_of_length(self.dfa, n))
        else:
            check_budget(len(words), "word enumeration")
        return list(words)

    def count_words(self, n: int) -> int:
        return au.count_words(self.dfa, n)

    def word_action(self, word) -> tuple[int, ...]:
        """Partial transition function of ``word`` on the essential states."""
        return au.word_action(self.estep, self.n_live(), tuple(word))

    def contains_periodic(self, word) -> bool:
        """Whether the two-sided repetition of ``word`` is a point."""
        word = tuple(word)
        if not word or self.is_empty():
            return False
        return au.pfn_has_cycle(self.word_action(word))

    def uniform_points(self) -> list[str]:
        return [a for a in self.alphabet if self.contains_periodic((a,))]

    def language_equal(self, other: "Presentation") -> bool:
        # Every dfa comes from presentation_from_nfa, either minimized and
        # numbered in BFS order over sorted symbols or the fixed empty form,
        # and _cast_alphabet and with_point keep it unchanged: equal
        # languages have equal automata.
        a, b = self.dfa, other.dfa
        return set(self.alphabet) == set(other.alphabet) and (
            (a.trans, a.init, a.accepting) == (b.trans, b.init, b.accepting)
        )

    def included_in(self, other: "Presentation") -> bool:
        union = tuple(sorted(set(self.alphabet) | set(other.alphabet)))
        return au.included(
            _cast_alphabet(self, union).dfa, _cast_alphabet(other, union).dfa
        )

    def with_point(self, point: str | None) -> "Presentation":
        if point is not None and not self.contains_periodic((point,)):
            raise ValidationError(f"designated point {point!r} is not a uniform point")
        return Presentation(self.alphabet, self.dfa, self.live, point)

    def __hash__(self):
        return hash((self.alphabet, self.dfa, self.point))


def _cast_alphabet(x: Presentation, alphabet) -> Presentation:
    """View ``x`` over a possibly larger alphabet for language comparisons."""
    if set(x.alphabet) == set(alphabet):
        return x
    if not set(x.alphabet) <= set(alphabet):
        raise ValidationError("alphabet mismatch")
    dfa = Dfa(tuple(alphabet), x.dfa.n, x.dfa.trans, x.dfa.init, x.dfa.accepting)
    return Presentation(tuple(alphabet), dfa, x.live, x.point)


def presentation_from_nfa(alphabet, nfa: Nfa, point=None) -> Presentation:
    """Trim a labeled graph to its essential part and canonicalize."""
    alphabet = tuple(alphabet)
    n = nfa.n
    succs: list[list[int]] = [[] for _ in range(n)]
    preds: list[list[int]] = [[] for _ in range(n)]
    for q, _, p in nfa.edges():
        succs[q].append(p)
        preds[p].append(q)
    alive = _peel(n, succs, preds)

    if not alive:
        dfa = au.make_dfa(alphabet, [{}], 0, {0})
        return Presentation(alphabet, dfa, frozenset(), point)

    edges = [(q, a, p) for q, a, p in nfa.edges() if q in alive and p in alive]
    trimmed = Nfa(alphabet, n, edges, alive, alive)
    dfa = au.determinize_minimize(trimmed)
    live = _essential_states(dfa)
    pres = Presentation(alphabet, dfa, live, None)
    if point is not None:
        pres = pres.with_point(point)
    return pres


def presentation_from_edges(alphabet, n: int, edges, point=None) -> Presentation:
    """The shift of the labeled graph on ``range(n)`` with the given
    ``(src, symbol, dst)`` edges."""
    return presentation_from_nfa(alphabet, Nfa(alphabet, n, edges, range(n), range(n)), point)


def _peel(n: int, succs, preds) -> frozenset[int]:
    """The states on bi-infinite paths of a graph on ``range(n)``.

    ``succs[q]`` and ``preds[q]`` list the edge ends at ``q``, one entry per
    edge.  A worklist drops every state whose live in-degree or out-degree
    reaches zero, so the cost is linear in states plus edges.
    """
    out_deg = [len(s) for s in succs]
    in_deg = [len(p) for p in preds]
    alive = [bool(out_deg[q] and in_deg[q]) for q in range(n)]
    stack = [q for q in range(n) if not alive[q]]
    while stack:
        q = stack.pop()
        for p in succs[q]:
            if alive[p]:
                in_deg[p] -= 1
                if not in_deg[p]:
                    alive[p] = False
                    stack.append(p)
        for p in preds[q]:
            if alive[p]:
                out_deg[p] -= 1
                if not out_deg[p]:
                    alive[p] = False
                    stack.append(p)
    return frozenset(q for q in range(n) if alive[q])


def _essential_states(dfa: Dfa) -> frozenset[int]:
    succs = [[p for _, p in row] for row in dfa.trans]
    preds: list[list[int]] = [[] for _ in range(dfa.n)]
    for q, row in enumerate(succs):
        for p in row:
            preds[p].append(q)
    return _peel(dfa.n, succs, preds)


def _find_forbidden_factor(word: Word, forbidden: list[Word]) -> bool:
    n = len(word)
    for f in forbidden:
        m = len(f)
        if m == 0:
            return True
        for i in range(n - m + 1):
            if word[i : i + m] == f:
                return True
    return False


def make_presentation(alphabet, kind: str, payload, point=None) -> Presentation:
    """Build and canonicalize a presentation.

    ``kind`` is ``"sft"`` (payload: iterable of forbidden words) or
    ``"graph"`` (payload: ``(nodes, edges)`` with edges ``(src, dst, label)``).
    """
    alphabet = make_alphabet(alphabet)
    if kind == "sft":
        forbidden = [tuple(w) for w in payload]
        for w in forbidden:
            for s in w:
                if s not in alphabet:
                    raise ValidationError(f"forbidden word uses unknown symbol {s!r}")
        m = max([1] + [len(w) for w in forbidden])
        check_budget(len(alphabet) ** max(0, m - 1), "SFT window graph")
        nodes: list[Word] = []
        for word in _all_words(alphabet, m - 1):
            if not _find_forbidden_factor(word, forbidden):
                nodes.append(word)
        idx = {u: i for i, u in enumerate(nodes)}
        edges = []
        for u in nodes:
            for a in alphabet:
                w = u + (a,)
                if _find_forbidden_factor(w, forbidden):
                    continue
                v = w[1:]
                if v in idx:
                    edges.append((idx[u], a, idx[v]))
        return presentation_from_edges(alphabet, len(nodes), edges, point)
    elif kind == "graph":
        nodes, raw_edges = payload
        nodes = list(nodes)
        idx = {v: i for i, v in enumerate(nodes)}
        edges = []
        for src, dst, label in raw_edges:
            if label not in alphabet:
                raise ValidationError(f"edge label {label!r} not in alphabet")
            if src not in idx or dst not in idx:
                raise ValidationError(f"edge endpoint {src!r}/{dst!r} not declared")
            edges.append((idx[src], label, idx[dst]))
        return presentation_from_edges(alphabet, len(nodes), edges, point)
    raise ValidationError(f"unknown presentation kind {kind!r}")


def _all_words(alphabet, n: int):
    if n == 0:
        yield ()
        return
    for w in _all_words(alphabet, n - 1):
        for a in alphabet:
            yield w + (a,)


def full_shift(alphabet, point=None) -> Presentation:
    return make_presentation(alphabet, "sft", [], point)


def trivial_shift(symbol: str = "0") -> Presentation:
    return make_presentation([symbol], "sft", [], point=symbol)


def empty_shift(alphabet) -> Presentation:
    alphabet = make_alphabet(alphabet)
    return make_presentation(alphabet, "sft", [(a,) for a in alphabet])


def golden_mean() -> Presentation:
    return make_presentation(["0", "1"], "sft", [("1", "1")])


# -- derived presentations --------------------------------------------------


def mirror_presentation(x: Presentation) -> Presentation:
    n = x.n_live()
    rev = []
    for i in range(n):
        for a, j in x.live_trans[i].items():
            rev.append((j, a, i))
    return presentation_from_edges(x.alphabet, n, rev, x.point)


def product_presentation(x: Presentation, y: Presentation) -> Presentation:
    """Coordinatewise product over the pair alphabet."""
    alphabet = product_alphabet(x.alphabet, y.alphabet)
    nx, ny = x.n_live(), y.n_live()
    check_budget(max(1, nx) * max(1, ny), "product presentation")
    edges = []
    for i in range(nx):
        for a, i2 in x.live_trans[i].items():
            for j in range(ny):
                for b, j2 in y.live_trans[j].items():
                    edges.append((i * ny + j, pair_symbol(a, b), i2 * ny + j2))
    point = None
    if x.point is not None and y.point is not None:
        point = pair_symbol(x.point, y.point)
    return presentation_from_edges(alphabet, nx * ny, edges, point)


def diagonal_relation(x: Presentation) -> Presentation:
    """The diagonal of ``x`` inside the product alphabet of ``x`` with itself."""
    alphabet = product_alphabet(x.alphabet, x.alphabet)
    n = x.n_live()
    edges = []
    for i in range(n):
        for a, j in x.live_trans[i].items():
            edges.append((i, pair_symbol(a, a), j))
    return presentation_from_edges(alphabet, n, edges)


def disjoint_union(x: Presentation, y: Presentation):
    """Symbol-disjoint union.  Returns (presentation, left map, right map)
    where the maps send each original symbol to its tagged copy."""
    collision = set(x.alphabet) & set(y.alphabet)
    lmap = {a: (f"L:{a}" if collision else a) for a in x.alphabet}
    rmap = {b: (f"R:{b}" if collision else b) for b in y.alphabet}
    alphabet = tuple(lmap[a] for a in x.alphabet) + tuple(rmap[b] for b in y.alphabet)
    nx = x.n_live()
    edges = [(i, lmap[a], j) for i in range(nx) for a, j in x.live_trans[i].items()]
    for i in range(y.n_live()):
        for b, j in y.live_trans[i].items():
            edges.append((nx + i, rmap[b], nx + j))
    return presentation_from_edges(alphabet, nx + y.n_live(), edges), lmap, rmap


def presentation_from_allowed_words(alphabet, words_m) -> Presentation:
    """The SFT whose windows of length m are exactly the given words."""
    alphabet = tuple(alphabet)
    words_m = [tuple(w) for w in words_m]
    check_budget(len(words_m) + 1, "allowed-word presentation")
    if not words_m:
        return empty_shift(alphabet)
    m = len(words_m[0])
    if m == 1:
        return presentation_from_edges(alphabet, 1, [(0, w[0], 0) for w in words_m])
    prefixes: dict[Word, int] = {}
    for w in words_m:
        for u in (w[:-1], w[1:]):
            if u not in prefixes:
                prefixes[u] = len(prefixes)
    edges = [(prefixes[w[:-1]], w[-1], prefixes[w[1:]]) for w in words_m]
    return presentation_from_edges(alphabet, len(prefixes), edges)


def sft_approximation(x: Presentation, m: int) -> Presentation:
    """The SFT with the same allowed words of length ``m``."""
    if x.is_empty():
        return x
    return presentation_from_allowed_words(x.alphabet, x.words(m))


# ---------------------------------------------------------------------------
# Window graphs: width-w sliding views of a presentation


def window_graph(x: Presentation, w: int):
    """Nodes and deterministic window transitions for width-``w`` readings.

    A node is ``(state, u)`` with ``u`` a word of length ``w - 1`` readable
    from ``state`` inside the essential part.  The transition on the full
    window ``u + (a,)`` moves to ``(estep(state, u[0]), u[1:] + (a,))``.
    Bi-infinite node paths correspond exactly to points of ``x``; the
    window at position ``i`` covers coordinates ``[i - r, i + r]`` when
    ``w = 2r + 1``.

    Returns ``(nodes, trans)`` where ``trans[k]`` maps a full window word to
    the successor node index.
    """
    nodes: list[tuple[int, Word]] = []
    index: dict[tuple[int, Word], int] = {}
    for i in range(x.n_live()):
        for u in _readable_words(x, i, w - 1):
            node = (i, u)
            index[node] = len(nodes)
            nodes.append(node)
            check_budget(len(nodes), "window graph")
    trans: list[dict[Word, int]] = [{} for _ in nodes]
    for k, (i, u) in enumerate(nodes):
        end = i
        for a in u:
            end = x.estep(end, a)
        for a, _ in sorted(x.live_trans[end].items()):
            window = u + (a,)
            if w == 1:
                tgt = (x.estep(i, a), ())
            else:
                tgt = (x.estep(i, u[0]), u[1:] + (a,))
            if tgt in index:
                trans[k][window] = index[tgt]
    return nodes, trans


def _readable_words(x: Presentation, i: int, n: int):
    if n == 0:
        yield ()
        return
    for a, j in sorted(x.live_trans[i].items()):
        for rest in _readable_words(x, j, n - 1):
            yield (a,) + rest


def center_of(window: Word) -> str:
    return window[len(window) // 2]


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True)
class PeriodicPoint:
    """The two-sided repetition of ``word``, shifted so that coordinate
    ``i`` reads ``word[(i + phase) % len(word)]``."""

    word: Word
    phase: int = 0

    def __post_init__(self):
        if not self.word:
            raise ValidationError("periodic point needs a nonempty word")
        object.__setattr__(self, "phase", self.phase % len(self.word))

    def at(self, i: int) -> str:
        return self.word[(i + self.phase) % len(self.word)]

    def segment(self, lo: int, hi: int) -> Word:
        return tuple(self.at(i) for i in range(lo, hi))

    def least_period(self) -> int:
        n = len(self.word)
        for d in range(1, n + 1):
            if n % d == 0 and all(self.at(i) == self.at(i + d) for i in range(n)):
                return d
        return n

    def same_point(self, other: "PeriodicPoint") -> bool:
        n = math.lcm(len(self.word), len(other.word))
        return self.segment(0, n) == other.segment(0, n)

    def in_shift(self, x: Presentation) -> bool:
        return x.contains_periodic(self.segment(0, len(self.word)))


@dataclass(frozen=True)
class EventuallyPeriodicPoint:
    """The point that repeats ``left`` up to coordinate ``start``, reads
    ``mid`` on ``[start, start + len(mid))``, and repeats ``right`` after."""

    left: Word
    mid: Word
    right: Word
    start: int = 0

    def __post_init__(self):
        if not self.left or not self.right:
            raise ValidationError("eventually periodic point needs periodic tails")

    def mid_end(self) -> int:
        return self.start + len(self.mid)

    def at(self, i: int) -> str:
        if i < self.start:
            return self.left[(i - self.start) % len(self.left)]
        if i < self.mid_end():
            return self.mid[i - self.start]
        return self.right[(i - self.mid_end()) % len(self.right)]

    def segment(self, lo: int, hi: int) -> Word:
        return tuple(self.at(i) for i in range(lo, hi))

    def same_point(self, other: "EventuallyPeriodicPoint") -> bool:
        ll = math.lcm(len(self.left), len(other.left))
        lr = math.lcm(len(self.right), len(other.right))
        lo = min(self.start, other.start) - 2 * ll
        hi = max(self.mid_end(), other.mid_end()) + 2 * lr
        return self.segment(lo, hi) == other.segment(lo, hi)

    def in_shift(self, x: Presentation) -> bool:
        if x.is_empty():
            return False
        f_left = x.word_action(self.left)
        states = au.eventual_image(f_left)
        states = {q for q in states if q != au.UNDEF}
        for a in self.mid:
            states = {x.estep(q, a) for q in states} - {None}
            if not states:
                return False
        f_right = x.word_action(self.right)
        good = au.forever_defined(f_right)
        return bool(states & good)


# ---------------------------------------------------------------------------
# Block maps


@dataclass(frozen=True)
class BlockMap:
    """A sliding block code with a total local rule on source windows."""

    source: Presentation
    target: Presentation
    radius: int
    rule: tuple[tuple[Word, str], ...]

    @cached_property
    def rule_dict(self) -> dict[Word, str]:
        return dict(self.rule)

    @cached_property
    def image(self) -> Presentation:
        """The image subshift, over the target alphabet."""
        return rule_image(self.source, self.radius, self.rule_dict, self.target.alphabet)

    @cached_property
    def kernel(self) -> Presentation:
        """Pairs of source points with equal image, over the pair alphabet."""
        return fiber_presentation(self, self)

    def width(self) -> int:
        return 2 * self.radius + 1

    def local(self, window: Word) -> str:
        return self.rule_dict[window]

    def padded_rule(self, radius: int) -> dict[Word, str]:
        """The same map expressed at a larger radius."""
        if radius == self.radius:
            return dict(self.rule_dict)
        pad = radius - self.radius
        if pad < 0:
            raise ValidationError("cannot shrink a rule by padding")
        out = {}
        for w in self.source.words(2 * radius + 1):
            out[w] = self.rule_dict[w[pad : pad + self.width()]]
        return out

    def __hash__(self):
        return hash((self.source, self.target, self.radius, self.rule))


def rule_image(source: Presentation, radius: int, rule: dict[Word, str], alphabet) -> Presentation:
    """The image subshift of a local rule, canonically presented over ``alphabet``."""
    alphabet = tuple(alphabet)
    nodes, trans = window_graph(source, 2 * radius + 1)
    n = len(nodes)
    edges = [(k, rule[window], tgt) for k in range(n) for window, tgt in trans[k].items()]
    return presentation_from_edges(alphabet, n, edges)


def fiber_presentation(f: BlockMap, g: BlockMap) -> Presentation:
    """{(x, y) : f(x) = g(y)} over the pair alphabet of the two sources.

    The window edges of ``g`` are bucketed by output symbol, so each window
    edge of ``f`` meets only the edges of ``g`` with the same output.
    """
    if f is not g and not f.target.language_equal(g.target):
        raise DomainMismatch("fiber product needs a common target")
    x, y = f.source, g.source
    alphabet = product_alphabet(x.alphabet, y.alphabet)
    r = max(f.radius, g.radius)
    fr, gr = f.padded_rule(r), g.padded_rule(r)
    nodes1, trans1 = window_graph(x, 2 * r + 1)
    nodes2, trans2 = (nodes1, trans1) if y == x else window_graph(y, 2 * r + 1)
    n1, n2 = len(nodes1), len(nodes2)
    check_budget(max(1, n1) * max(1, n2), "fiber product")
    buckets: dict[str, list[tuple[int, str, int]]] = {}
    for k2 in range(n2):
        for w2, t2 in trans2[k2].items():
            buckets.setdefault(gr[w2], []).append((k2, center_of(w2), t2))
    edges = []
    for k1 in range(n1):
        for w1, t1 in trans1[k1].items():
            a = center_of(w1)
            for k2, b, t2 in buckets.get(fr[w1], ()):
                edges.append((k1 * n2 + k2, pair_symbol(a, b), t1 * n2 + t2))
    return presentation_from_edges(alphabet, n1 * n2, edges)


def make_block_map(
    source: Presentation,
    target: Presentation,
    radius: int,
    rule,
    default: str | None = None,
    validate_image: bool = True,
) -> BlockMap:
    """Validate and freeze a block map.

    The rule may be partial if ``default`` is given; words outside the
    source language are rejected.  Image inclusion in the target is checked
    exactly unless ``validate_image`` is disabled (used internally for
    constructions whose image is correct by design).
    """
    rule = {tuple(w): v for w, v in (rule.items() if hasattr(rule, "items") else rule)}
    needed = set(source.words(2 * radius + 1))
    extra = set(rule) - needed
    if extra:
        raise ValidationError(f"rule defined on words outside the source language: {sorted(extra)[:3]}")
    missing = needed - set(rule)
    if missing:
        if default is None:
            raise ValidationError(f"rule is missing {len(missing)} source windows")
        for w in missing:
            rule[w] = default
    bad = {v for v in rule.values() if v not in target.alphabet}
    if bad:
        raise ValidationError(f"rule produces symbols outside the target alphabet: {sorted(bad)}")
    f = BlockMap(source, target, radius, tuple(sorted(rule.items())))
    if validate_image and not source.is_empty():
        w = au.separating_word(f.image.dfa, target.dfa)
        if w is not None:
            raise ValidationError(f"image is not contained in the target: word {w}")
    return f


def identity_map(x: Presentation) -> BlockMap:
    return make_block_map(x, x, 0, {(a,): a for a in x.alphabet if x.contains_word((a,))},
                          validate_image=False)


def constant_map(x: Presentation, y: Presentation, sym: str) -> BlockMap:
    if not y.contains_periodic((sym,)):
        raise ValidationError(f"constant {sym!r} is not a uniform point of the target")
    return make_block_map(x, y, 0, {(a,): sym for a in x.alphabet if x.contains_word((a,))},
                          validate_image=False)


def shift_power(x: Presentation, k: int) -> BlockMap:
    r = abs(k)
    rule = {w: w[r + k] for w in x.words(2 * r + 1)}
    return make_block_map(x, x, r, rule, validate_image=False)


def zero_map(x: Presentation, y: Presentation) -> BlockMap:
    """The pointed zero morphism: everything to the designated point of y."""
    if y.point is None:
        raise ValidationError("zero map needs a designated point on the target")
    return constant_map(x, y, y.point)


def image_presentation(f: BlockMap) -> Presentation:
    return f.image


def apply_map(f: BlockMap, x: PeriodicPoint) -> PeriodicPoint:
    if not x.in_shift(f.source):
        raise ValidationError("point is not in the source of the map")
    n = len(x.word)
    r = f.radius
    out = tuple(f.local(x.segment(i - r, i + r + 1)) for i in range(n))
    return PeriodicPoint(out, 0)


def apply_map_ep(f: BlockMap, x: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    if not x.in_shift(f.source):
        raise ValidationError("point is not in the source of the map")
    r = f.radius
    L, R = len(x.left), len(x.right)
    pad_l = ((r + L - 1) // L) * L if r else 0
    pad_r = ((r + R - 1) // R) * R if r else 0
    start = x.start - pad_l
    end = x.mid_end() + pad_r

    def val(i):
        return f.local(x.segment(i - r, i + r + 1))

    left = tuple(val(i) for i in range(start - L, start))
    mid = tuple(val(i) for i in range(start, end))
    right = tuple(val(i) for i in range(end, end + R))
    return EventuallyPeriodicPoint(left, mid, right, start)


def compose(g: BlockMap, f: BlockMap) -> BlockMap:
    """g after f."""
    if not f.target.language_equal(g.source):
        raise DomainMismatch("compose: target of f differs from source of g")
    r = f.radius + g.radius
    wf, wg = f.width(), g.width()
    rule = {}
    for w in f.source.words(2 * r + 1):
        mid = tuple(f.local(w[i : i + wf]) for i in range(wg))
        rule[w] = g.local(mid)
    return make_block_map(f.source, g.target, r, rule, validate_image=False)


def maps_equal(f: BlockMap, g: BlockMap) -> bool:
    if not f.source.language_equal(g.source) or not f.target.language_equal(g.target):
        raise DomainMismatch("maps_equal: presentations differ")
    r = max(f.radius, g.radius)
    fr = f.padded_rule(r)
    gr = g.padded_rule(r)
    return fr == gr


def reduce_radius(f: BlockMap) -> BlockMap:
    """Re-express the map at the smallest centered radius that suffices."""
    for rho in range(0, f.radius):
        pad = f.radius - rho
        grouped: dict[Word, str] = {}
        ok = True
        for w, val in f.rule_dict.items():
            mid = w[pad : pad + 2 * rho + 1]
            if grouped.get(mid, val) != val:
                ok = False
                break
            grouped[mid] = val
        if ok:
            return make_block_map(f.source, f.target, rho, grouped, validate_image=False)
    return f


def mirror_map(f: BlockMap) -> BlockMap:
    src = mirror_presentation(f.source)
    tgt = mirror_presentation(f.target)
    rule = {tuple(reversed(w)): v for w, v in f.rule_dict.items()}
    return make_block_map(src, tgt, f.radius, rule, validate_image=False)


def higher_block_presentation(x: Presentation, w: int):
    """The width-``w`` higher block shift and its token alphabet."""
    nodes, trans = window_graph(x, w)
    tokens = sorted({block_symbol(win) for k in range(len(nodes)) for win in trans[k]})
    edges = []
    for k in range(len(nodes)):
        for window, tgt in trans[k].items():
            edges.append((k, block_symbol(window), tgt))
    return presentation_from_edges(tuple(tokens), len(nodes), edges)


def recode_to_symbol_map(f: BlockMap):
    """Recode ``f`` as a radius-0 map on the higher block presentation.

    Returns ``(f0, to_blocks, from_blocks)`` with ``f0 . to_blocks = f``
    and ``to_blocks``/``from_blocks`` a conjugacy pair.
    """
    if f.radius == 0:
        ident = identity_map(f.source)
        return f, ident, ident
    w = f.width()
    xb = higher_block_presentation(f.source, w)
    to_blocks = make_block_map(
        f.source, xb, f.radius,
        {win: block_symbol(win) for win in f.source.words(w)},
        validate_image=False,
    )
    from_blocks = make_block_map(
        xb, f.source, 0,
        {(t,): _block_center(t) for t in xb.alphabet if xb.contains_word((t,))},
        validate_image=False,
    )
    f0 = make_block_map(
        xb, f.target, 0,
        {(t,): f.local(_block_word(t)) for t in xb.alphabet if xb.contains_word((t,))},
        validate_image=False,
    )
    return f0, to_blocks, from_blocks


def _block_word(token: str) -> Word:
    if not (token.startswith("[") and token.endswith("]")):
        raise ValidationError(f"not a block token: {token!r}")
    return tuple(token[1:-1].split("|"))


def _block_center(token: str) -> str:
    w = _block_word(token)
    return w[len(w) // 2]
