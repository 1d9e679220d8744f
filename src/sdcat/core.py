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

A graph is one kept tuple of ``(src, symbol, dst)`` edges:
``Presentation.edges`` for the essential part, :func:`window_graph` for
the windows of a width.  Every derived shift relabels, filters or
reverses the edges of one such tuple, or matches those of two:
:func:`_matched_edges` is the one product of two graphs, under the
product, the fiber product and the intersection.  An SFT is the graph of
its avoidance automaton, an SFT approximation that of its allowed words.

Questions that only ask whether some bi-infinite path exists need no
canonical form.  Surjectivity reads :func:`image_graph`, a relabelled
window graph, whose every node lies on a bi-infinite path; injectivity,
preinjectivity and resolvingness read ``analysis._diagonal_view``, which
writes each pair of :func:`_matched_rows` once, as an edge tuple that both
its ends list, for the one peel, :func:`_infinite_past`, and closes its
diagonal tails from the seeds of :func:`_identical_tails`.
``BlockMap.image`` and ``BlockMap.kernel`` canonicalize only when a
question about their language asks.

A block map's rule is ``values``, one symbol per source window in words
order, frozen by :func:`_block_map` (composites by :func:`compose`).
``compose``, ``maps_equal`` and ``padded_rule`` gather it through
C-level gatherers kept beside their word-index tables (:func:`_gather`).

Words are tuples of symbols: strings read from input, or derived values,
a pair ``(a, b)`` or a higher block's window tuple.  Everything is
immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress
from operator import itemgetter

from . import automata as au
from . import verdicts as v
from .automata import Dfa, Nfa, Word
from .errors import ValidationError, DomainMismatch, check_budget
from .records import record

_VARARGS = 0x04  # inspect.CO_VARARGS, whose module is slow to import


def _per_object(fn):
    """Keep ``fn(obj, *args)`` in ``obj.__dict__``, which equality and
    hashing of the frozen records do not see: under the wrapper's
    ``key`` when ``fn`` takes ``obj`` alone, else under ``args`` in a dict
    kept there; an UNDECIDED verdict is not kept.  ``fn``'s arity picks
    the wrapper, so a hit is one ``try`` of one subscript chain."""
    key = f"{fn.__module__}.{fn.__name__}"
    code = fn.__code__

    if code.co_argcount == 1 and not code.co_flags & _VARARGS:
        def once(obj):
            try:
                return obj.__dict__[key]
            except KeyError:
                pass
            out = fn(obj)
            if not (isinstance(out, v.Verdict) and out.undecided):
                obj.__dict__[key] = out
            return out
    else:
        def once(obj, *args):
            try:
                return obj.__dict__[key][args]
            except KeyError:
                pass
            out = fn(obj, *args)
            if not (isinstance(out, v.Verdict) and out.undecided):
                obj.__dict__.setdefault(key, {})[args] = out
            return out

    # not functools.wraps: ``__wrapped__`` marks the bindings that the
    # benchmark tracer has wrapped
    once.__name__, once.__qualname__, once.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
    once.key = key
    return once


def make_alphabet(symbols) -> tuple:
    syms = tuple(s if isinstance(s, tuple) else str(s) for s in symbols)
    if len(set(syms)) != len(syms):
        raise ValidationError("alphabet symbols must be distinct")
    for s in syms:
        if not _valid_symbol(s):
            raise ValidationError(f"bad symbol token: {s!r}")
    try:
        sorted(syms)  # as canonical forms do
    except TypeError:
        raise ValidationError("alphabet mixes symbols that do not compare") from None
    return syms


def _valid_symbol(s) -> bool:
    """A nonempty string with no space, or a nonempty tuple of symbols."""
    return bool(s) and (all(map(_valid_symbol, s)) if isinstance(s, tuple)
                        else isinstance(s, str) and not any(c.isspace() for c in s))


def pair_symbol(a, b) -> tuple:
    return (a, b)


def product_alphabet(left, right) -> tuple[tuple, ...]:
    return tuple((a, b) for a in left for b in right)


# ---------------------------------------------------------------------------
# Presentations


@record
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
    def live_trans(self) -> tuple[dict[str, int], ...]:
        """The rows of the essential part, its states numbered in order."""
        index = {q: i for i, q in enumerate(sorted(self.live))}
        return tuple({a: index[p] for a, p in self.dfa.trans[q] if p in index} for q in index)

    @cached_property
    def symbols(self) -> frozenset[str]:
        return frozenset(self.alphabet)

    @cached_property
    def live_symbols(self) -> tuple[str, ...]:
        """The symbols that some point reads, in alphabet order."""
        return tuple(a for a in self.alphabet if self.contains_word((a,)))

    @cached_property
    def edges(self) -> tuple[tuple[int, str, int], ...]:
        """The ``(src, symbol, dst)`` edges of the essential part, in
        ``live_trans`` order."""
        return tuple((i, a, j) for i, row in enumerate(self.live_trans) for a, j in row.items())

    def is_empty(self) -> bool:
        return not self.live

    def estep(self, i: int, sym: str) -> int | None:
        return self.live_trans[i].get(sym)

    def n_live(self) -> int:
        return len(self.live)

    def contains_word(self, word) -> bool:
        return self.dfa.accepts(tuple(word))

    def words(self, n: int) -> list[Word]:
        """The words of length ``n``, enumerated once per presentation."""
        words = _word_list(self, n)
        check_budget(len(words), "word enumeration")
        return list(words)

    def periodic_words(self, n: int) -> tuple[Word, ...]:
        """The words of length ``n`` whose repetition is a point, in
        :meth:`words` order, listed once per presentation."""
        words = _periodic_word_list(self, n)
        check_budget(len(words), "word enumeration")
        return words

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
        return bool(_orbit_ends(self.word_action(word))[0])

    def is_full(self) -> bool:
        """Whether this is the full shift on its alphabet: the canonical
        automaton is one state with a loop on every symbol."""
        return self.dfa.n == 1 and len(self.dfa.trans[0]) == len(self.alphabet)

    @_per_object
    def uniform_points(self) -> tuple[str, ...]:
        """The symbols whose repetition is a point, listed once per presentation."""
        return tuple(a for a in self.alphabet if self.contains_periodic((a,)))

    def language_equal(self, other: "Presentation") -> bool:
        # Every dfa comes from presentation_from_nfa, either minimized and
        # numbered in BFS order over sorted symbols or the fixed empty form,
        # and with_point keeps it unchanged: equal languages have equal
        # automata.
        a, b = self.dfa, other.dfa
        return self is other or set(self.alphabet) == set(other.alphabet) and (
            (a.trans, a.init, a.accepting) == (b.trans, b.init, b.accepting)
        )

    def included_in(self, other: "Presentation") -> bool:
        # a symbol that ``other`` lacks takes the product search out of its
        # automaton, so the alphabets need not agree
        return au.included(self.dfa, other.dfa)

    def with_point(self, point: str | None) -> "Presentation":
        if point is not None and not self.contains_periodic((point,)):
            raise ValidationError(f"designated point {point!r} is not a uniform point")
        return Presentation(self.alphabet, self.dfa, self.live, point)

    def __hash__(self):
        return hash((self.alphabet, self.dfa, self.point))


@_per_object
def _word_list(x: Presentation, n: int) -> tuple[Word, ...]:
    return tuple(au.words_of_length(x.dfa, n))


@_per_object
def _word_index(x: Presentation, n: int) -> dict[Word, int]:
    """Each word of length ``n`` and its place in :func:`_word_list`, kept
    per presentation."""
    return {w: i for i, w in enumerate(_word_list(x, n))}


@_per_object
def _center_index(x: Presentation, n: int, pad: int) -> tuple[int, ...]:
    """For each word of length ``n + 2 * pad``, the index of its central
    sub-word of length ``n``: where a width-``n`` map reads at ``pad`` more."""
    index = _word_index(x, n)
    return tuple(index[u[pad : pad + n]] for u in _word_list(x, n + 2 * pad))


def _gather(keys):
    """``seq -> tuple(seq[k] for k in keys)`` through a C-level ``itemgetter``,
    for a tuple of keys.  ``itemgetter`` gives the bare item for one key and
    refuses none, and the trivial shift has one word of each length, the
    empty shift none: those two get their own."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        key, = keys
        return lambda seq: (seq[key],)
    return lambda seq: ()


@_per_object
def _kept_gather(obj, table, *args):
    """The :func:`_gather` of the keys ``table(obj, *args)``, kept beside
    that table."""
    return _gather(table(obj, *args))


@_per_object
def _periodic_word_list(x: Presentation, n: int) -> tuple[Word, ...]:
    return tuple(w for w in x.words(n) if x.contains_periodic(w))


@_per_object
def _tails(y: Presentation, u: Word) -> tuple[frozenset[int], frozenset[int]]:
    """The states of ``y`` where a left tail repeating ``u`` ends, and those
    where a right tail repeating ``u`` starts."""
    return _orbit_ends(y.word_action(u))


def _orbit_ends(act) -> tuple[frozenset[int], frozenset[int]]:
    """The states on a cycle of the partial function ``act``, and those
    where it is defined forever: one peel each of its graph, since a state
    reachable from a cycle is on it, so the first are those with an
    infinite past and the second those with an infinite future."""
    out = [[] if e[1] == au.UNDEF else [e] for e in enumerate(act)]
    into: list[list[tuple[int, int]]] = [[] for _ in act]
    for (e,) in filter(None, out):
        into[e[1]].append(e)
    return _infinite_past(out, map(len, into), 1), _infinite_past(into, map(len, out), 0)


def presentation_from_nfa(alphabet, nfa: Nfa, point=None) -> Presentation:
    """Trim a labeled graph to its essential part and canonicalize."""
    alphabet = tuple(alphabet)
    alive = _live_nodes(nfa.n, nfa.edges())

    if not alive:
        dfa = au.make_dfa(alphabet, [{}], 0, {0})
        return Presentation(alphabet, dfa, frozenset(), point)

    edges = [(q, a, p) for q, a, p in nfa.edges() if q in alive and p in alive]
    trimmed = Nfa(alphabet, nfa.n, edges, alive, alive)
    dfa = au.determinize_minimize(trimmed)
    live = _live_nodes(dfa.n, ((q, a, p) for q, row in enumerate(dfa.trans) for a, p in row))
    pres = Presentation(alphabet, dfa, live, None)
    if point is not None:
        pres = pres.with_point(point)
    return pres


def presentation_from_edges(alphabet, n: int, edges, point=None) -> Presentation:
    """The shift of the labeled graph on ``range(n)`` with the given
    ``(src, symbol, dst)`` edges."""
    return presentation_from_nfa(alphabet, Nfa(alphabet, n, edges, range(n), range(n)), point)


def _live_nodes(n: int, edges) -> frozenset[int]:
    """The nodes on bi-infinite paths of the graph on ``range(n)`` with the
    given ``(src, symbol, dst)`` edges: those with an infinite past and an
    infinite future."""
    out: list[list[tuple]] = [[] for _ in range(n)]
    into: list[list[tuple]] = [[] for _ in range(n)]
    for e in edges:
        out[e[0]].append(e)
        into[e[2]].append(e)
    return _infinite_past(out, map(len, into), 2) & _infinite_past(into, map(len, out), 0)


def _infinite_past(edges, deg, end: int) -> frozenset[int]:
    """The one peel: the nodes with an infinite path into them, those
    reachable from a cycle, where ``edges[q]`` lists the edge tuples ``e``
    out of ``q``, into ``e[end]``, and ``deg`` the in-degrees; on in-lists
    and out-degrees, those with an infinite future.  A worklist drops each
    node whose in-degree from kept nodes reaches zero: linear in size."""
    deg = list(deg)
    stack = [q for q, d in enumerate(deg) if not d]
    while stack:
        for e in edges[stack.pop()]:
            p = e[end]
            deg[p] -= 1
            if not deg[p]:
                stack.append(p)
    return frozenset(compress(range(len(deg)), deg))


def make_presentation(alphabet, kind: str, payload, point=None) -> Presentation:
    """Build and canonicalize a presentation.

    ``kind`` is ``"sft"`` (payload: iterable of forbidden words) or
    ``"graph"`` (payload: ``(nodes, edges)`` with edges ``(src, dst, label)``).
    """
    alphabet = make_alphabet(alphabet)
    if kind == "sft":
        forbidden = [tuple(w) for w in payload]
        unknown = [s for w in forbidden for s in w if s not in alphabet]
        if unknown:
            raise ValidationError(f"forbidden word uses unknown symbol {unknown[0]!r}")
        # the avoidance automaton (Crochemore, Mignosi & Restivo 1998) on the
        # proper prefixes of forbidden words: u reads a to the longest one
        # that ends u + a, unless a forbidden word ends u + a; each state
        # tests m + 1 suffixes per symbol, counted before its word is read
        banned, m, states = set(forbidden), max(map(len, forbidden), default=0), {()}
        for w in forbidden:
            check_budget((len(states) + len(w)) * len(alphabet) * (m + 1), "avoidance automaton")
            states.update(w[:i] for i in range(1, len(w)))
        index = {u: k for k, u in enumerate(sorted(states))}
        edges = []
        for u, k in index.items():
            for a in alphabet:
                v = u + (a,)
                if not any(v[i:] in banned for i in range(len(v) + 1)):
                    while v not in index:
                        v = v[1:]
                    edges.append((k, a, index[v]))
        return presentation_from_edges(alphabet, len(index), edges, point)
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


def full_shift(alphabet, point=None) -> Presentation:
    return make_presentation(alphabet, "sft", [], point)


def trivial_shift(symbol: str = "0") -> Presentation:
    return make_presentation([symbol], "sft", [], point=symbol)


def empty_shift(alphabet) -> Presentation:
    return presentation_from_allowed_words(make_alphabet(alphabet), [])


def golden_mean() -> Presentation:
    return make_presentation(["0", "1"], "sft", [("1", "1")])


# -- derived presentations --------------------------------------------------


def mirror_presentation(x: Presentation) -> Presentation:
    return presentation_from_edges(x.alphabet, x.n_live(), [(j, a, i) for i, a, j in x.edges],
                                   x.point)


def product_presentation(x: Presentation, y: Presentation) -> Presentation:
    """Coordinatewise product over the pair alphabet."""
    alphabet = product_alphabet(x.alphabet, y.alphabet)
    nx, ny = x.n_live(), y.n_live()
    check_budget(max(1, nx) * max(1, ny), "product presentation")
    edges = _matched_edges([(i, None, a, j) for i, a, j in x.edges],
                           [(i, None, a, j) for i, a, j in y.edges], ny, pair_symbol)
    point = None
    if x.point is not None and y.point is not None:
        point = (x.point, y.point)
    return presentation_from_edges(alphabet, nx * ny, edges, point)


def _matched_edges(edges1, edges2, n2: int, token) -> list[tuple[int, str, int]]:
    """The one product of two graphs, whose edges are ``(src, key, label,
    dst)``: each edge of the first meets, in order, each edge of the second
    with the same key, giving the edge ``(src1 * n2 + src2, token(label1,
    label2), dst1 * n2 + dst2)``."""
    return [(q + k2, t, p + t2) for q, row, p in _matched_rows(edges1, edges2, n2, token)
            for k2, t, t2 in row]


def _matched_rows(edges1, edges2, n2: int, token):
    """The pairing under :func:`_matched_edges`: for each edge of the first
    graph in order, ``(src1 * n2, row, dst1 * n2)`` with ``row`` the
    ``(src2, token, dst2)`` of the edges of the second with its key, in
    order.  Each row, and so each token, is made once per (key, label)
    pair."""
    buckets: dict = {}
    for k2, key, b, t2 in edges2:
        buckets.setdefault(key, []).append((k2, b, t2))
    labelled: dict = {}
    for k1, key, a, t1 in edges1:
        row = labelled.get((key, a))
        if row is None:
            row = labelled[key, a] = [(k2, token(a, b), t2) for k2, b, t2 in buckets.get(key, ())]
        yield k1 * n2, row, t1 * n2


@_per_object
def diagonal_relation(x: Presentation) -> Presentation:
    """The diagonal of ``x`` inside the product alphabet of ``x`` with itself,
    built once per shift."""
    alphabet = product_alphabet(x.alphabet, x.alphabet)
    return presentation_from_edges(alphabet, x.n_live(),
                                   [(i, (a, a), j) for i, a, j in x.edges])


def disjoint_union(x: Presentation, y: Presentation):
    """Symbol-disjoint union.  Returns (presentation, left map, right map)
    where the maps send each original symbol to its tagged copy, the pair
    ``("L", a)`` or ``("R", b)`` when either side holds a derived symbol."""
    plain = all(isinstance(s, str) for s in x.alphabet + y.alphabet)
    tag = (lambda side, s: f"{side}:{s}") if plain else (lambda side, s: (side, s))
    collision = not plain or set(x.alphabet) & set(y.alphabet)
    lmap = {a: (tag("L", a) if collision else a) for a in x.alphabet}
    rmap = {b: (tag("R", b) if collision else b) for b in y.alphabet}
    return side_by_side(x, y, lmap, rmap), lmap, rmap


def side_by_side(x: Presentation, y: Presentation, lmap, rmap) -> Presentation:
    """The graphs of ``x`` and ``y`` next to each other, their symbols renamed
    by ``lmap`` and ``rmap``, over the renamed symbols, ``x``'s first."""
    alphabet = tuple(dict.fromkeys([*lmap.values(), *rmap.values()]))
    nx = x.n_live()
    edges = [(i, lmap[a], j) for i, a, j in x.edges] + [
        (nx + i, rmap[a], nx + j) for i, a, j in y.edges]
    return presentation_from_edges(alphabet, nx + y.n_live(), edges)


def presentation_from_allowed_words(alphabet, words_m, point=None) -> Presentation:
    """The SFT whose windows of length m are exactly the given words: the
    graph on their (m - 1)-words, each word an edge from its prefix to its
    suffix (Lind & Marcus, §2.3).  No words give no nodes, the empty shift."""
    alphabet = tuple(alphabet)
    words_m = [tuple(w) for w in words_m]
    check_budget(len(words_m) + 1, "allowed-word presentation")
    nodes: dict[Word, int] = {}
    for w in words_m:
        for u in (w[:-1], w[1:]):
            nodes.setdefault(u, len(nodes))
    edges = [(nodes[w[:-1]], w[-1], nodes[w[1:]]) for w in words_m]
    return presentation_from_edges(alphabet, len(nodes), edges, point)


def sft_approximation(x: Presentation, m: int) -> Presentation:
    """The SFT with the same allowed words of length ``m``."""
    if x.is_empty():
        return x
    return presentation_from_allowed_words(x.alphabet, x.words(m))


# ---------------------------------------------------------------------------
# Window graphs: width-w sliding views of a presentation


def window_graph(x: Presentation, w: int):
    """Nodes and deterministic window edges for width-``w`` readings,
    built once per presentation and width.

    A node is ``(state, u)`` with ``u`` a word of length ``w - 1`` readable
    from ``state`` inside the essential part.  The edge on the full window
    ``u + (a,)`` moves to ``(estep(state, window[0]), window[1:])``.  Every
    essential state has an edge in and an edge out, so every node has too:
    each lies on a bi-infinite path, and each edge's target is a node.
    Bi-infinite node paths correspond exactly to points of ``x``; the
    window at position ``i`` covers coordinates ``[i - r, i + r]`` when
    ``w = 2r + 1``.

    Returns ``(nodes, edges)``, both tuples, with ``edges`` the ``(k,
    window, t)`` edges from node ``k`` to node ``t``, by ``k`` and then by
    the window's last symbol.
    """
    graph = _window_graph(x, w)
    check_budget(len(graph[0]), "window graph")
    return graph


@_per_object
def _window_graph(x: Presentation, w: int):
    rows = [tuple(row.items()) for row in x.live_trans]
    nodes: list[tuple[int, Word]] = []
    ends: list[int] = []
    index: dict[tuple[int, Word], int] = {}
    for i in range(x.n_live()):
        for u, end in au.walk(rows, i, w - 1):
            index[i, u] = len(nodes)
            nodes.append((i, u))
            ends.append(end)
            check_budget(len(nodes), "window graph")
    edges: list[tuple[int, Word, int]] = []
    for k, ((i, u), end) in enumerate(zip(nodes, ends)):
        for a, _ in rows[end]:
            window = u + (a,)
            edges.append((k, window, index[x.estep(i, window[0]), window[1:]]))
    return tuple(nodes), tuple(edges)


@_per_object
def _identical_tails(x: Presentation, w: int) -> tuple[frozenset[int], frozenset[int]]:
    """The width-``w`` window-graph node pairs, as ``k1 * n + k2``, with an
    infinite past, and those with an infinite future, of identical windows:
    one peel each over the :func:`_matched_edges` of edges on one window."""
    nodes, edges = _window_graph(x, w)
    keyed = [(k, window, None, t) for k, window, t in edges]
    index: dict[int, int] = {}  # the pairs met, numbered in order
    pairs = [(index.setdefault(q, len(index)), index.setdefault(p, len(index)))
             for q, _, p in _matched_edges(keyed, keyed, len(nodes), pair_symbol)]
    outs, ins = [[] for _ in index], [[] for _ in index]
    for e in pairs:
        outs[e[0]].append(e)
        ins[e[1]].append(e)
    product = list(index)
    past = _infinite_past(outs, map(len, ins), 1)
    future = _infinite_past(ins, map(len, outs), 0)
    return frozenset(product[i] for i in past), frozenset(product[i] for i in future)


def center_of(window: Word) -> str:
    return window[len(window) // 2]


# ---------------------------------------------------------------------------
# Points


@record
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
        """Coordinates ``lo`` to ``hi - 1``: the word rotated to start at
        ``lo``, repeated far enough and cut."""
        word, n = tuple(self.word), len(self.word)
        s = (lo + self.phase) % n
        return ((word[s:] + word[:s]) * -(-(hi - lo) // n))[: hi - lo]

    def same_point(self, other: "PeriodicPoint") -> bool:
        n = math.lcm(len(self.word), len(other.word))
        return self.segment(0, n) == other.segment(0, n)

    def in_shift(self, x: Presentation) -> bool:
        return x.contains_periodic(self.segment(0, len(self.word)))


@record
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
        s, e = self.start, self.mid_end()
        return (PeriodicPoint(self.left, -s).segment(lo, min(hi, s))
                + tuple(self.mid[max(lo, s) - s : max(min(hi, e) - s, 0)])
                + PeriodicPoint(self.right, -e).segment(max(lo, e), hi))

    def same_point(self, other: "EventuallyPeriodicPoint") -> bool:
        ll = math.lcm(len(self.left), len(other.left))
        lr = math.lcm(len(self.right), len(other.right))
        lo = min(self.start, other.start) - 2 * ll
        hi = max(self.mid_end(), other.mid_end()) + 2 * lr
        return self.segment(lo, hi) == other.segment(lo, hi)

    def in_shift(self, x: Presentation) -> bool:
        if x.is_empty():
            return False
        states = _tails(x, self.left)[0]
        for a in self.mid:
            states = {x.estep(q, a) for q in states} - {None}
            if not states:
                return False
        return bool(states & _tails(x, self.right)[1])


# ---------------------------------------------------------------------------
# Block maps


@record
class BlockMap:
    """A sliding block code: ``values`` holds the output of each source
    window, in ``source.words(width)`` order, and equality and hashing read
    it; ``rule_dict`` is the same rule keyed by window.  Composites and
    comparisons gather ``values`` through kept C-level gatherers."""

    source: Presentation
    target: Presentation
    radius: int
    values: tuple[str, ...]

    @cached_property
    def rule_dict(self) -> dict[Word, str]:
        return dict(zip(_word_list(self.source, self.width()), self.values))

    @cached_property
    def image(self) -> Presentation:
        """The image subshift, over the target alphabet."""
        return rule_image(self.source, self.radius, self.rule_dict, self.target.alphabet)

    @cached_property
    def kernel(self) -> Presentation:
        """Pairs of source points with equal image, over the pair alphabet:
        the canonical fiber product of the map with itself, built only when
        a question about its language asks for it."""
        return fiber_presentation(self, self)

    def width(self) -> int:
        return 2 * self.radius + 1

    def local(self, window: Word) -> str:
        return self.rule_dict[window]

    def padded_rule(self, radius: int) -> dict[Word, str]:
        """The same map at a radius no smaller; at its own, ``rule_dict`` itself."""
        pad = radius - self.radius
        if not pad:
            return self.rule_dict
        if pad < 0:
            raise ValidationError("cannot shrink a rule by padding")
        center = _kept_gather(self.source, _center_index, self.width(), pad)
        return dict(zip(self.source.words(2 * radius + 1), center(self.values)))

    def __hash__(self):
        return hash((self.source, self.target, self.radius, self.values))

    def __repr__(self):
        # the rule as (window, symbol) pairs, as certificates have always read
        return (f"BlockMap(source={self.source!r}, target={self.target!r}, radius={self.radius!r}, "
                f"rule={tuple(self.rule_dict.items())!r})")


def image_graph(source: Presentation, radius: int, rule: dict[Word, str], alphabet) -> Nfa:
    """The window graph of ``source`` with each edge labelled by its rule
    output, every node initial and accepting: the paths of this graph read
    the image words.  Every node of a window graph lies on a bi-infinite
    path, so there is nothing to trim."""
    nodes, edges = window_graph(source, 2 * radius + 1)
    n = len(nodes)
    return Nfa(alphabet, n, [(k, rule[window], t) for k, window, t in edges], range(n), range(n))


def rule_image(source: Presentation, radius: int, rule: dict[Word, str], alphabet) -> Presentation:
    """The image subshift of a local rule, canonically presented over ``alphabet``."""
    alphabet = tuple(alphabet)
    return presentation_from_nfa(alphabet, image_graph(source, radius, rule, alphabet))


def fiber_graph(f: BlockMap, g: BlockMap):
    """{(x, y) : f(x) = g(y)} as a labeled graph ``(alphabet, n, edges)``:
    the :func:`_matched_edges` product of the two window graphs, with
    ``(src, token, dst)`` edges over the pair alphabet of the two sources.
    It is not trimmed, so a node may lie on no bi-infinite path."""
    n1, n2, labelled1, labelled2 = _fiber_sides(f, g)
    alphabet = product_alphabet(f.source.alphabet, g.source.alphabet)
    return alphabet, n1 * n2, _matched_edges(labelled1, labelled2, n2, pair_symbol)


def _fiber_sides(f: BlockMap, g: BlockMap):
    """The node counts of the two window graphs of the fiber product and
    their edges ``(k, output, center, t)``, keyed by output symbol and
    labelled by the center of their window for :func:`_matched_rows`."""
    if f is not g and not f.target.language_equal(g.target):
        raise DomainMismatch("fiber product needs a common target")
    x, y = f.source, g.source
    r = max(f.radius, g.radius)
    fr, gr = f.padded_rule(r), g.padded_rule(r)
    nodes1, edges1 = window_graph(x, 2 * r + 1)
    nodes2, edges2 = (nodes1, edges1) if y == x else window_graph(y, 2 * r + 1)
    n1, n2 = len(nodes1), len(nodes2)
    check_budget(max(1, n1) * max(1, n2), "fiber product")
    labelled1 = [(k, fr[w], w[r], t) for k, w, t in edges1]
    labelled2 = labelled1 if f is g else [(k, gr[w], w[r], t) for k, w, t in edges2]
    return n1, n2, labelled1, labelled2


def fiber_presentation(f: BlockMap, g: BlockMap) -> Presentation:
    """{(x, y) : f(x) = g(y)} over the pair alphabet of the two sources,
    canonically presented."""
    return presentation_from_edges(*fiber_graph(f, g))


def make_block_map(
    source: Presentation,
    target: Presentation,
    radius: int,
    rule,
    validate_image: bool = True,
) -> BlockMap:
    """Validate and freeze a block map.

    The rule must be total on the source windows; words outside the
    source language are rejected.  Image inclusion in the target is checked
    exactly unless ``validate_image`` is disabled (used internally for
    constructions whose image is correct by design): the image graph is
    searched against the target automaton, and no image is built.  A
    full-shift target holds every image over its alphabet, so it is not
    searched.
    """
    if radius < 0:
        raise ValidationError(f"radius {radius} is negative")
    words = _word_list(source, 2 * radius + 1)
    check_budget(len(words), "word enumeration")
    windows = _word_index(source, 2 * radius + 1).keys()
    if not (isinstance(rule, dict) and rule.keys() == windows):
        rule = {tuple(w): v for w, v in (rule.items() if hasattr(rule, "items") else rule)}
        extra = rule.keys() - windows
        if extra:
            raise ValidationError(f"rule defined on words outside the source language: {sorted(extra)[:3]}")
        missing = windows - rule.keys()
        if missing:
            raise ValidationError(f"rule is missing {len(missing)} source windows")
    values = _kept_gather(source, _word_list, 2 * radius + 1)(rule)
    return _block_map(source, target, radius, values, validate_image)


def _block_map(source: Presentation, target: Presentation, radius: int, values: tuple[str, ...],
               validate_image: bool = True) -> BlockMap:
    """The map with these values, after ``make_block_map``'s symbol and image checks."""
    if not target.symbols.issuperset(values):
        bad = set(values).difference(target.alphabet)
        raise ValidationError(f"rule produces symbols outside the target alphabet: {sorted(bad)}")
    f = BlockMap(source, target, radius, values)
    if validate_image and not target.is_full():
        w = au.escaping_word(image_graph(source, radius, f.rule_dict, target.alphabet), target.dfa)
        if w is not None:
            raise ValidationError(f"image is not contained in the target: word {w}")
    return f


def identity_map(x: Presentation) -> BlockMap:
    return make_block_map(x, x, 0, {(a,): a for a in x.live_symbols},
                          validate_image=False)


def constant_map(x: Presentation, y: Presentation, sym: str) -> BlockMap:
    if not y.contains_periodic((sym,)):
        raise ValidationError(f"constant {sym!r} is not a uniform point of the target")
    return make_block_map(x, y, 0, {(a,): sym for a in x.live_symbols},
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
    return PeriodicPoint(image_word(f, x.segment(0, len(x.word))), 0)


def image_word(f: BlockMap, word: Word) -> Word:
    """The image word of the repetition of ``word``, a point of the source (unchecked)."""
    n, r, w, local = len(word), f.radius, f.width(), f.rule_dict
    # coordinates -r to n + r - 1, coordinate -r being word[-r % n]
    line = (tuple(word) * (2 * r // n + 3))[-r % n : -r % n + n + 2 * r]
    return tuple(local[line[i : i + w]] for i in range(n))


def apply_map_ep(f: BlockMap, x: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    if not x.in_shift(f.source):
        raise ValidationError("point is not in the source of the map")
    r, w, local = f.radius, f.width(), f.rule_dict
    L, R = len(x.left), len(x.right)
    pad_l = ((r + L - 1) // L) * L if r else 0
    pad_r = ((r + R - 1) // R) * R if r else 0
    start = x.start - pad_l
    end = x.mid_end() + pad_r
    # the windows at coordinates start - L to end + R - 1
    line = x.segment(start - L - r, end + R + r)
    out = tuple(local[line[i : i + w]] for i in range(end + R - start + L))
    return EventuallyPeriodicPoint(out[:L], out[L : L + end - start], out[L + end - start :], start)


def compose(g: BlockMap, f: BlockMap) -> BlockMap:
    """g after f."""
    if not f.target.language_equal(g.source):
        raise DomainMismatch("compose: target of f differs from source of g")
    # one value of g per source word, in words order: g writes only target symbols
    values = _kept_gather(f, _window_table, g.width())(g.values)
    check_budget(len(values), "word enumeration")
    return BlockMap(f.source, g.target, f.radius + g.radius, values)


@_per_object
def _window_table(f: BlockMap, w: int) -> tuple[int, ...]:
    """For each source word of length ``f.width() + w - 1``, in words order,
    the index among ``f.target``'s words of length ``w`` of the word that
    ``f`` writes under it: where a map of width ``w`` after ``f`` reads.
    Built once per map and width."""
    wf, local, index = f.width(), f.rule_dict, _word_index(f.target, w)
    return tuple(index[tuple(local[u[i : i + wf]] for i in range(w))]
                 for u in f.source.words(wf + w - 1))


def maps_equal(f: BlockMap, g: BlockMap) -> bool:
    """Whether two maps between the same shifts agree: equal values at
    equal radii, else the wider map's values against the narrower map's
    values on the central sub-windows."""
    if not f.source.language_equal(g.source) or not f.target.language_equal(g.target):
        raise DomainMismatch("maps_equal: presentations differ")
    if f.radius == g.radius:
        return f.values == g.values
    if f.radius > g.radius:
        f, g = g, f
    return _kept_gather(f.source, _center_index, f.width(), g.radius - f.radius)(f.values) == g.values


def reduce_radius(f: BlockMap) -> BlockMap:
    """Re-express the map at the smallest centered radius that suffices."""
    words = _word_list(f.source, f.width())
    for rho in range(f.radius):
        pad, grouped = f.radius - rho, {}
        if all(grouped.setdefault(w[pad:-pad], val) == val for w, val in zip(words, f.values)):
            return make_block_map(f.source, f.target, rho, grouped, validate_image=False)
    return f


@_per_object
def mirror_map(f: BlockMap) -> BlockMap:
    src = mirror_presentation(f.source)
    tgt = mirror_presentation(f.target)
    rule = {tuple(reversed(w)): v for w, v in f.rule_dict.items()}
    return make_block_map(src, tgt, f.radius, rule, validate_image=False)


@_per_object
def higher_block_presentation(x: Presentation, w: int) -> Presentation:
    """The width-``w`` higher block shift, built once per presentation and
    width: the window graph, each edge labelled by its window, a symbol."""
    nodes, edges = window_graph(x, w)
    return presentation_from_edges(tuple(sorted({wd for _, wd, _ in edges})), len(nodes), edges)


@_per_object
def _block_conjugacy(x: Presentation, w: int) -> tuple[BlockMap, BlockMap]:
    """``(to_blocks, from_blocks)``: the conjugacy pair between ``x`` and its
    width-``w`` higher block shift, built once per presentation and width."""
    xb, windows = higher_block_presentation(x, w), x.words(w)
    return (make_block_map(x, xb, w // 2, {win: win for win in windows}, validate_image=False),
            make_block_map(xb, x, 0, {(win,): win[w // 2] for win in windows}, validate_image=False))


def recode_to_symbol_map(f: BlockMap):
    """Recode ``f`` as a radius-0 map on the higher block presentation.

    Returns ``(f0, to_blocks, from_blocks)`` with ``f0 . to_blocks = f``
    and ``to_blocks``/``from_blocks`` a conjugacy pair, which every map of
    the same width from the same source shares; only ``f0`` is built here.
    """
    if f.radius == 0:
        ident = identity_map(f.source)
        return f, ident, ident
    to_blocks, from_blocks = _block_conjugacy(f.source, f.width())
    f0 = make_block_map(to_blocks.target, f.target, 0,
                        {(win,): val for win, val in f.rule_dict.items()}, validate_image=False)
    return f0, to_blocks, from_blocks

