"""Finite-automaton machinery.

Languages of presentations are factorial, so the canonical form used
throughout is a *partial* DFA in which every state is accepting and a
missing transition plays the role of the sink.  The general classes below
also carry explicit accepting sets, because several decision procedures
(split epicness, SFT witnesses) build auxiliary automata whose languages
are not factorial.

States are consecutive integers.  Symbols are opaque string tokens; words
are tuples of tokens.

Every construction numbers its states through one breadth-first explorer,
``explore``, every reachability question is one ``closure``, and every
search for a word stops early in one ``first_word``.  Whether a graph
reads every word of a DFA is one lazy search, ``missing_word``, which
steps sets of graph states and builds no subset automaton.  Every word
list is one ``walk``, and ``minimize`` refines the rows the DFA has.

A word acts on states as a partial function, a tuple with ``UNDEF`` where
it is undefined; this module builds and composes them, and ``core`` reads
their cycles and tails with the peel that trims every graph.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import budget, check_budget
from .records import record

Word = tuple[str, ...]


@record
class Dfa:
    """Partial DFA.  ``trans[q]`` maps a symbol to the successor of ``q``.

    The language is ``{w : delta(init, w) defined and accepting}``; the
    empty word is accepted iff ``init`` is accepting.  ``trans`` is stored
    as a tuple of tuples so instances are hashable.
    """

    alphabet: tuple[str, ...]
    n: int
    trans: tuple[tuple[tuple[str, int], ...], ...]
    init: int
    accepting: frozenset[int]

    @cached_property
    def rows(self) -> tuple[dict[str, int], ...]:
        """``trans`` as one dict per state, from symbol to successor."""
        return tuple(map(dict, self.trans))

    def step(self, q: int | None, sym: str) -> int | None:
        if q is None:
            return None
        return self.rows[q].get(sym)

    def run(self, word) -> int | None:
        q: int | None = self.init
        for a in word:
            q = self.step(q, a)
            if q is None:
                return None
        return q

    def accepts(self, word) -> bool:
        q = self.run(word)
        return q is not None and q in self.accepting


def make_dfa(alphabet, trans_dicts, init, accepting) -> Dfa:
    trans = tuple(tuple(sorted(d.items())) for d in trans_dicts)
    return Dfa(tuple(alphabet), len(trans_dicts), trans, init, frozenset(accepting))


class Nfa:
    """Nondeterministic automaton with initial and accepting state sets."""

    def __init__(self, alphabet, n, edges, initial, accepting):
        self.alphabet = tuple(alphabet)
        self.n = n
        self.trans: list[dict[str, set[int]]] = [{} for _ in range(n)]
        for src, sym, dst in edges:
            self.trans[src].setdefault(sym, set()).add(dst)
        self.initial = set(initial)
        self.accepting = set(accepting)

    def edges(self):
        for q, d in enumerate(self.trans):
            for sym, dsts in d.items():
                for p in dsts:
                    yield q, sym, p


def explore(start, successors, what: str | None):
    """Number the states reachable from ``start`` in breadth-first order.

    ``successors(state)`` yields ``(symbol, state)`` pairs.  Returns
    ``(states, trans)`` with ``states[0] == start`` and ``trans[i]`` mapping
    each symbol to the number of its successor.  Each new state counts
    against the work budget under ``what``; ``None`` is for renumberings
    that cannot outgrow an automaton already counted, or for callers that
    count the states themselves.
    """
    index = {start: 0}
    states = [start]
    trans: list[dict] = []
    for state in states:
        row = {}
        for sym, nxt in successors(state):
            i = index.get(nxt)
            if i is None:
                i = index[nxt] = len(states)
                states.append(nxt)
                if what is not None:
                    check_budget(len(states), what)
            row[sym] = i
        trans.append(row)
    return states, trans


def closure(seeds, succ) -> set:
    """The states reachable from ``seeds`` (included) along ``succ``."""
    out = set(seeds)
    stack = list(out)
    while stack:
        for p in succ(stack.pop()):
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


def _subset_step(trans, subset) -> dict[str, set[int]]:
    """The successors of a set of NFA states, by symbol; a symbol that
    leads nowhere is absent."""
    succs: dict[str, set[int]] = {}
    for q in subset:
        for sym, dsts in trans[q].items():
            merged = succs.get(sym)
            if merged is None:
                succs[sym] = set(dsts)
            else:
                merged |= dsts
    return succs


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction; drops the empty subset (partial-DFA convention)."""
    trans = nfa.trans

    def successors(subset):
        succs = _subset_step(trans, subset)
        return zip(succs, map(frozenset, succs.values()))

    subsets, rows = explore(frozenset(nfa.initial), successors, "determinization")
    acc = [i for i, s in enumerate(subsets) if not s.isdisjoint(nfa.accepting)]
    return make_dfa(nfa.alphabet, rows, 0, acc)


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal partial DFA (Moore refinement on the rows).

    States are renumbered in BFS order with symbols sorted, so two
    language-equal inputs minimize to structurally identical automata.
    Returns a one-state non-accepting DFA if the language is empty.

    The first classes split states by acceptance and by the symbols they
    read, so a round reads each edge once.  Classes are numbered in the
    order of their first member in BFS order, which is the quotient's BFS
    order: the members of a class have the same successor classes.
    """
    pred: list[list[int]] = [[] for _ in range(dfa.n)]
    for q, row in enumerate(dfa.trans):
        for _, p in row:
            pred[p].append(q)
    live = closure(dfa.accepting, pred.__getitem__)
    if dfa.init not in live:
        return make_dfa(dfa.alphabet, [{}], 0, [])
    # a state on a path from init to a live state is live itself
    keep, rows = explore(dfa.init, lambda q: [(a, p) for a, p in dfa.trans[q] if p in live], None)
    sigs: dict[tuple, int] = {}
    cls = [sigs.setdefault((q in dfa.accepting, *row), len(sigs)) for q, row in zip(keep, rows)]
    count = 0
    while len(sigs) > count:
        count, sigs = len(sigs), {}
        cls = [sigs.setdefault((c, *map(cls.__getitem__, row.values())), len(sigs))
               for c, row in zip(cls, rows)]
    # one member of each class stands for it, the classes in their order
    reps = dict(zip(cls, range(len(cls))))
    out = [{a: cls[p] for a, p in rows[q].items()} for q in reps.values()]
    return make_dfa(dfa.alphabet, out, 0, [c for c, q in reps.items() if keep[q] in dfa.accepting])


def determinize_minimize(nfa: Nfa) -> Dfa:
    return minimize(determinize(nfa))


def first_word(starts, successors, stop, what: str | None) -> tuple[Word | None, object]:
    """Breadth-first search from ``starts``, in order, with early exit.

    States are reached in ``explore``'s order.  Returns the word from a
    start to the first successor for which ``stop`` holds, tested before
    the seen-check, and that successor; the starts themselves are not
    tested.  Returns ``(None, None)`` once every reachable state is seen.
    With one start and successors in sorted symbol order, the word is the
    shortlex-least one to a stopping state.  Each new state counts against
    the work budget under ``what``.
    """
    parent: dict = dict.fromkeys(starts)
    states = list(parent)
    for state in states:
        for sym, nxt in successors(state):
            if stop(nxt):
                word = [sym]
                while parent[state] is not None:
                    state, sym = parent[state]
                    word.append(sym)
                return tuple(reversed(word)), nxt
            if nxt not in parent:
                parent[nxt] = (state, sym)
                states.append(nxt)
                if what is not None:
                    check_budget(len(states), what)
    return None, None


def _product_successors(a: Dfa, b: Dfa):
    """Successors of the pairs of the difference automaton of ``a`` and
    ``b``, with ``-1`` for a ``b`` state that has left its partial
    automaton; a pair whose ``a`` state has left accepts nothing, so it has
    none."""
    b_rows = [*b.rows, {}]  # row -1, the empty one, is where a leaving b stays

    def successors(state):
        row = b_rows[state[1]]
        return [(sym, (nx, row.get(sym, -1))) for sym, nx in a.trans[state[0]]]

    return successors


def product_dfa(a: Dfa, b: Dfa) -> Dfa:
    """The difference automaton: it accepts L(a) minus L(b)."""
    states, rows = explore((a.init, b.init), _product_successors(a, b), "product automaton")
    acc = [i for i, (x, y) in enumerate(states) if x in a.accepting and y not in b.accepting]
    return make_dfa(a.alphabet, rows, 0, acc)


def included(a: Dfa, b: Dfa) -> bool:
    """L(a) subseteq L(b): no word separates them."""
    return separating_word(a, b) is None


def separating_word(a: Dfa, b: Dfa) -> Word | None:
    """Shortlex-least word in L(a) outside L(b), or None.

    The difference automaton is searched, not built: the search stops at
    the first accepting pair.
    """
    def accepting(state):
        return state[0] in a.accepting and state[1] not in b.accepting

    start = (a.init, b.init)
    if accepting(start):
        return ()
    return first_word([start], _product_successors(a, b), accepting, "product automaton")[0]


def missing_word(dfa: Dfa, step, start, accepting) -> Word | None:
    """Shortlex-least nonempty word of L(dfa) that a graph reads from no
    state of ``start`` into a state of ``accepting``, or None.

    ``step(subset)`` maps each symbol to the graph states it leads to from
    the frozenset ``subset``, as :func:`_subset_step` does.  A
    breadth-first search over pairs (state of ``dfa``, set of graph
    states) stops at the first set that holds no accepting state, under an
    accepting state of ``dfa``; no subset automaton is built or minimized
    (on-the-fly inclusion; De Wulf, Doyen, Henzinger & Raskin, CAV 2006).
    Only successor sets are tested: in a graph whose states all accept the
    empty word labels the empty path, and other callers test it
    themselves.
    """
    def successors(pair):
        q, subset = pair
        succs = step(subset)
        return [(sym, (p, frozenset(succs.get(sym, ())))) for sym, p in dfa.trans[q]]

    def missed(pair):
        return pair[0] in dfa.accepting and pair[1].isdisjoint(accepting)

    return first_word([(dfa.init, frozenset(start))], successors, missed, "determinization")[0]


def escaping_word(graph: Nfa, dfa: Dfa) -> Word | None:
    """A shortest word labelling a path of ``graph`` out of one of its
    initial states that leaves the partial automaton ``dfa``, or None.

    A breadth-first search over pairs (state of ``graph``, state of
    ``dfa``) from every initial state; ``dfa`` is deterministic, so there
    is no subset construction.
    """
    rows = dfa.rows

    def successors(pair):
        s, q = pair
        row = rows[q]
        return [(sym, (d, row.get(sym))) for sym, dsts in graph.trans[s].items() for d in dsts]

    starts = [(s, dfa.init) for s in sorted(graph.initial)]
    return first_word(starts, successors, lambda pair: pair[1] is None, "image inclusion")[0]


def walk(rows, start, n: int):
    """Each word of length ``n`` read from ``start``, with the state it
    ends in, in the order of ``rows[q]``, the ``(symbol, successor)`` pairs
    of state ``q`` (as in ``Dfa.trans``).  One path is extended in place,
    so no prefix is copied; for ``n <= 0`` the empty word is the one word.
    """
    if n <= 0:
        yield (), start
        return
    word = [None] * n
    last = n - 1
    stack = [iter(rows[start])]
    while stack:
        depth = len(stack) - 1
        for a, p in stack[-1]:
            word[depth] = a
            if depth == last:
                yield tuple(word), p
            else:
                stack.append(iter(rows[p]))
                break
        else:
            stack.pop()


def words_of_length(dfa: Dfa, n: int):
    """All accepted words of length exactly n, lexicographic in symbol order."""
    check_budget(count_words(dfa, n, budget()), "word enumeration")
    return [word for word, q in walk(dfa.trans, dfa.init, n) if q in dfa.accepting]


def count_words(dfa: Dfa, n: int, cap: int | None = None) -> int:
    """The number of accepted words of length n; with ``cap``, a number past
    it once a walk to length n is seen to take more steps: n itself, before
    any counting, or the paths of the first length that outnumber it."""
    if cap is not None and n > cap:
        return n
    vec = {dfa.init: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for q, c in vec.items():
            for _, p in dfa.trans[q]:
                nxt[p] = nxt.get(p, 0) + c
        vec = nxt
        if cap is not None and sum(vec.values()) > cap:
            return sum(vec.values())
    return sum(c for q, c in vec.items() if q in dfa.accepting)


# ---------------------------------------------------------------------------
# Strongly connected components (iterative Tarjan)


def strongly_connected_components(nodes, succ) -> list[tuple[list[int], int]]:
    """``(component, period)`` for each SCC of the graph given by ``succ``
    on ``nodes``, in reverse topological order: ``nodes`` is ``range(n)``
    or a list of nodes in increasing order that ``succ`` never leaves, such
    as the live nodes of a graph in a wider numbering, and the roots of the
    depth-first search are taken in that order.

    The period is the gcd of the component's cycle lengths, 0 when it has
    no inner edge.  A component spans a subtree of the DFS forest, so its
    period is the gcd of ``depth(q) + 1 - depth(p)`` over its inner edges
    ``q -> p``: tree edges add 0, and every other inner edge ends at a node
    that is still on the stack."""
    n = nodes[-1] + 1 if nodes else 0
    index = [-1] * n
    low = [0] * n
    depth = [0] * n
    period = [0] * n
    place = [-1] * n  # position on the stack, -1 when off it
    stack: list[int] = []
    result: list[tuple[list[int], int]] = []
    counter = 0

    for root in nodes:
        if index[root] >= 0:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        place[root] = len(stack)
        stack.append(root)
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    depth[nxt] = len(work)
                    place[nxt] = len(stack)
                    stack.append(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    break
                if place[nxt] >= 0:
                    if index[nxt] < low[node]:
                        low[node] = index[nxt]
                    period[node] = gcd(period[node], depth[node] + 1 - depth[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    k = place[node]
                    comp = stack[k:][::-1]
                    del stack[k:]
                    for w in comp:
                        place[w] = -1
                    result.append((comp, period[node]))
                else:
                    # not a root, so its parent is in its component
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    period[parent] = gcd(period[parent], period[node])
    return result


# ---------------------------------------------------------------------------
# Partial transition functions

UNDEF = -1


def word_action(step, states: int, word) -> tuple[int, ...]:
    """Partial function of a word on ``range(states)``; ``step(q, a)`` may
    return None."""
    fn = list(range(states))
    for a in word:
        fn = [UNDEF if q == UNDEF or (p := step(q, a)) is None else p for q in fn]
    return tuple(fn)


def compose_pfn(f, g):
    """Apply f, then g."""
    return tuple(UNDEF if x == UNDEF else g[x] for x in f)

