"""Finite-automaton machinery and syntactic monoids.

Languages of presentations are factorial, so the canonical form used
throughout is a *partial* DFA in which every state is accepting and a
missing transition plays the role of the sink.  The general classes below
also carry explicit accepting sets, because several decision procedures
(split epicness, SFT witnesses) build auxiliary automata whose languages
are not factorial.

States are consecutive integers.  Symbols are opaque string tokens; words
are tuples of tokens.

Every construction numbers its states through one breadth-first explorer,
``explore``, and every reachability question is one ``closure``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ValidationError, check_budget

Word = tuple[str, ...]


@dataclass(frozen=True)
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

    def step(self, q: int | None, sym: str) -> int | None:
        if q is None:
            return None
        for a, p in self.trans[q]:
            if a == sym:
                return p
        return None

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
    that cannot outgrow an automaton already counted.
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


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction; drops the empty subset (partial-DFA convention)."""
    trans = nfa.trans

    def successors(subset):
        succs: dict[str, set[int]] = {}
        for q in subset:
            for sym, dsts in trans[q].items():
                merged = succs.get(sym)
                if merged is None:
                    succs[sym] = set(dsts)
                else:
                    merged |= dsts
        return zip(succs, map(frozenset, succs.values()))

    subsets, rows = explore(frozenset(nfa.initial), successors, "determinization")
    acc = [i for i, s in enumerate(subsets) if not s.isdisjoint(nfa.accepting)]
    return make_dfa(nfa.alphabet, rows, 0, acc)


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal partial DFA (Moore refinement with a virtual sink).

    States are renumbered in BFS order with symbols sorted, so two
    language-equal inputs minimize to structurally identical automata.
    Returns a one-state non-accepting DFA if the language is empty.
    """
    pred: list[list[int]] = [[] for _ in range(dfa.n)]
    for q, row in enumerate(dfa.trans):
        for _, p in row:
            pred[p].append(q)
    live = closure(dfa.accepting, pred.__getitem__)
    if dfa.init not in live:
        return make_dfa(dfa.alphabet, [{}], 0, [])
    # a state on a path from init to a live state is live itself
    keep = list(closure([dfa.init], lambda q: [p for _, p in dfa.trans[q] if p in live]))
    n = len(keep)
    remap = {q: i for i, q in enumerate(keep)}
    syms = sorted(set(dfa.alphabet))
    # successors in symbol order; index n is the virtual sink, alone in class 0
    nxt = []
    for q in keep:
        row = dict(dfa.trans[q])
        nxt.append([remap.get(row.get(a), n) for a in syms])
    cls = [1 if q in dfa.accepting else 2 for q in keep] + [0]
    count = len(set(cls))
    while True:
        sigs: dict[tuple, int] = {}
        cls = [sigs.setdefault((cls[q], *map(cls.__getitem__, nxt[q])), len(sigs) + 1)
               for q in range(n)] + [0]
        if len(sigs) + 1 == count:
            break
        count = len(sigs) + 1

    reps: dict[int, int] = {}
    for q in range(n):
        reps.setdefault(cls[q], q)

    def successors(c):
        return [(a, cls[p]) for a, p in zip(syms, nxt[reps[c]]) if p != n]

    order, rows = explore(cls[remap[dfa.init]], successors, None)
    acc = [i for i, c in enumerate(order) if keep[reps[c]] in dfa.accepting]
    return make_dfa(dfa.alphabet, rows, 0, acc)


def determinize_minimize(nfa: Nfa) -> Dfa:
    return minimize(determinize(nfa))


def is_empty_language(dfa: Dfa) -> bool:
    return dfa.accepting.isdisjoint(closure([dfa.init], lambda q: [p for _, p in dfa.trans[q]]))


def product_dfa(a: Dfa, *bs: Dfa) -> Dfa:
    """The difference automaton: it accepts L(a) minus every L(b).

    States are reachable tuples, with ``-1`` for a ``b`` component that has
    left its partial automaton.  A tuple whose ``a`` component has left
    accepts nothing, so it is not explored.
    """
    if any(set(a.alphabet) != set(b.alphabet) for b in bs):
        raise ValidationError("alphabet mismatch in product")
    # row -1, the empty one, is where a component that has left stays
    b_rows = [[*map(dict, b.trans), {}] for b in bs]

    def successors(state):
        rows = [table[y] for table, y in zip(b_rows, state[1:])]
        return [(sym, (nx, *[row.get(sym, -1) for row in rows])) for sym, nx in a.trans[state[0]]]

    def pair_successors(state):  # one b, the common case: no inner loop
        row = b_rows[0][state[1]]
        return [(sym, (nx, row.get(sym, -1))) for sym, nx in a.trans[state[0]]]

    states, rows = explore((a.init, *[b.init for b in bs]),
                           pair_successors if len(bs) == 1 else successors, "product automaton")
    acc = [i for i, s in enumerate(states) if s[0] in a.accepting]
    for j, b in enumerate(bs, 1):
        acc = [i for i in acc if states[i][j] not in b.accepting]
    return make_dfa(a.alphabet, rows, 0, acc)


def included(a: Dfa, b: Dfa) -> bool:
    """L(a) subseteq L(b)."""
    return not product_dfa(a, b).accepting


def separating_word(a: Dfa, *bs: Dfa) -> Word | None:
    """Shortlex-least word in L(a) outside every L(b), or None."""
    return shortest_accepted(product_dfa(a, *bs))


def shortest_accepted(dfa: Dfa) -> Word | None:
    """Shortlex-least accepted word, or None."""
    if not dfa.accepting:
        return None
    dist: dict[int, Word] = {dfa.init: ()}
    if dfa.init in dfa.accepting:
        return ()
    queue = deque([dfa.init])
    while queue:
        q = queue.popleft()
        for a, p in sorted(dfa.trans[q]):
            if p not in dist:
                dist[p] = dist[q] + (a,)
                if p in dfa.accepting:
                    return dist[p]
                queue.append(p)
    return None


def words_of_length(dfa: Dfa, n: int):
    """All accepted words of length exactly n, lexicographic in symbol order."""
    count = count_words(dfa, n)
    if count > 0:
        check_budget(count, "word enumeration")
    out: list[Word] = []

    def rec(q: int, word: Word):
        if len(word) == n:
            if q in dfa.accepting:
                out.append(word)
            return
        for a, p in sorted(dfa.trans[q]):
            rec(p, word + (a,))

    rec(dfa.init, ())
    return out


def count_words(dfa: Dfa, n: int) -> int:
    vec = {dfa.init: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for q, c in vec.items():
            for _, p in dfa.trans[q]:
                nxt[p] = nxt.get(p, 0) + c
        vec = nxt
    return sum(c for q, c in vec.items() if q in dfa.accepting)


# ---------------------------------------------------------------------------
# Strongly connected components (iterative Tarjan)


def strongly_connected_components(nodes, succ) -> list[list]:
    """SCCs of the graph given by ``succ`` in reverse topological order."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    result: list[list] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    advanced = True
                    break
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                result.append(comp)
    return result


def graph_period(nodes, succ) -> int:
    """gcd of cycle lengths of a strongly connected graph (0 if acyclic)."""
    from math import gcd

    nodes = list(nodes)
    if not nodes:
        return 0
    level = {nodes[0]: 0}
    queue = deque([nodes[0]])
    g = 0
    edges = []
    while queue:
        q = queue.popleft()
        for p in succ(q):
            edges.append((q, p))
            if p not in level:
                level[p] = level[q] + 1
                queue.append(p)
    for q, p in edges:
        g = gcd(g, level[q] + 1 - level[p])
    return abs(g)


# ---------------------------------------------------------------------------
# Finite monoids


@dataclass(frozen=True)
class FiniteMonoid:
    """A finite monoid given by its multiplication table.

    ``gens`` maps each alphabet symbol to an element, and ``class_of``
    extends this to words (the class of the empty word is the identity).
    ``zero`` is the absorbing element if one exists.
    """

    size: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    gens: tuple[tuple[str, int], ...]
    zero: int | None

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def class_of(self, word) -> int:
        g = dict(self.gens)
        e = self.identity
        for a in word:
            e = self.mul(e, g[a])
        return e

    def is_idempotent(self, x: int) -> bool:
        return self.mul(x, x) == x


def monoid_from_functions(alphabet, n_states, sym_functions) -> FiniteMonoid:
    """Transition monoid generated by total functions on ``range(n_states)``.

    Functions are tuples ``f`` with ``f[q]`` the image of ``q``; composition
    of the actions of words proceeds left to right.
    """
    fns = [sym_functions[a] for a in alphabet]

    def successors(f):
        return [(a, tuple(g[x] for x in f)) for a, g in zip(alphabet, fns)]

    order, rows = explore(tuple(range(n_states)), successors, "transition monoid")
    elems = {f: i for i, f in enumerate(order)}
    gens = [(a, rows[0][a]) for a in alphabet]
    size = len(order)
    table = []
    for f in order:
        row = []
        for g in order:
            h = tuple(g[f[q]] for q in range(n_states))
            row.append(elems[h])
        table.append(tuple(row))
    zero = None
    for i in range(size):
        if all(table[i][j] == i and table[j][i] == i for j in range(size)):
            zero = i
            break
    return FiniteMonoid(size, tuple(table), 0, tuple(gens), zero)


def syntactic_monoid_of_dfa(dfa: Dfa) -> FiniteMonoid:
    """Syntactic monoid of L(dfa), via the completed minimal DFA.

    The input must already be minimal (canonical); a sink state is adjoined
    only when some transition is missing.
    """
    partial = any(len(dfa.trans[q]) < len(set(dfa.alphabet)) for q in range(dfa.n))
    n = dfa.n + 1 if partial else dfa.n
    sink = dfa.n
    fns = {}
    for a in set(dfa.alphabet):
        f = []
        for q in range(dfa.n):
            p = dfa.step(q, a)
            f.append(sink if p is None else p)
        if partial:
            f.append(sink)
        fns[a] = tuple(f)
    return monoid_from_functions(sorted(set(dfa.alphabet)), n, fns)


# ---------------------------------------------------------------------------
# Partial transition functions (period machinery)

UNDEF = -1


def word_action(step, states: int, word) -> tuple[int, ...]:
    """Partial function of a word on ``range(states)``; ``step(q, a)`` may
    return None."""
    fn = list(range(states))
    for a in word:
        fn = [UNDEF if q == UNDEF else (UNDEF if step(q, a) is None else step(q, a)) for q in fn]
    return tuple(fn)


def compose_pfn(f, g):
    """Apply f, then g."""
    return tuple(UNDEF if x == UNDEF else g[x] for x in f)


def pfn_has_cycle(f) -> bool:
    n = len(f)
    for q in range(n):
        x = q
        for _ in range(n):
            x = f[x]
            if x == UNDEF:
                break
            if x == q:
                return True
    return False


def eventual_image(f) -> frozenset[int]:
    """States with arbitrarily long backward chains under the partial fn."""
    n = len(f)
    current = frozenset(range(n))
    for _ in range(n + 1):
        nxt = frozenset(f[q] for q in current if f[q] != UNDEF)
        if nxt == current:
            break
        current = nxt
    return current


def forever_defined(f) -> frozenset[int]:
    """States q with f^k(q) defined for all k."""
    n = len(f)
    out = set()
    for q in range(n):
        x = q
        ok = True
        for _ in range(n + 1):
            x = f[x]
            if x == UNDEF:
                ok = False
                break
        if ok:
            out.add(q)
    return frozenset(out)
