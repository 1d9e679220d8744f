"""Checks on the package source itself."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sdcat"


def _names(node):
    """Every identifier that ``node`` reads, imports or looks up as an
    attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_private_module_level_definition_is_used():
    # (module, name, names read by every other top-level statement of src/)
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if named and node.name.startswith("_") and not node.name.startswith("__"):
                defs.append((path.name, node))
            uses.append((node, _names(node)))
    unused = [f"{mod}:{node.name}" for mod, node in defs
              if not any(node.name in names for other, names in uses if other is not node)]
    assert not unused, f"defined but never referenced in src/: {unused}"


def _is_empty_container(node):
    """A literal with no items, or a call that makes an empty container to
    fill later."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "defaultdict":
            return len(node.args) <= 1 and not node.keywords
        return node.func.id in ("dict", "list", "set") and not node.args and not node.keywords
    return False


def test_derived_facts_are_kept_by_the_one_memo():
    # a fact kept on its object goes through ``core._per_object``, keyed by
    # the object and the arguments: no process-wide cache and no cached
    # container filled by hand
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [where for a in node.names if a.name in ("cache", "lru_cache")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(where)
            elif isinstance(node, ast.FunctionDef) and "cached_property" in set().union(
                    *map(_names, node.decorator_list)):
                returns = [r for r in ast.walk(node) if isinstance(r, ast.Return) and r.value]
                found += [where for r in returns if _is_empty_container(r.value)]
    assert not found, f"ad-hoc caches in src/: {found}"


def test_no_module_imports_dataclasses():
    # the records of sdcat.records stand in: importing dataclasses would
    # load inspect and generate six methods per class in every process
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in mods if m.split(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported in src/: {found}"


def test_imports_are_at_module_level():
    # numpy stays lazy in ``oracle``, so that importing the CLI does not
    # load it, and ``is_regular_epic`` breaks the classify -> colimits
    # cycle; every other import is made once, at the top of its module
    allowed = {("oracle.py", None, "numpy"), ("classify.py", "is_regular_epic", "colimits")}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    mods = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    mods = [node.module or a.name for a in node.names]
                else:
                    continue
                found |= {(path.name, fn.name, node.lineno, m) for m in mods
                          if not {(path.name, None, m), (path.name, fn.name, m)} & allowed}
    assert not found, f"function-level imports in src/: {sorted(found)}"


def test_no_classify_function_catches_a_validation_error():
    # the section and retraction searches build their certificates valid
    # by construction, so nothing in the classifier validates and retries
    found = []
    tree = ast.parse((SRC / "classify.py").read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{fn.name}:{h.lineno}" for h in ast.walk(fn)
                      if isinstance(h, ast.ExceptHandler) and h.type is not None
                      and "ValidationError" in _names(h.type)]
    assert not found, f"ValidationError caught in classify.py: {found}"


def test_split_and_regular_mono_rules_read_premises_not_levels():
    # each cell reads a fact about the map and its shifts; no second
    # level-1 bijection path stands beside ``_bijection``
    tree = ast.parse((SRC / "classify.py").read_text(encoding="utf-8"))
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert "_isomorphism_rule" not in fns
    found = [f"{name}:{node.lineno}" for name in ("is_split_epic", "is_split_monic", "is_regular_monic")
             for node in ast.walk(fns[name]) if isinstance(node, ast.Attribute) and node.attr == "level"]
    assert not found, f".level read in classify.py: {found}"


def test_no_module_imports_a_name_it_never_reads():
    # a deletion leaves its imports behind; the package re-exports what
    # ``__all__`` lists, and ``from __future__`` imports are directives
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{n}" for n in names if n not in read]
    assert not found, f"imported but never read in src/: {found}"


def test_only_the_input_readers_parse_strings():
    # the engine's derived symbols are values (pairs and windows are
    # tuples) and its tags and class names are never read back; only the
    # file and command-line readers parse outside input
    parsing = {"split", "rsplit", "partition", "rpartition", "startswith", "endswith"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("files.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in parsing):
                found.append(f"{path.name}:{node.lineno}:{node.func.attr}")
    assert not found, f"string parsing outside the input readers: {found}"



def test_block_maps_are_made_by_the_core_constructors():
    # every map is frozen by ``core._block_map``, which checks its symbols
    # and image, or by ``core.compose``, whose values are symbols of the
    # outer map; no other code calls the class
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "core.py":
            allowed = {id(c) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                       and fn.name in ("_block_map", "compose") for c in ast.walk(fn)}
        found += [f"{path.name}:{c.lineno}" for c in ast.walk(tree)
                  if isinstance(c, ast.Call) and "BlockMap" in _names(c.func) and id(c) not in allowed]
    assert not found, f"BlockMap called outside core._block_map and core.compose: {found}"


def test_core_gathers_only_through_kept_itemgetters():
    # every index-table gather in ``core`` reads a gatherer that
    # ``core._gather`` built once: no ``map(seq.__getitem__, table)`` left
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    found = [c.lineno for c in ast.walk(tree)
             if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == "map"
             and c.args and isinstance(c.args[0], ast.Attribute) and c.args[0].attr == "__getitem__"]
    assert not found, f"map(<expr>.__getitem__, ...) in core.py at lines {found}"


# the paper-facing API, the budget setter and the oracle's preimage search
# are called from outside src/ only
_CALLED_FROM_OUTSIDE = {
    ("colimits", "kernel_p"), ("colimits", "cokernel_p"), ("colimits", "is_local_equivalence"),
    ("limits", "mediate_product"), ("limits", "mediate_equalizer"), ("limits", "connecting_map"),
    ("dynamics", "visibly_blocking"),
    ("errors", "set_budget"), ("oracle", "ep_preimage_search"),
}


def _traced():
    """``(module, name)`` of every function that the benchmark tracer
    hooks, from ``bench/tracing.py`` loaded by path."""
    import importlib.util

    path = SRC.parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod, name) for mod, name, _ in module.TRACED}


def _counts(node):
    """How often ``node`` reads, imports or looks up each identifier."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _attributes(node):
    """How often ``node`` looks up each attribute."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_function_and_method_is_used():
    # a public top-level function or method that nothing in src/ calls is
    # dead code, unless it is called from outside: the allowlist above and
    # the traced hooks.  A method is called through an attribute, so only an
    # attribute outside its own body counts: a parameter or local variable
    # of the same name does not
    names, attrs, defs = Counter(), Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names += _counts(tree)
        attrs += _attributes(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((path.stem, node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                defs += [(path.stem, f"{node.name}.{m.name}", m, True) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
    allowed = _CALLED_FROM_OUTSIDE | _traced()
    unused = []
    for mod, name, node, method in defs:
        total, count = (attrs, _attributes) if method else (names, _counts)
        if (not node.name.startswith("_") and (mod, name) not in allowed
                and total[node.name] == count(node)[node.name]):
            unused.append(f"{mod}:{name}")
    assert not unused, f"public but never referenced in src/: {unused}"


def test_the_strong_condition_determinizes_only_the_target_bridges():
    # every missed-word question is one lazy search of ``missing_word``
    # against the target automaton that ``_bridges`` keeps
    tree = ast.parse((SRC / "classify.py").read_text(encoding="utf-8"))
    found = [c.lineno for top in tree.body if getattr(top, "name", None) != "_bridges"
             for c in ast.walk(top) if isinstance(c, ast.Call) and "determinize" in _names(c.func)]
    assert not found, f"determinize called outside classify._bridges at lines {found}"


# the functions of src/ that call themselves, each with why its depth
# stays small
_SELF_CALLING = {
    ("analysis", "shift_period"): "recurses one level: the component subshift's period is kept",
    ("dynamics", "power"): "kept per k, and eventual_periodicity builds the powers upward",
    ("verdicts", "_render"): "recurses as deep as the witness nests",
}


def test_no_function_calls_itself():
    # a recursion once per symbol ends in RecursionError on a long window,
    # so word walks keep an explicit stack
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == node.name
                    for c in ast.walk(node)):
                found.add((path.stem, node.name))
    assert found == _SELF_CALLING.keys(), (
        f"new self-calls: {sorted(found - _SELF_CALLING.keys())}, "
        f"listed but gone: {sorted(_SELF_CALLING.keys() - found)}")


def test_one_word_walk():
    # ``automata.walk`` extends one path in place and yields each word once;
    # a loop that pops a stack of words and extends each by ``+ (symbol,)``
    # copies every prefix.  The oracle's reference search keeps its own
    # loop, bounded by its ``pad``
    allowed = {("automata.py", "walk"), ("oracle.py", "ep_preimage_search")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or (path.name, fn.name) in allowed):
                continue
            pops = extends = False
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    pops |= node.func.attr == "pop" and not node.args
                elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Add):
                    extends |= isinstance(getattr(node, "right", None) or node.value, ast.Tuple)
            if pops and extends:
                found.append(f"{path.name}:{fn.name}")
    assert not found, f"word walks outside automata.walk: {found}"


def test_one_syntactic_monoid_exploration():
    # the period set explores the syntactic monoid and keeps its size, so
    # no second routine explores it for ``analyze``
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and "explore" in _names(c.func)
                    and any(isinstance(a, ast.Constant) and a.value == "transition monoid"
                            for a in c.args)
                    for c in ast.walk(fn)):
                found.append(f"{path.name}:{fn.name}")
    assert found == ["analysis.py:periods"], found


def test_one_orbit_routine():
    # following a step until a value repeats is ``analysis._orbit``: the
    # period recurrence, the membership patterns of the SFT witness search
    # and the kernel witness walks all run it, so one loop charges the
    # budget.  Found here: a ``while x not in seen:`` loop whose body
    # stores into ``seen``
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for loop in ast.walk(fn):
                test = getattr(loop, "test", None)
                if not (isinstance(loop, ast.While) and isinstance(test, ast.Compare)
                        and isinstance(test.ops[0], ast.NotIn)
                        and isinstance(test.comparators[0], ast.Name)):
                    continue
                seen = test.comparators[0].id
                stores = any(
                    isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == seen
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == seen
                    for stmt in loop.body for node in ast.walk(stmt))
                if stores:
                    found.append(f"{path.name}:{fn.name}")
    assert found == ["analysis.py:_orbit"], found


def test_one_peel_routine():
    # dropping the nodes with no infinite past is ``core._infinite_past``:
    # the kernel view's two trims, the identical-window tails of a source,
    # ``_live_nodes`` and ``_orbit_ends`` all run it over their own edge
    # tuples, so no copy of the loop is left inline.  Found here: a loop
    # that counts a subscripted counter down, ``deg[p] -= 1``
    found, callers = [], set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if any(isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)
                   and isinstance(node.target, ast.Subscript)
                   for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))
                   for stmt in loop.body for node in ast.walk(stmt)):
                found.append(f"{path.name}:{fn.name}")
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == "_infinite_past" for call in ast.walk(fn)):
                callers.add(f"{path.name}:{fn.name}")
    assert found == ["core.py:_infinite_past"], found
    assert callers == {"analysis.py:_diagonal_view", "core.py:_identical_tails",
                       "core.py:_live_nodes", "core.py:_orbit_ends"}, callers


def test_kernel_view_peels_only_its_trim():
    # the kernel view's diagonal tails are closures from the source's
    # identical-window seeds, so its only peels are the two of the trim.
    # Found here: a diagonal peel per map
    tree = ast.parse((SRC / "analysis.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "_diagonal_view"]
    peels = [call.lineno for call in ast.walk(fn) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == "_infinite_past"]
    assert len(peels) == 2, peels


def test_equalizer_reads_no_level():
    # one maximal-part rule per restriction serves every level: on an SFT
    # it reads as the level-2 rule, so no level-2 fork comes back
    tree = ast.parse((SRC / "limits.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "equalizer"]
    found = [a.lineno for a in ast.walk(fn) if isinstance(a, ast.Attribute) and a.attr == "level"]
    assert not found, f"limits.equalizer reads a level at lines {found}"


def test_kernel_facts_search_before_they_sweep():
    # each kernel fact runs its witness search on the first off-diagonal
    # edge and sweeps the kernel graph only when that search finds
    # nothing, through the one component pass or preinjectivity's two
    # reach closures.  Found here: a component pass or closure whose
    # arguments read a field of the diagonal view
    tree = ast.parse((SRC / "analysis.py").read_text(encoding="utf-8"))
    (view,) = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "_DiagonalView"]
    # the fields, and the node lists read off them when a sweep asks
    fields = {node.target.id if isinstance(node, ast.AnnAssign) else node.name
              for node in view.body if isinstance(node, (ast.AnnAssign, ast.FunctionDef))}
    found = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "au"
                    and call.func.attr in ("strongly_connected_components", "closure")
                    and fields & {a.attr for arg in call.args for a in ast.walk(arg)
                                  if isinstance(a, ast.Attribute)}):
                found.append(f"{fn.name}:{call.func.attr}")
    assert sorted(found) == ["is_preinjective:closure", "is_preinjective:closure",
                             "off_diagonal_components:strongly_connected_components"], found


def test_only_bijectivity_reads_the_inverse():
    # ``limits.bijectivity`` is the one place that decides injective and
    # onto and reads the inverse; every isomorphism question asks it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, fn.name) for call in ast.walk(fn) if isinstance(call, ast.Call)
                          and getattr(call.func, "id", getattr(call.func, "attr", None)) == "inverse"]
    assert found == [("limits.py", "bijectivity")], found


def test_one_missed_word_search_over_the_image_graph():
    # surjectivity's NO on an endomorphism of a transitive SFT carries a
    # Garden-of-Eden pair, not a word, so no code reads ``["word"]`` off a
    # verdict's witness: a target word outside the image is asked of
    # ``analysis.missed_word``, the one ``missing_word`` search over an
    # image graph.  The strong condition's search reads the target bridges
    reads, callers = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "witness" and isinstance(node.slice, ast.Constant)
                    and node.slice.value == "word"):
                reads.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and "missing_word" in _names(c.func) for c in ast.walk(node)):
                callers.append((path.stem, node.name, "image_graph" in _names(node)))
    assert not reads, f"a verdict's word witness read at {reads}"
    assert sorted(callers) == [("analysis", "missed_word", True), ("classify", "_missed", False)], callers
