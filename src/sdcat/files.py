"""The .shift and .bmap interchange formats.

Both are line oriented with ``#`` comments, and their symbols are
strings.  A derived symbol, a tuple, is spelled only here, as its parts'
spellings joined by commas in parentheses, ``((0,1),1)``; two that spell
alike raise ``ValidationError``.  Words are written as concatenated
spellings when each is a single character, and comma-separated otherwise.
A .bmap's ``radius:`` is a nonnegative integer in decimal digits, and
each ``rule:`` word is ``2 * radius + 1`` symbols wide.  An undeclared name,
a node declared twice, a second line of a key that takes one value, a
window with two outputs or a line of the other kind is a parse error.
Emitted presentations use a canonical state numbering so golden files are
stable.
"""

from __future__ import annotations

import os

from .core import (
    BlockMap,
    Presentation,
    make_block_map,
    make_presentation,
)
from .errors import ParseError, ValidationError

Word = tuple[str, ...]


def _toplevel_commas(text: str):
    depth = 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            yield i


def _split_word(text: str, alphabet) -> Word:
    cuts = list(_toplevel_commas(text))
    if cuts:
        parts = []
        start = 0
        for i in cuts:
            parts.append(text[start:i])
            start = i + 1
        parts.append(text[start:])
        parts = tuple(parts)
    elif all(len(a) == 1 for a in alphabet):
        parts = tuple(text)
    else:
        parts = (text,)
    for p in parts:
        if p not in alphabet:
            raise ParseError(f"unknown symbol {p!r} in word {text!r}")
    return parts


def _spell(symbol) -> str:
    return "(" + ",".join(map(_spell, symbol)) + ")" if isinstance(symbol, tuple) else symbol


def _spellings(alphabet) -> dict:
    """Each symbol of ``alphabet`` and how a file spells it."""
    names = {a: _spell(a) for a in alphabet}
    if len(set(names.values())) != len(names):
        raise ValidationError("two symbols of this alphabet are spelled alike")
    return names


def format_word(word: Word, alphabet) -> str:
    names = _spellings(alphabet)
    sep = "" if all(len(n) == 1 for n in names.values()) else ","
    return sep.join(names[a] for a in word)


def _fields(text: str, singles, ext: str):
    """Each line, its ``#`` comment cut, with its key and value.  Every
    line has a key, and a key in ``singles`` takes one line."""
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise ParseError(f"bad line in {ext} file: {line!r}")
        if key in singles:
            if key in seen:
                raise ParseError(f"second {key}: line in {ext} file")
            seen.add(key)
        yield line, key, rest.strip()


def parse_shift(text: str) -> Presentation:
    alphabet: list[str] | None = None
    kind: str | None = None
    forbidden: list[Word] = []
    nodes: list[str] = []
    edges: list[tuple[str, str, str]] = []
    point: str | None = None
    for line, key, rest in _fields(text, ("alphabet", "kind", "point"), ".shift"):
        if key == "alphabet":
            alphabet = rest.split()
        elif key == "kind":
            if rest not in ("sft", "graph"):
                raise ParseError(f"unknown kind {rest!r}")
            kind = rest
        elif key == "forbidden":
            if alphabet is None:
                raise ParseError("forbidden: before alphabet:")
            forbidden.extend(_split_word(w, alphabet) for w in rest.split())
        elif key == "node":
            nodes.extend(rest.split())
        elif key == "edge":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError(f"edge needs 'from to label': {line!r}")
            edges.append((parts[0], parts[1], parts[2]))
        elif key == "point":
            point = rest
        else:
            raise ParseError(f"unknown key {key!r} in .shift file")
    if alphabet is None:
        raise ParseError(".shift file needs an alphabet: line")
    # for each kind, the lines of the other kind that the file holds
    stray = {"sft": (nodes or edges) and "node: or edge:", "graph": forbidden and "forbidden:"}
    if kind is None:
        kind = "graph" if stray["sft"] else "sft"
    if stray[kind]:
        raise ParseError(f"{stray[kind]} lines in a .shift file of kind {kind}")
    if point is not None and point not in alphabet:
        raise ParseError(f"point {point!r} not in the alphabet")
    if kind == "sft":
        return make_presentation(alphabet, "sft", forbidden, point)
    declared: set[str] = set()
    for name in nodes:
        if name in declared:
            raise ParseError(f"node {name!r} declared twice")
        declared.add(name)
    for edge in edges:
        for name, known in zip(edge, (declared, declared, alphabet)):
            if name not in known:
                raise ParseError(f"edge {' '.join(edge)} names {name!r}, which no line declares")
    return make_presentation(alphabet, "graph", (nodes, edges), point)


def _read(path: str) -> str:
    """The text of an input file; a file that is not UTF-8, or a path with
    a null byte (a ``.bmap`` line may hold one), is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except ValueError as exc:  # UnicodeDecodeError is one
        raise ParseError(f"{path!r}: {exc}") from None


def load_shift(path: str) -> Presentation:
    return parse_shift(_read(path))


def format_shift(x: Presentation) -> str:
    names = _spellings(x.alphabet)
    out = [f"alphabet: {' '.join(names.values())}", "kind: graph"]
    if x.n_live():
        out.append("node: " + " ".join(f"s{i}" for i in range(x.n_live())))
    # the rows of a canonical automaton are sorted by symbol
    out += [f"edge: s{i} s{j} {names[a]}" for i, a, j in x.edges]
    if x.point is not None:
        out.append(f"point: {names[x.point]}")
    return "\n".join(out) + "\n"


def save_shift(x: Presentation, path: str) -> None:
    text = format_shift(x)  # before the file is opened, so a refusal leaves none
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_bmap(text: str, base_dir: str = ".") -> BlockMap:
    ends: dict[str, Presentation] = {}
    loaded: dict[str, Presentation] = {}  # by path, so a file named twice is one shift
    radius: int | None = None
    rule_lines: list[tuple[str, str]] = []
    default: str | None = None
    for line, key, rest in _fields(text, ("source", "target", "radius", "default"), ".bmap"):
        if key in ("source", "target"):
            path = os.path.join(base_dir, rest)
            if path not in loaded:
                loaded[path] = load_shift(path)
            ends[key] = loaded[path]
        elif key == "radius":
            if not (rest.isascii() and rest.isdigit()):
                raise ParseError(f"radius must be a nonnegative integer, not {rest!r}")
            radius = int(rest)
        elif key == "rule":
            if "->" not in rest:
                raise ParseError(f"rule line needs '->': {line!r}")
            lhs, _, rhs = rest.partition("->")
            rule_lines.append((lhs.strip(), rhs.strip()))
        elif key == "default":
            default = rest
        else:
            raise ParseError(f"unknown key {key!r} in .bmap file")
    if len(ends) < 2 or radius is None:
        raise ParseError(".bmap file needs source:, target:, and radius:")
    source, target = ends["source"], ends["target"]
    rule = {}
    for lhs, rhs in rule_lines:
        word = _split_word(lhs, source.alphabet)
        if len(word) != 2 * radius + 1:
            raise ParseError(f"rule word {lhs!r} has the wrong width for radius {radius}")
        if rhs not in target.alphabet:
            raise ParseError(f"rule output {rhs!r} not in the target alphabet")
        if rule.setdefault(word, rhs) != rhs:
            raise ParseError(f"rule window {lhs!r} given two outputs, {rule[word]!r} and {rhs!r}")
    if default is not None:
        if default not in target.alphabet:
            raise ParseError(f"default {default!r} not in the target alphabet")
        rule = {**dict.fromkeys(source.words(2 * radius + 1), default), **rule}
    return make_block_map(source, target, radius, rule)


def load_bmap(path: str) -> BlockMap:
    return parse_bmap(_read(path), base_dir=os.path.dirname(os.path.abspath(path)))


def save_bmap(f: BlockMap, path: str) -> None:
    """Write the map and sibling .shift files for its presentations."""
    base, _ = os.path.splitext(path)
    src_path = base + ".source.shift"
    tgt_path = base + ".target.shift"
    save_shift(f.source, src_path)
    save_shift(f.target, tgt_path)
    lines = [
        f"source: {os.path.basename(src_path)}",
        f"target: {os.path.basename(tgt_path)}",
        f"radius: {f.radius}",
    ]
    names = _spellings(f.target.alphabet)
    for w, val in sorted(f.rule_dict.items()):
        lines.append(f"rule: {format_word(w, f.source.alphabet)} -> {names[val]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
