#!/usr/bin/env python3
"""Keeps the public surface closed: an item is `pub` iff another compilation
unit names it.

Checked for every `pub fn|struct|enum|trait|type|const|static` declared in
a library crate (`crates/*/src`, `src/bin` excluded, text before the
in-file `#[cfg(test)] mod tests`). Its identifier must occur in some
*other* compilation unit — another crate's library, any `src/bin/*.rs`, an
integration test (`crates/*/tests`, `tests/`), an example, the facade
(`src/`), the frozen `benchmark/src`, or one of the crate's own doctests;
comments do not count — and, for a method, so must its type. One
exception, because rustc's `private_interfaces` makes it: a type that an
item passing this test hands out (a signature, a `pub` field, an enum
variant, a trait's methods, an `impl`'s bounds and associated types) is
public even when no caller spells its name. A name listed in a `pub use` gets no exception: a
re-export nobody imports is noise whatever it points at. Everything else
is printed as `file:line name` and the script exits 1.

This is a sufficient condition, not the compiler's answer (a common name
such as `new` always occurs somewhere), but it runs in well under a second
and catches the usual regrowth: a helper published "just in case". A
finding means narrow the item to `pub(crate)` (or private, dropping any
`pub use` that re-exports it) or delete it; there is no allow-list.
`cargo clippy -- -D warnings` then reports whatever the narrowing leaves
dead.

Usage: python3 scripts/pub-surface.py [REPO_ROOT]
"""
import glob
import os
import re
import sys
from collections import namedtuple

DECL = re.compile(
    r"^(\s*)pub\s+(?:(?:const|unsafe|async)\s+)*"
    r"(fn|struct|enum|trait|type|const|static)\s+([A-Za-z_]\w*)"
)
IMPL = re.compile(r"^impl\b(?:<.*?>)?\s+(?:.*\bfor\s+)?([A-Za-z_]\w*)")
REEXPORT = re.compile(r"^\s*pub\s+use\b")
ASSOC_TYPE = re.compile(r"^\s+type\s+\w+\s*=")
PUB_FIELD = re.compile(r"^\s*pub\s+\w+\s*:")
TOKEN = re.compile(r"[A-Za-z_]\w*")
TEST_MOD = re.compile(r"\s*#\[cfg\(test\)\]")
DOC = re.compile(r"^\s*//[/!] ?(.*)$")

# One `pub` declaration: `owner` is the `impl` type of a method (else None),
# `hands_out` the identifiers its declaration exposes to a caller.
Item = namedtuple("Item", "path line name owner hands_out")


def tokens(text):
    return set(TOKEN.findall(text))


def code_of(line):
    """The line without a trailing `//` comment."""
    return line.split("//", 1)[0]


def declaration(lines, start, kind):
    """The code lines of the declaration starting at `lines[start]`: a
    function's signature, an alias / const / static up to its `;`, the
    whole body of a struct, enum or trait."""
    out, depth = [], 0
    for line in lines[start:]:
        code = code_of(line)
        if kind == "fn" and "{" in code:
            out.append(code.split("{", 1)[0])
            break
        out.append(code)
        depth += code.count("{") - code.count("}")
        if depth <= 0 and ("{" in code or "}" in code or code.rstrip().endswith(";")):
            break
    return out


def hands_out(lines, start, kind):
    body = declaration(lines, start, kind)
    if kind == "struct":
        # Private fields are nobody's business.
        body = body[:1] + [line for line in body[1:] if PUB_FIELD.match(line)]
    if kind == "trait":
        # Default method bodies are not interface; signatures end in `{` or `;`.
        body = [line.split("{", 1)[0] for line in body]
    return set().union(*(tokens(line) for line in body))


def reexported(lines, start):
    """The names the `pub use` starting at `lines[start]` introduces."""
    text = ""
    for line in lines[start:]:
        text += code_of(line)
        if ";" in text:
            break
    names = set()
    for leaf in re.split(r"[{},]", text.split(";", 1)[0]):
        leaf = leaf.strip()
        if leaf and not leaf.endswith("::"):
            names.add(TOKEN.findall(leaf)[-1])
    return names - {"self"}


def read_library_file(path):
    """Returns (items, `impl` bounds and associated types by owner, code
    tokens, doctest tokens).

    A re-exported name is an item whose owner is the string `"use"`.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    items, assoc, code, doctest = [], {}, set(), set()
    in_fence = in_tests = False
    owner = None
    for index, line in enumerate(lines):
        if TEST_MOD.match(line):
            in_tests = True
        doc = DOC.match(line)
        if doc:
            if doc.group(1).lstrip().startswith("```"):
                in_fence = not in_fence
            elif in_fence:
                doctest |= tokens(doc.group(1))
            continue
        text = code_of(line)
        code |= tokens(text)
        if in_tests:
            continue
        impl = IMPL.match(text)
        if impl:
            owner = impl.group(1)
            assoc.setdefault(owner, set()).update(tokens(text))  # bounds
        elif text.startswith("}"):
            owner = None
        elif owner and ASSOC_TYPE.match(text):
            assoc.setdefault(owner, set()).update(tokens(text))
        if REEXPORT.match(text):
            for name in sorted(reexported(lines, index)):
                items.append(Item(path, index + 1, name, "use", set()))
        decl = DECL.match(text)
        if decl:
            indent, kind, name = decl.groups()
            items.append(
                Item(path, index + 1, name, owner if indent else None, hands_out(lines, index, kind))
            )
    return items, assoc, code, doctest


def file_tokens(path):
    with open(path, encoding="utf-8") as f:
        return set().union(*(tokens(code_of(line)) for line in f), set())


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")

    libraries = {}  # crate -> (items, associated types, code tokens, doctest tokens)
    consumers = set()  # tokens of units that are nobody's library
    for crate_dir in sorted(glob.glob(os.path.join(root, "crates", "*"))):
        items, assoc, code, doctest = [], {}, set(), set()
        for path in sorted(glob.glob(os.path.join(crate_dir, "src", "**", "*.rs"), recursive=True)):
            if os.sep + os.path.join("src", "bin") + os.sep in path:
                consumers |= file_tokens(path)
                continue
            file_items, file_assoc, file_code, file_doctest = read_library_file(path)
            items += file_items
            for owner, exposed in file_assoc.items():
                assoc.setdefault(owner, set()).update(exposed)
            code |= file_code
            doctest |= file_doctest
        libraries[os.path.basename(crate_dir)] = (items, assoc, code, doctest)
        for path in glob.glob(os.path.join(crate_dir, "tests", "**", "*.rs"), recursive=True):
            consumers |= file_tokens(path)
    for pattern in ("tests/**/*.rs", "examples/**/*.rs", "src/**/*.rs", "benchmark/src/**/*.rs"):
        for path in glob.glob(os.path.join(root, pattern), recursive=True):
            consumers |= file_tokens(path)

    findings = []
    for crate, (items, assoc, _, doctest) in libraries.items():
        named = consumers | doctest
        for other, (_, _, code, _) in libraries.items():
            if other != crate:
                named |= code
        free = {item.name for item in items if item.owner is None}
        # Free items reachable from outside: named there, or handed out by
        # an item that is. A method additionally needs its type reachable.
        live = free & named
        grew = True
        while grew:
            exposed = set()
            for item in items:
                if item.owner is None and item.name in live:
                    exposed |= item.hands_out | assoc.get(item.name, set())
                elif item.owner in live and item.name in named:
                    exposed |= item.hands_out
            grew = not (exposed & free <= live)
            live |= exposed & free
        for item in items:
            if item.owner is None:
                ok = item.name in live
            elif item.owner == "use":
                ok = item.name in named
            else:
                ok = item.name in named and (item.owner in live or item.owner not in free)
            if not ok:
                findings.append(f"{os.path.relpath(item.path, root)}:{item.line} {item.name}")

    for finding in sorted(findings):
        print(finding)
    if findings:
        print(
            f"{len(findings)} `pub` item(s) no other compilation unit names: "
            "narrow to pub(crate) or delete",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
