#!/usr/bin/env python3
"""Export lint: no exported value without a production caller.

Every `val` declared in lib/**/*.mli (nested `module X : sig ... end`
blocks add to its path, so `Sync.Ivar.create` and
`Sync.Mailbox.create` are two values) must be named by some other .ml
under lib/, bin/, bench/ or perfbench/. A file names a value only
through its module path, resolved the way the compiler would:

  - a qualified name, `Sfs.read_page`, `Tier.Fleet.attach` or
    `Sync.Ivar.peek`, whose module prefix resolves through the library
    wrappers (`Tier`), the file's own library (`Fleet` inside
    lib/tier), `open`s, `include`s and aliases (`module F = Fleet`);
  - a bare name inside a scope that opens, includes or local-opens
    (`M.( ... )`) the value's module.

A local module definition (`module X = struct ... end`) shadows a
library module of the same name. Comments, strings, labels, record
fields and type expressions name no value. The module's own .ml and
.mli do not count. Scopes are approximate: an `open` or alias lasts to
the end of the bracket, `struct`/`sig`/`begin` group it appears in, so
the lint can over-count callers but never misses a qualified one.

A value that no production code names must be listed in
tools/exports_allowlist.txt, one entry a line:

    lib/core/frames.mli  Frames.alloc_run  test/test_extensions.ml: <behaviour>

The reason starts with the tests or examples (comma-separated) that
name the value, then a colon and the behaviour they check. The lint
fails on an unlisted value without a production caller, on a listed
value that gained one or is gone, and on a cited file that does not
name the value. So the allowlist only shrinks, and every entry is one
a test or an example really needs.

Run from the repository root: python3 tools/lint_exports.py
"""

import os
import re
import sys

PRODUCTION = ("lib", "bin", "bench", "perfbench")
CITABLE = ("test", "examples")
ALLOWLIST = os.path.join("tools", "exports_allowlist.txt")

CHAR = re.compile(r"'(\\[^']*|[^\\'])'")
TOKEN = re.compile(
    r"(?P<skip>[0-9][0-9A-Za-z_.']*|'[a-z_][A-Za-z0-9_']*|`[A-Za-z_][A-Za-z0-9_']*"
    r"|[~?][a-z_][A-Za-z0-9_']*:?)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<sym>\[\||\|\]|->|:=|::|[()\[\]{}.:=;|])")
OPENERS = {"(": ")", "[": "]", "[|": "|]", "{": "}",
           "struct": "end", "sig": "end", "begin": "end", "object": "end"}
CLOSERS = {")", "]", "|]", "}", "end"}
KEYWORDS = set("""and as assert begin class constraint do done downto else end
exception external false for fun function functor if in include inherit
initializer lazy let match method module mutable new nonrec object of open
or private rec sig struct then to true try type val virtual when while
with""".split())
# After these a lowercase identifier is being defined, not named.
BINDERS = {"let", "rec", "and", "val", "external", "method", "type", "fun"}
# A `type` declaration runs until one of these starts the next item.
ITEM_STARTS = {"let", "val", "module", "open", "include", "exception",
               "external", "type", "class", "in"}
LOCAL = ("<local>",)


def strip_comments_and_strings(src):
    """The source with comments, string and char literals blanked."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
        elif depth:
            i += 1
        elif c == "'" and CHAR.match(src, i):
            i = CHAR.match(src, i).end()
        else:
            out.append(c)
            i += 1
            continue
        out.append(" ")  # a skipped token still separates identifiers
    return "".join(out)


def tokens(src):
    return [m.group("id") or m.group("sym") or "~"
            for m in TOKEN.finditer(strip_comments_and_strings(src))]


def upper(tok):
    return tok[:1].isupper()


def lower(tok):
    return (tok[:1].islower() or tok[:1] == "_") and tok not in KEYWORDS


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def sources(base, roots):
    for root in roots:
        for d, dirs, files in os.walk(os.path.join(base, root)):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.relpath(os.path.join(d, f), base)


def unit_name(path):
    return os.path.basename(path).split(".")[0].capitalize()


def library_names(base):
    """lib/<dir> -> the module name of the library built there."""
    libs = {}
    for d in sorted(os.listdir(os.path.join(base, "lib"))):
        dune = os.path.join(base, "lib", d, "dune")
        if os.path.exists(dune):
            m = re.search(r"\(name\s+([a-z_0-9]+)\)", read(dune))
            if m:
                libs[os.path.join("lib", d)] = m.group(1).capitalize()
    return libs


class Universe:
    """Every lib module's full path, and every value its .mli exports."""

    def __init__(self, base):
        self.libs = library_names(base)
        self.modules = {(lib,) for lib in self.libs.values()}
        self.vals = {}  # (module path, value) -> (mli, display key)
        for path in sources(base, ("lib",)):
            lib = self.libs.get(os.path.dirname(path))
            if lib is None:
                continue
            unit = unit_name(path)
            full = (lib,) if unit == lib else (lib, unit)
            self.modules.add(full)
            if path.endswith(".mli"):
                self.declare(path, full, unit, tokens(read(os.path.join(base, path))))

    def declare(self, mli, full, unit, toks):
        """Walk one .mli: `val`s at sig level, nested `module X : sig`."""
        stack = [(full, (unit,), True)]  # path, display path, collects vals
        i = 0
        while i < len(toks):
            t = toks[i]
            path, shown, live = stack[-1]
            if (t == "module" and i + 3 < len(toks) and upper(toks[i + 1])
                    and toks[i + 2] == ":" and toks[i + 3] == "sig"):
                name = toks[i + 1]
                self.modules.add(path + (name,))
                stack.append((path + (name,), shown + (name,), live))
                i += 4
                continue
            if t in OPENERS:  # module type ... = sig, object, brackets
                stack.append((path, shown, False))
            elif t in CLOSERS and len(stack) > 1:
                stack.pop()
            elif t == "val" and live and i + 1 < len(toks) and lower(toks[i + 1]):
                self.vals[(path, toks[i + 1])] = (mli, ".".join(shown + (toks[i + 1],)))
            i += 1


class Scan:
    """The values one source file names, resolved by module path."""

    def __init__(self, uni, base, path, siblings):
        self.uni = uni
        self.named = set()
        own_lib = uni.libs.get(os.path.dirname(path))
        # The outermost frame: modules of the file's own library, or the
        # sibling modules of an executable or test directory.
        outer = []
        for sib in siblings:
            name = unit_name(sib)
            if own_lib:
                outer.append(("alias", name, (own_lib,) if name == own_lib else (own_lib, name)))
            else:
                outer.append(("alias", name, LOCAL))
        self.frames = [("<file>", outer)]
        # An .mli names no value, but its opens and aliases still count.
        self.walk(tokens(read(os.path.join(base, path))), values=not path.endswith(".mli"))

    # -- scope ---------------------------------------------------------

    def resolve(self, parts):
        """Full path of a dotted module path, or None."""
        head, rest = parts[0], tuple(parts[1:])
        for _, binds in reversed(self.frames):
            for b in reversed(binds):
                if b[0] == "alias" and b[1] == head:
                    return None if b[2] == LOCAL else self.known(b[2] + rest)
                if b[0] == "open" and b[1] + (head,) in self.uni.modules:
                    return self.known(b[1] + (head,) + rest)
        if (head,) in self.uni.modules:
            return self.known((head,) + rest)
        return None

    def known(self, full):
        return full if full in self.uni.modules else None

    def bind(self, entry):
        self.frames[-1][1].append(entry)

    def opened(self):
        for _, binds in self.frames:
            for b in binds:
                if b[0] == "open":
                    yield b[1]

    # -- walk ----------------------------------------------------------

    def path_at(self, toks, i):
        """The dotted module path starting at i, and the index after it."""
        parts = [toks[i]]
        j = i + 1
        while j + 1 < len(toks) and toks[j] == "." and upper(toks[j + 1]):
            parts.append(toks[j + 1])
            j += 2
        return parts, j

    def walk(self, toks, values=True):
        i, n = 0, len(toks)
        typedecl = None  # frame depth of an open `type` declaration
        while i < n:
            t = toks[i]
            prev = toks[i - 1] if i else ""
            if typedecl is not None and len(self.frames) <= typedecl and t in ITEM_STARTS | CLOSERS:
                typedecl = None
            if t == "type" and prev != "module":
                typedecl = len(self.frames)
            if t in OPENERS:
                self.frames.append((OPENERS[t], []))
                i += 1
                continue
            if t in CLOSERS:
                while len(self.frames) > 1:
                    closer, _ = self.frames.pop()
                    if closer == t:
                        break
                i += 1
                continue
            if t in ("open", "include") and i + 1 < n and upper(toks[i + 1]):
                parts, j = self.path_at(toks, i + 1)
                full = self.resolve(parts)
                if full and not (j < n and toks[j] == "("):
                    self.bind(("open", full))
                i = j
                continue
            if t == "module" and i + 1 < n and upper(toks[i + 1]):
                name, j = toks[i + 1], i + 2
                target = LOCAL
                if j + 1 < n and toks[j] == "=" and upper(toks[j + 1]):
                    parts, k = self.path_at(toks, j + 1)
                    if not (k < n and toks[k] in ("(", ".")):
                        target = self.resolve(parts) or LOCAL
                self.bind(("alias", name, target))
                i = j
                continue
            if upper(t) and prev != ".":
                parts, j = self.path_at(toks, i)
                if j + 1 < n and toks[j] == "." and toks[j + 1] in ("(", "[", "[|", "{"):
                    full = self.resolve(parts)  # local open M.( ... )
                    self.frames.append((OPENERS[toks[j + 1]], [("open", full)] if full else []))
                    i = j + 2
                    continue
                if (values and typedecl is None and j + 1 < n and toks[j] == "."
                        and lower(toks[j + 1]) and prev not in (":", "of")):
                    full = self.resolve(parts)
                    if full:
                        self.named.add((full, toks[j + 1]))
                    i = j + 2
                    continue
                i = j
                continue
            if (values and typedecl is None and lower(t) and prev != "."
                    and prev not in BINDERS):
                for full in self.opened():
                    self.named.add((full, t))
            i += 1


def scan(base="."):
    """(universe, production names, citable names per file)."""
    uni = Universe(base)
    by_dir = {}
    files = list(sources(base, PRODUCTION + CITABLE))
    for f in files:
        by_dir.setdefault(os.path.dirname(f), []).append(f)
    prod, cite = {}, {}
    for f in files:
        siblings = sorted({x for x in by_dir[os.path.dirname(f)] if x.endswith(".ml")})
        own = f if f.endswith(".mli") else f + "i"
        named = {k for k in Scan(uni, base, f, siblings).named & uni.vals.keys()
                 if uni.vals[k][0] != own}
        if f.split(os.sep)[0] in PRODUCTION:
            for key in named:
                prod.setdefault(key, set()).add(f)
        else:
            cite[f] = named
    return uni, prod, cite


def allowlist(path):
    entries, errors = {}, []
    for no, line in enumerate(read(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        cited, _, behaviour = (parts[2] if len(parts) == 3 else "").partition(":")
        files = [c.strip() for c in cited.split(",") if c.strip()]
        if not files or not behaviour.strip() or any(
                not f.startswith(tuple(c + "/" for c in CITABLE)) for f in files):
            errors.append(f"{path}:{no}: the reason must be '<test or example files>: "
                          f"<behaviour they check>': {line}")
            continue
        entries[(parts[0], parts[1])] = (no, files)
    return entries, errors


def main(base="."):
    uni, prod, cite = scan(base)
    orphans = {uni.vals[k]: k for k in uni.vals if k not in prod}
    list_path = os.path.join(base, ALLOWLIST)
    entries, errors = allowlist(list_path)
    for mli, name in sorted(orphans.keys() - entries.keys()):
        users = sorted(f for f, named in cite.items() if orphans[(mli, name)] in named)
        hint = f" (named only in {', '.join(users)})" if users else ""
        errors.append(f"{mli}: val {name} has no caller in lib/, bin/, bench/ or "
                      f"perfbench/{hint}: delete it, or list it with a reason")
    for key in sorted(entries.keys() - orphans.keys()):
        errors.append(f"{list_path}:{entries[key][0]}: {key[0]} {key[1]} has a "
                      "production caller now (or is gone): delete the entry")
    for key in sorted(entries.keys() & orphans.keys()):
        no, files = entries[key]
        for f in files:
            if orphans[key] not in cite.get(f, ()):
                errors.append(f"{list_path}:{no}: {f} does not name {key[1]}")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    print(f"lint-exports: {len(orphans)} exports without a production caller, "
          "all listed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
