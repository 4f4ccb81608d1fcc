#!/usr/bin/env python3
"""Export lint: no exported value without a caller.

Lists every `val` declared in lib/**/*.mli whose name appears in no
other .ml/.mli under lib/, bin/, bench/ or perfbench/ (the module's own
.ml and .mli do not count; comments and string literals are ignored).
Tests and examples do not count as callers either: a value only they
use still needs a line in the allowlist saying so.

The list is compared against tools/exports_allowlist.txt, one entry a
line:

    lib/usnet/link.mli  admit_error_message  <reason>

The lint fails on an unlisted export without a caller, on an entry
without a reason, and on an entry that no longer matches: the value
gained a caller or was deleted, so its line must go. The allowlist
can only shrink.

Run from the repository root: python3 tools/lint_exports.py
"""

import os
import re
import sys

ROOTS = ("lib", "bin", "bench", "perfbench")
ALLOWLIST = os.path.join("tools", "exports_allowlist.txt")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
CHAR = re.compile(r"'(\\[^']*|[^\\'])'")


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


def sources():
    for root in ROOTS:
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(d, f)


def scan():
    idents = {}
    for path in sources():
        with open(path, encoding="utf-8") as fh:
            idents[path] = set(IDENT.findall(strip_comments_and_strings(fh.read())))
    orphans = set()
    for mli in (p for p in idents if p.startswith("lib") and p.endswith(".mli")):
        own = (mli, mli[:-1])
        with open(mli, encoding="utf-8") as fh:
            names = {m.group(1) for m in map(VAL.match, fh) if m}
        for name in names:
            if not any(name in ids for p, ids in idents.items() if p not in own):
                orphans.add((mli, name))
    return orphans


def allowlist():
    entries, errors = {}, []
    with open(ALLOWLIST, encoding="utf-8") as fh:
        for no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                errors.append(f"{ALLOWLIST}:{no}: entry without a reason: {line}")
                continue
            entries[(parts[0], parts[1])] = no
    return entries, errors


def main():
    orphans = scan()
    entries, errors = allowlist()
    for mli, name in sorted(orphans - entries.keys()):
        errors.append(f"{mli}: val {name} has no caller in lib/, bin/, bench/ "
                      "or perfbench/: delete it, or list it with a reason")
    for mli, name in sorted(entries.keys() - orphans):
        errors.append(f"{ALLOWLIST}:{entries[(mli, name)]}: {mli} {name} has a "
                      "caller now (or is gone): delete the entry")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    print(f"lint-exports: {len(orphans)} caller-less exports, all listed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
