#!/usr/bin/env python3
"""Fixture test for tools/lint_exports.py.

Builds a small source tree in a temporary directory (one library,
`alpha`, plus bin/ and test/ callers) and checks which exported values
the lint counts as called: qualified names, nested module paths,
`open`, aliases and local opens count; a same-named value in another
module, and names inside comments and strings, do not. Then checks the
allowlist rules end to end.

Run from the repository root: python3 tools/test_lint_exports.py
"""

import contextlib
import io
import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_exports  # noqa: E402

FIXTURE = {
    "lib/alpha/dune": "(library (name alpha))\n",
    "lib/alpha/sfs.mli": """
        val read_page : int -> int
        val test_only : int
        module Inner : sig
          val peek : int -> int
          val cold : int
        end
        module type S = sig
          val in_signature : int
        end
        """,
    "lib/alpha/sfs.ml": """
        let read_page x = x
        let test_only = 0
        module Inner = struct let peek x = x let cold = 0 end
        module type S = sig val in_signature : int end
        """,
    "lib/alpha/file_store.mli": "val read_page : int -> int\n",
    "lib/alpha/file_store.ml": "let read_page x = x\n",
    "lib/alpha/fleet.mli": """
        val attach : int -> int
        val internal : int
        val opened : int
        val aliased : int
        val local_opened : int
        val let_opened : int
        val in_comment : int
        val in_string : int
        val as_field : int
        """,
    "lib/alpha/fleet.ml": """
        let attach x = x
        let internal = 0
        let opened = 0
        let aliased = 0
        let local_opened = 0
        let let_opened = 0
        let in_comment = 0
        let in_string = 0
        let as_field = 0
        """,
    # Inside its own library a module is named without the wrapper.
    "lib/alpha/cache.ml": "let x = Fleet.internal\n",
    "bin/dune": "(executable (name main) (libraries alpha))\n",
    "bin/main.ml": """
        (* Alpha.Fleet.in_comment is only mentioned here. *)
        let s = "Alpha.Fleet.in_string"
        let a = Alpha.File_store.read_page 1
        let b = Alpha.Sfs.Inner.peek 2
        open Alpha
        let c = Fleet.attach 3
        module F = Fleet
        let d = F.aliased
        let e = Fleet.(local_opened + 1)
        let f = let open Alpha.Fleet in let_opened
        let g (r : record) = r.as_field
        let g' r = r.Alpha.Fleet.as_field
        """,
    "bin/other.ml": """
        open Alpha.Fleet
        let h = opened + read_page 0
        """,
    # Defining a name is not naming the opened module's value.
    "bin/shadow.ml": """
        open Alpha.Sfs.Inner
        let cold = peek 0
        """,
    "test/t.ml": "let t = Alpha.Sfs.test_only\n",
}


def write_tree(base, allowlist):
    files = dict(FIXTURE)
    files["tools/exports_allowlist.txt"] = allowlist
    for path, text in files.items():
        full = os.path.join(base, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(textwrap.dedent(text).lstrip("\n"))


class LintExports(unittest.TestCase):
    ORPHANS = [
        "lib/alpha/fleet.mli Fleet.as_field",
        "lib/alpha/fleet.mli Fleet.in_comment",
        "lib/alpha/fleet.mli Fleet.in_string",
        "lib/alpha/sfs.mli Sfs.Inner.cold",
        "lib/alpha/sfs.mli Sfs.read_page",
    ]

    def run_lint(self, allowlist):
        with tempfile.TemporaryDirectory() as base:
            write_tree(base, allowlist)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lint_exports.main(base)
            return code, err.getvalue().replace(base + os.sep, "")

    def called(self):
        with tempfile.TemporaryDirectory() as base:
            write_tree(base, "")
            uni, prod, cite = lint_exports.scan(base)
            return ({uni.vals[k][1] for k in prod},
                    {uni.vals[k][1] for k in cite["test/t.ml"]},
                    {uni.vals[k][1] for k in uni.vals})

    def test_resolution(self):
        called, _, _ = self.called()
        for name in ["File_store.read_page", "Sfs.Inner.peek", "Fleet.attach",
                     "Fleet.internal", "Fleet.opened", "Fleet.aliased",
                     "Fleet.local_opened", "Fleet.let_opened"]:
            self.assertIn(name, called)

    def test_same_name_in_another_module_is_not_a_call(self):
        called, _, _ = self.called()
        self.assertNotIn("Sfs.read_page", called)

    def test_comments_strings_and_fields_are_not_calls(self):
        called, _, _ = self.called()
        for name in ["Fleet.in_comment", "Fleet.in_string", "Fleet.as_field"]:
            self.assertNotIn(name, called)

    def test_nested_paths_and_module_types(self):
        called, cited, declared = self.called()
        self.assertIn("Sfs.Inner.cold", declared - called)
        self.assertNotIn("Sfs.in_signature", declared)
        self.assertNotIn("Sfs.S.in_signature", declared)
        self.assertEqual({"Sfs.test_only"}, cited)

    def test_unlisted_orphans_fail(self):
        code, err = self.run_lint("")
        self.assertEqual(1, code)
        for entry in self.ORPHANS + ["lib/alpha/sfs.mli Sfs.test_only"]:
            mli, name = entry.split()
            self.assertIn(f"{mli}: val {name} has no caller", err)
        self.assertIn("(named only in test/t.ml)", err)

    def listed(self, extra=()):
        lines = [f"{e} test/t.ml: reason" for e in self.ORPHANS]
        lines.append("lib/alpha/sfs.mli Sfs.test_only test/t.ml: reads it")
        return "\n".join(list(lines) + list(extra)) + "\n"

    def test_cited_file_must_name_the_value(self):
        code, err = self.run_lint(self.listed())
        self.assertEqual(1, code)
        self.assertIn("test/t.ml does not name Sfs.read_page", err)
        self.assertNotIn("does not name Sfs.test_only", err)

    def test_stale_and_malformed_entries_fail(self):
        code, err = self.run_lint(self.listed([
            "lib/alpha/fleet.mli Fleet.attach test/t.ml: called by bin/",
            "lib/alpha/fleet.mli Fleet.gone",
        ]))
        self.assertEqual(1, code)
        self.assertIn("Fleet.attach has a production caller now", err)
        self.assertIn("the reason must be", err)

    def test_complete_allowlist_passes(self):
        lines = ["lib/alpha/sfs.mli Sfs.test_only test/t.ml: reads it"]
        with tempfile.TemporaryDirectory() as base:
            write_tree(base, "\n".join(lines) + "\n")
            for path, value in [("lib/alpha/fleet.mli", "as_field"),
                                ("lib/alpha/fleet.mli", "in_comment"),
                                ("lib/alpha/fleet.mli", "in_string")]:
                full = os.path.join(base, path)
                with open(full, encoding="utf-8") as fh:
                    text = fh.read().replace(f"val {value} : int\n", "")
                with open(full, "w", encoding="utf-8") as fh:
                    fh.write(text)
            with open(os.path.join(base, "bin", "more.ml"), "w", encoding="utf-8") as fh:
                fh.write("let x = Alpha.Sfs.read_page 1 + Alpha.Sfs.Inner.cold\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = lint_exports.main(base)
            self.assertEqual(0, code, out.getvalue())
            self.assertIn("1 exports without a production caller", out.getvalue())


if __name__ == "__main__":
    unittest.main()
