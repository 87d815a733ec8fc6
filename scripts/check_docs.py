#!/usr/bin/env python3
"""Documentation consistency gate for docs/ and README.md.

Two checks, both hard failures:

1. Intra-repo markdown links must resolve. Every [text](target) in
   README.md and docs/*.md whose target is not an external URL or a
   pure #anchor must name an existing file or directory, resolved
   relative to the linking file (absolute /-prefixed targets resolve
   from the repo root).

2. docs/determinism.md must document every determinism-gate flag, and
   only those. The authoritative flag list is parsed from the option
   handling in tools/determinism_gate.cc (the `arg == "--flag"`
   comparisons), so adding a gate axis without documenting it fails
   CI, and so does a row of the flag table for a flag the gate no
   longer parses.

Usage: check_docs.py [--root REPO_ROOT]

Exit status: 0 when both checks pass, 1 on any broken link or
undocumented flag, 2 for usage errors (missing files to check).
"""

import argparse
import pathlib
import re
import sys

# [text](target) with an optional "title"; ignores images' leading !
# by matching the bracket pair itself.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FLAG_RE = re.compile(r"arg\s*==\s*\"(--[a-z-]+)\"")
# A documented flag is a row of the determinism.md flag table.
DOC_FLAG_RE = re.compile(r"^\|\s*`(--[a-z-]+)", re.MULTILINE)


def markdown_files(root):
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def strip_code_blocks(text):
    """Drop fenced code blocks: link syntax inside them is literal."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def check_links(root, files):
    broken = []
    for md in files:
        text = strip_code_blocks(md.read_text(encoding="utf-8"))
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                continue  # http:, https:, mailto:, ...
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue  # pure #anchor into the same file
            if path_part.startswith("/"):
                resolved = root / path_part.lstrip("/")
            else:
                resolved = md.parent / path_part
            if not resolved.exists():
                broken.append(f"{md.relative_to(root)}: broken link "
                              f"-> {target}")
    return broken


def check_gate_flags(root):
    gate_src = root / "tools" / "determinism_gate.cc"
    determinism_doc = root / "docs" / "determinism.md"
    if not gate_src.is_file():
        return [f"missing {gate_src.relative_to(root)}"]
    if not determinism_doc.is_file():
        return ["docs/determinism.md does not exist but the "
                "determinism gate does"]
    flags = sorted(set(FLAG_RE.findall(
        gate_src.read_text(encoding="utf-8"))))
    if not flags:
        return ["no flags parsed from tools/determinism_gate.cc -- "
                "has the option-handling idiom changed?"]
    doc_text = determinism_doc.read_text(encoding="utf-8")
    problems = [f"docs/determinism.md: determinism-gate flag {flag} "
                "is undocumented" for flag in flags if flag not in doc_text]
    documented = sorted(set(DOC_FLAG_RE.findall(doc_text)))
    problems += [f"docs/determinism.md: documents flag {flag}, which "
                 "tools/determinism_gate.cc no longer parses"
                 for flag in documented if flag not in flags]
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent's parent)")
    options = parser.parse_args(argv)
    root = options.root.resolve()

    files = markdown_files(root)
    if not files:
        print("check_docs: no markdown files found", file=sys.stderr)
        return 2

    problems = check_links(root, files) + check_gate_flags(root)
    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    if problems:
        return 1
    gate_flags = len(set(FLAG_RE.findall(
        (root / "tools" / "determinism_gate.cc").read_text())))
    print(f"check_docs: OK ({len(files)} markdown files, "
          f"{gate_flags} gate flags documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
