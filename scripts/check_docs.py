#!/usr/bin/env python3
"""Documentation consistency gate for docs/, README.md and the
markdown files code comments cite.

Four checks, all hard failures:

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

3. Code names in README.md and docs/*.md must still exist. Every
   identifier inside an inline `code span` (fenced blocks are skipped)
   that is qualified (A::b), camelCase (a lowercase start with an
   uppercase letter later), or ends in an underscore (a member) must
   appear as a whole word somewhere under src/, tools/, bench/,
   tests/, perfbench/, scripts/ or .github/; a qualified name needs
   each of its parts to. This catches a doc that still names a
   deleted or renamed function, member or option. It cannot tell a
   member that moved to another class, since each part is looked up
   on its own.

4. Markdown files named in code comments must exist. Every path ending
   in .md inside a // or /* */ comment of a C++ source or header under
   src/, tools/, bench/, tests/ or examples/ must name an existing
   file, resolved from the repo root or from the commenting file's
   directory. This catches a comment that still points readers at a
   deleted or renamed document.

Usage: check_docs.py [--root REPO_ROOT]

Exit status: 0 when all checks pass, 1 on any broken link,
undocumented flag, stale code name or missing cited document, 2 for
usage errors (missing files to check).
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
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# An identifier, possibly qualified, not part of a longer word or of a
# glob such as test_*.
CODE_NAME_RE = re.compile(
    r"(?<![\w*])[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*(?![\w*])")
CAMEL_RE = re.compile(r"[a-z][a-z0-9]*[A-Z]")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
# Where a documented code name may live.
CODE_DIRS = ("src", "tools", "bench", "tests", "perfbench", "scripts",
             ".github")
# Whose comments may cite markdown files, and the comments themselves.
COMMENT_DIRS = ("src", "tools", "bench", "tests", "examples")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
MD_PATH_RE = re.compile(r"[\w./-]*\w\.md\b")


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


def code_words(root):
    """Every identifier-like word in the code directories' text files."""
    words = set()
    for top in CODE_DIRS:
        for path in (root / top).rglob("*"):
            if not path.is_file():
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue  # binary fixture
            words.update(WORD_RE.findall(text))
    return words


def check_code_names(root, files):
    words = code_words(root)
    stale = set()
    for md in files:
        text = strip_code_blocks(md.read_text(encoding="utf-8"))
        for span in CODE_SPAN_RE.findall(text):
            for name in CODE_NAME_RE.findall(span):
                if not ("::" in name or CAMEL_RE.match(name)
                        or name.endswith("_")):
                    continue
                parts = [part.lstrip("~") for part in name.split("::")]
                if any(part not in words for part in parts):
                    stale.add(f"{md.relative_to(root)}: `{name}` names "
                              "nothing in the code")
    return sorted(stale)


def check_cited_docs(root):
    missing = set()
    for top in COMMENT_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".cc", ".h"):
                continue
            text = path.read_text(encoding="utf-8")
            for comment in COMMENT_RE.findall(text):
                for cited in MD_PATH_RE.findall(comment):
                    if not ((root / cited).is_file()
                            or (path.parent / cited).is_file()):
                        missing.add(f"{path.relative_to(root)}: comment "
                                    f"cites {cited}, which does not "
                                    "exist")
    return sorted(missing)


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

    problems = (check_links(root, files) + check_gate_flags(root)
                + check_code_names(root, files) + check_cited_docs(root))
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
