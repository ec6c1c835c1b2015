#!/usr/bin/env python3
"""Audits the repository documentation for drift.

Three checks, all cheap enough to run on every ctest invocation:

1. Cross-references: every relative markdown link in README.md,
   DESIGN.md, ROADMAP.md and docs/*.md must point at a file that exists,
   and a `#fragment`, if present, must match a GitHub-style anchor of a
   heading in the target document. External (http/https/mailto) links
   are skipped.

2. Flag coverage: every command-line flag the thistle-opt,
   thistle-serve and thistle-query parsers accept — scraped from the
   `Arg == "--x"` chains in their sources, the same convention
   CheckUsage.cmake audits for the --help texts — must be mentioned in
   docs/THISTLE_OPT.md respectively docs/SERVING.md, so a new flag
   cannot land undocumented.

3. Telemetry names: every string literal in the argument of a
   `telemetry::count`, `telemetry::observe` or `TraceScope` call in
   src/ must appear in docs/OBSERVABILITY.md, so a new counter, statistic
   or span cannot land undocumented either. A name assembled at run time
   is audited by its literal prefix (`solver.outcome.` for
   `solver.outcome.<name>`).

Usage: check_docs.py [--root REPO_ROOT]
Exits 0 when clean, 1 with one `error:` line per problem otherwise.
"""

import argparse
import os
import re
import sys

DOC_FILES = ("README.md", "DESIGN.md", "ROADMAP.md")
DOC_DIRS = ("docs",)

# (source file scraped for `Arg == "--x"`, document that must mention
# every scraped flag)
FLAG_AUDITS = (
    (os.path.join("tools", "thistle-opt.cpp"),
     os.path.join("docs", "THISTLE_OPT.md")),
    (os.path.join("tools", "thistle-serve.cpp"),
     os.path.join("docs", "SERVING.md")),
    (os.path.join("tools", "thistle-query.cpp"),
     os.path.join("docs", "SERVING.md")),
)

TELEMETRY_SOURCES = "src"
TELEMETRY_DOC = os.path.join("docs", "OBSERVABILITY.md")
# A call that names a counter, a statistic or a span; its argument runs
# to the matching close parenthesis.
TELEMETRY_CALL_RE = re.compile(
    r"\btelemetry::(?:count|observe)\s*\(|\bTraceScope\s+\w+\s*\(")
STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
FENCE_RE = re.compile(r"^(```|~~~)")
ARG_RE = re.compile(r"Arg == \"(--[a-z-]+)\"")


def strip_code(text):
    """Drops fenced code blocks and inline code spans: a `# comment` in
    a shell snippet is not a heading, and `foo[i](x)` is not a link."""
    lines, fenced = [], False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            fenced = not fenced
            continue
        lines.append("" if fenced else re.sub(r"`[^`]*`", "", line))
    return "\n".join(lines)


def anchor_of(heading):
    """GitHub's heading-to-anchor slug: lowercase, punctuation dropped,
    spaces hyphenated."""
    slug = heading.strip().lower().replace("`", "")
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(path):
    with open(path, encoding="utf-8") as f:
        text = strip_code(f.read())
    anchors, seen = set(), {}
    for line in text.splitlines():
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = anchor_of(m.group(2))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def doc_paths(root):
    paths = [os.path.join(root, f) for f in DOC_FILES]
    for d in DOC_DIRS:
        full = os.path.join(root, d)
        if os.path.isdir(full):
            paths.extend(os.path.join(full, f)
                         for f in sorted(os.listdir(full))
                         if f.endswith(".md"))
    return [p for p in paths if os.path.isfile(p)]


def check_links(root):
    errors = []
    anchor_cache = {}
    for path in doc_paths(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            text = strip_code(f.read())
        for target in LINK_RE.findall(text):
            if re.match(r"[a-z][a-z0-9+.-]*:", target):
                continue  # http:, https:, mailto:, ...
            target, _, fragment = target.partition("#")
            if target:
                dest = os.path.normpath(
                    os.path.join(os.path.dirname(path), target))
            else:
                dest = path  # Same-document #fragment.
            if not os.path.isfile(dest):
                errors.append(f"{rel}: broken link '{target}'")
                continue
            if fragment:
                if not dest.endswith(".md"):
                    continue
                if dest not in anchor_cache:
                    anchor_cache[dest] = anchors_of(dest)
                if fragment not in anchor_cache[dest]:
                    errors.append(
                        f"{rel}: link '{target or rel}#{fragment}' has "
                        f"no matching heading")
    return errors


def check_flags(root):
    errors = []
    for source, doc in FLAG_AUDITS:
        src_path = os.path.join(root, source)
        doc_path = os.path.join(root, doc)
        if not os.path.isfile(src_path):
            errors.append(f"{source}: missing (flag audit)")
            continue
        if not os.path.isfile(doc_path):
            errors.append(f"{doc}: missing (flag audit for {source})")
            continue
        with open(src_path, encoding="utf-8") as f:
            flags = sorted(set(ARG_RE.findall(f.read())))
        with open(doc_path, encoding="utf-8") as f:
            doc_text = f.read()
        for flag in flags:
            if not re.search(re.escape(flag) + r"(?![a-z-])", doc_text):
                errors.append(
                    f"{doc}: flag {flag} (from {source}) undocumented")
    return errors


def call_argument(text, start):
    """The text from index `start`, just past an open parenthesis, to
    the matching close parenthesis."""
    depth = 1
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start:i]
    return text[start:]


def telemetry_names(root):
    """Maps every telemetry name literal in src/ to the first file that
    uses it."""
    names = {}
    for dirpath, dirnames, filenames in os.walk(
            os.path.join(root, TELEMETRY_SOURCES)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith((".cpp", ".h")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for call in TELEMETRY_CALL_RE.finditer(text):
                argument = call_argument(text, call.end())
                for literal in STRING_RE.findall(argument):
                    names.setdefault(literal, os.path.relpath(path, root))
    return names


def check_telemetry(root):
    doc_path = os.path.join(root, TELEMETRY_DOC)
    if not os.path.isfile(doc_path):
        return [f"{TELEMETRY_DOC}: missing (telemetry audit)"]
    with open(doc_path, encoding="utf-8") as f:
        doc_text = f.read()
    errors = []
    for name, source in sorted(telemetry_names(root).items()):
        if not re.search(r"(?<![\w.])" + re.escape(name) + r"(?![\w.])",
                         doc_text):
            errors.append(
                f"{TELEMETRY_DOC}: telemetry name '{name}' (from {source}) "
                f"undocumented")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the script's parent directory)")
    args = parser.parse_args()

    errors = (check_links(args.root) + check_flags(args.root) +
              check_telemetry(args.root))
    for err in errors:
        print(f"error: {err}")
    if errors:
        print(f"{len(errors)} problem(s)")
        return 1
    print(f"docs clean: {len(doc_paths(args.root))} file(s) audited")
    return 0


if __name__ == "__main__":
    sys.exit(main())
