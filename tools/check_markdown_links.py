#!/usr/bin/env python3
"""Check that intra-repo markdown links and source paths resolve.

Scans every tracked *.md file for inline links `[text](target)` and image
links, skips external targets (http/https/mailto) and pure anchors, and
verifies that the referenced file exists relative to the linking file (or
the repo root for absolute-style `/path` targets).

It also checks backticked repo paths such as `src/core/ordering.hpp`
under src/, tests/, tools/, bench/, perfbench/, examples/ and docs/,
relative to the repo root: a brace set `x.{hpp,cpp}` names every member,
a path with `*` is skipped, a trailing `:line` is ignored, and a path
without an extension also resolves to `<path>.cpp` (docs name binaries
by their source). Paths are checked in README.md, ROADMAP.md and every
document below the root, which describe the current tree; the other
top-level documents (CHANGES.md, the paper notes) record history or
quote other code and are not path-checked.

Exits non-zero listing every broken link or path, so CI fails when docs
drift.

Usage: tools/check_markdown_links.py [repo_root]
"""

import os
import re
import sys

# Inline links/images: [text](target) / ![alt](target). Reference-style
# definitions `[label]: target` are rare here and intentionally ignored.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = {".git", "build", ".claude"}

CODE_SPAN_RE = re.compile(r"`[^`]*`")
# A whole code span that is a repo path: `src/...`, `docs/...`, etc.
PATH_RE = re.compile(
    r"`((?:src|tests|tools|bench|perfbench|examples|docs)/[^`\s]*)`")
BRACE_RE = re.compile(r"\{([^{}]*)\}")
LINE_SUFFIX_RE = re.compile(r":\d+(?:-\d+)?$")
PATH_CHECKED_ROOT_FILES = {"README.md", "ROADMAP.md"}


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def expand_braces(path):
    match = BRACE_RE.search(path)
    if match is None:
        return [path]
    head, tail = path[:match.start()], path[match.end():]
    return [expanded
            for choice in match.group(1).split(",")
            for expanded in expand_braces(head + choice + tail)]


def path_exists(root, rel):
    resolved = os.path.join(root, rel)
    if os.path.exists(resolved):
        return True
    _, ext = os.path.splitext(rel.rstrip("/"))
    return not ext and os.path.exists(resolved + ".cpp")


def broken_paths(root, line):
    for match in PATH_RE.finditer(line):
        span = LINE_SUFFIX_RE.sub("", match.group(1))
        if "*" in span:
            continue
        if not all(path_exists(root, p) for p in expand_braces(span)):
            yield span


def check_file(root, path):
    broken = []
    rel = os.path.relpath(path, root)
    check_paths = os.path.dirname(rel) != "" or rel in PATH_CHECKED_ROOT_FILES
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if check_paths:
                broken.extend((lineno, p) for p in broken_paths(root, line))
            # Markdown inside a code span is literal text, not a link.
            for match in LINK_RE.finditer(CODE_SPAN_RE.sub("", line)):
                target = match.group(1)
                if target.startswith(SKIP_PREFIXES):
                    continue
                file_part = target.split("#", 1)[0]
                if not file_part:  # pure in-page anchor
                    continue
                if file_part.startswith("/"):
                    resolved = os.path.join(root, file_part.lstrip("/"))
                else:
                    resolved = os.path.join(os.path.dirname(path), file_part)
                if not os.path.exists(resolved):
                    broken.append((lineno, target))
    return broken


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    failures = 0
    checked = 0
    for path in sorted(markdown_files(root)):
        checked += 1
        for lineno, target in check_file(root, path):
            rel = os.path.relpath(path, root)
            print(f"{rel}:{lineno}: broken link or path -> {target}")
            failures += 1
    print(f"checked {checked} markdown files, "
          f"{failures} broken link(s) or path(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
