#!/usr/bin/env python3
"""wa_lint: the project determinism lint.

The repo's core contract is that every counter and every numeric
result is bit-reproducible across WA_BACKEND/WA_TRANSPORT/WA_KERNELS.
This lint fails CI on source patterns that historically break that
contract before any memcmp pin can catch them:

  wa-unordered   std::unordered_{map,set,...} in determinism-critical
                 dirs: iteration order is unspecified, so any loop over
                 one can reorder charges or float accumulation.
  wa-random      rand()/srand()/std::random_device/default_random_engine
                 (unseeded or time-seeded RNG) in determinism-critical
                 dirs; generators there must be splitmix64-style with a
                 fixed seed.
  wa-wallclock   wall-clock reads (system_clock, ::time, gettimeofday,
                 clock()) in determinism-critical dirs.  steady_clock is
                 allowed: it is monotonic and only ever feeds measured
                 wall-time reporting, never counters or numerics.
  wa-counter     mutation of Machine counter channels (.nw/.l3_read/
                 .l3_write/.l2_read/.l2_write .add()/assignment) outside
                 src/dist/machine.hpp -- all charging must flow through
                 the Machine's charge helpers.
  wa-cast        reinterpret_cast/const_cast anywhere in src/ without an
                 adjacent memcpy (alignment/alias-safe repacking) or a
                 NOLINT justification.
  wa-thread      std::thread/std::jthread/std::async or #include <thread>
                 anywhere in src/ outside src/dist/backend.{hpp,cpp}:
                 ThreadedBackend's persistent pool is the library's only
                 thread launcher, so concurrent work runs on it.
  wa-payload     a moves_data() call anywhere in src/ outside
                 src/dist/machine.hpp and the transport files
                 (src/dist/transport.{hpp,cpp}, transport_mpi.cpp): the
                 Machine alone decides which bytes move, so algorithms
                 hand it their tiles or word counts and never branch on
                 the transport.

Suppression: a `NOLINT(wa-<rule>): <reason>` comment on the finding's
line or one of the two lines above silences that rule there; the reason
is mandatory.

Usage: wa_lint.py [--root REPO_ROOT] [--list-rules]
Exit: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import re
import sys
from pathlib import Path

# Dirs whose numeric/counter paths must be deterministic.
DETERMINISM_DIRS = ("src/dist", "src/krylov", "src/sparse")
# The cast and thread rules cover the whole library.
LIBRARY_DIRS = ("src",)
# Files exempt from a rule: the one home of what it guards.
RULE_HOMES = {
    "wa-counter": ("src/dist/machine.hpp",),  # mutates counter channels
    "wa-thread": ("src/dist/backend.hpp", "src/dist/backend.cpp"),  # the pool
    "wa-payload": (  # the Machine packs; the transports move
        "src/dist/machine.hpp",
        "src/dist/transport.hpp",
        "src/dist/transport.cpp",
        "src/dist/transport_mpi.cpp",
    ),
}

CHANNELS = r"(?:nw|l3_read|l3_write|l2_read|l2_write)"

RULES = [
    (
        "wa-unordered",
        DETERMINISM_DIRS,
        re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\b"),
        "unordered container in a determinism-critical path (iteration "
        "order is unspecified); use a sorted container or justify",
    ),
    (
        "wa-random",
        DETERMINISM_DIRS,
        re.compile(
            r"\bstd\s*::\s*random_device\b|\bstd\s*::\s*default_random_engine\b"
            r"|(?<![\w:])s?rand\s*\("
        ),
        "nondeterministic or unseeded RNG in a determinism-critical path; "
        "use a fixed-seed splitmix64-style generator",
    ),
    (
        "wa-wallclock",
        DETERMINISM_DIRS,
        re.compile(
            r"\bsystem_clock\b|\bgettimeofday\s*\(|(?<![\w:])clock\s*\(\s*\)"
            r"|(?<![\w.])(?:std\s*::\s*)?time\s*\(\s*(?:NULL|nullptr|0)\s*\)"
        ),
        "wall-clock read in a determinism-critical path (steady_clock is "
        "the sanctioned monotonic timer for measurement)",
    ),
    (
        "wa-counter",
        DETERMINISM_DIRS,
        re.compile(
            r"\.\s*" + CHANNELS + r"\s*\.\s*(?:add\s*\(|"
            r"(?:words|messages)\s*[+\-*/]?=[^=])"
        ),
        "Machine counter channel mutated outside machine.hpp's charge "
        "helpers; route the charge through Machine/Hierarchy",
    ),
    (
        "wa-cast",
        LIBRARY_DIRS,
        re.compile(r"\breinterpret_cast\b|\bconst_cast\b"),
        "reinterpret_cast/const_cast without an adjacent memcpy; repack "
        "through memcpy or add a NOLINT(wa-cast) justification",
    ),
    (
        "wa-thread",
        LIBRARY_DIRS,
        re.compile(
            r"\bstd\s*::\s*(?:thread|jthread|async)\b"
            r"|^\s*#\s*include\s*<thread>"
        ),
        "thread launch outside src/dist/backend.{hpp,cpp}; run the work "
        "on the ThreadedBackend pool",
    ),
    (
        "wa-payload",
        LIBRARY_DIRS,
        re.compile(r"\bmoves_data\s*\("),
        "moves_data() outside the Machine and the transports; pass the "
        "collective its tiles (Machine::Tiles) or a word count instead",
    ),
]

EXTENSIONS = {".hpp", ".cpp", ".h", ".cc"}
NOLINT_RE = re.compile(r"NOLINT\(([^)]*)\)\s*:\s*\S")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so commentary ("unordered pair") never trips a rule."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:j])
            i = j
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressed(raw_lines, lineno, rule):
    """True when a NOLINT(rule): reason comment sits on the line or one
    of the two lines above (the justification may precede the code)."""
    for ln in range(max(0, lineno - 3), lineno):
        m = NOLINT_RE.search(raw_lines[ln])
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            return True
    return False


def near_memcpy(code_lines, lineno, radius=3):
    lo = max(0, lineno - 1 - radius)
    hi = min(len(code_lines), lineno + radius)
    return any("memcpy" in code_lines[ln] for ln in range(lo, hi))


def lint_file(root, rel, findings):
    raw = (root / rel).read_text(encoding="utf-8")
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()
    rel_posix = rel.as_posix()
    for rule, dirs, pattern, message in RULES:
        if not any(rel_posix.startswith(d + "/") for d in dirs):
            continue
        if rel_posix in RULE_HOMES.get(rule, ()):
            continue
        for idx, line in enumerate(code_lines):
            if not pattern.search(line):
                continue
            lineno = idx + 1
            if suppressed(raw_lines, lineno, rule):
                continue
            if rule == "wa-cast" and near_memcpy(code_lines, lineno):
                continue
            findings.append((rel_posix, lineno, rule, message))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, dirs, _, message in RULES:
            print(f"{rule}  [{', '.join(dirs)}]\n    {message}")
        return 0

    root = Path(args.root)
    if not (root / "src").is_dir():
        print(f"wa_lint: '{root}' has no src/ directory", file=sys.stderr)
        return 2

    scanned = 0
    findings = []
    for path in sorted(root.glob("src/**/*")):
        if path.suffix not in EXTENSIONS or not path.is_file():
            continue
        scanned += 1
        lint_file(root, path.relative_to(root), findings)

    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"wa_lint: {len(findings)} finding(s) in {scanned} files")
        return 1
    print(f"wa_lint: clean ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
