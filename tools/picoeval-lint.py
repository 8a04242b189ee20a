#!/usr/bin/env python3
"""Repo lint for picoeval's determinism and concurrency contracts.

Checks C++ sources under src/ for constructions the project bans:

  wallclock-rng  rand()/srand()/std::random_device/time()/
                 system_clock in library code. Results must be a pure
                 function of program seeds; wall-clock or
                 nondeterministic entropy in a result path breaks the
                 bit-identity contract of the parallel walk.
  raw-mutex      std::mutex / lock_guard / unique_lock / scoped_lock
                 outside support/ThreadAnnotations.hpp. All locking
                 goes through the annotated support::Mutex /
                 support::MutexLock wrappers so Clang's
                 -Wthread-safety analysis sees every acquisition.
  raw-stream     std::ifstream / std::fstream outside the checked
                 readers (EvaluationCache::load, FaultInjection).
                 Ad-hoc file reads skip the corruption quarantine the
                 fault-tolerance layer guarantees. (Trace files are
                 mmap-read by ColumnarTraceReader, no stream.)
  raw-output     std::cout / std::cerr / printf family outside
                 support/Logging.cpp. Library code reports through
                 the leveled logging sink, which is filterable and
                 emits one atomic write per message.
  unbounded-queue  std::queue / std::deque in src/server. Every queue
                 in the serving layer is admitted work the server has
                 promised to do; an unbounded one turns overload into
                 unbounded memory and latency. Use
                 support::BoundedQueue (capacity + shed watermark).
  raw-span       TimedSpan in src/server. A server span opened
                 without a TraceContext is invisible to dump-trace
                 and unattributable in the Chrome trace; the serving
                 layer opens support::RequestSpan, which installs the
                 request's context around the span.
  raw-sleep      direct sleep calls (sleep_for/usleep/sleep) in
                 src/server. Fixed-delay retry loops synchronize into
                 retry storms; pacing goes through support::Backoff
                 (full-jitter, seeded) or support::sleepForMs via it.
  racy-lgamma    lgamma() / std::lgamma() (and the f/l variants)
                 anywhere in src/. The call writes glibc's
                 process-wide `signgam`, so two pool workers calling
                 it race; use lgamma_r with a local sign variable.
  nondet-iteration  iteration over a std::unordered_map/unordered_set
                 inside a function that writes serialized output
                 (reports, cache files, protocol frames). Hash order
                 is libstdc++-version- and salt-dependent; serialized
                 bytes must be a pure function of the *contents*, so
                 the visit must feed a sort (audited sites carry an
                 allow). Implemented as a cross-file two-pass check:
                 unordered container identifiers are collected from
                 every scanned file (members are declared in headers,
                 iterated in .cpps), then any function body that both
                 iterates one and touches a serialization sink is
                 flagged.

Rules with `only_dirs` apply only to files under those directories.
Every `allow_files` entry must name an existing file: a stale entry is
itself a violation, because an allowance must not outlive its file (a
new file at that path would inherit it unreviewed).

Comments and string literals are stripped before matching. A finding
is suppressed when its own line — or the line directly above it —
contains `picoeval-lint: allow(<rule>)` in the source text.

Usage: picoeval-lint.py [--list-rules] [PATH...]
Exits 1 when any violation is found.
"""

import argparse
import re
import sys
from pathlib import Path

RULES = [
    {
        "name": "wallclock-rng",
        "pattern": re.compile(
            r"\brand\s*\(|\bsrand\s*\(|std::random_device"
            r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
            r"|system_clock"
        ),
        "allow_files": [],
        "message": "nondeterministic entropy or wall-clock in library "
                   "code (results must be a pure function of seeds)",
    },
    {
        "name": "raw-mutex",
        "pattern": re.compile(
            r"std::(?:recursive_|shared_|timed_)?mutex\b"
            r"|std::lock_guard\b|std::unique_lock\b"
            r"|std::scoped_lock\b"
        ),
        "allow_files": ["src/support/ThreadAnnotations.hpp"],
        "message": "raw standard mutex/lock outside the annotated "
                   "support::Mutex/MutexLock wrappers "
                   "(invisible to -Wthread-safety)",
    },
    {
        "name": "raw-stream",
        "pattern": re.compile(r"std::ifstream\b|std::fstream\b"),
        "allow_files": [
            "src/dse/EvaluationCache.cpp",
            "src/support/FaultInjection.cpp",
        ],
        "message": "file read outside the checked readers (must "
                   "validate/quarantine corrupt input)",
    },
    {
        "name": "raw-output",
        "pattern": re.compile(
            r"std::cout\b|std::cerr\b|std::clog\b"
            r"|\bprintf\s*\(|\bfprintf\s*\(|\bputs\s*\("
        ),
        "allow_files": ["src/support/Logging.cpp"],
        "message": "direct terminal output in library code (route "
                   "through the leveled logging sink)",
    },
    {
        "name": "unbounded-queue",
        "pattern": re.compile(r"std::queue\b|std::deque\b"),
        "allow_files": [],
        "only_dirs": ["src/server"],
        "message": "unbounded queue in the serving layer (use "
                   "support::BoundedQueue — admission control is "
                   "not optional)",
    },
    {
        "name": "raw-span",
        "pattern": re.compile(r"\bTimedSpan\b"),
        "allow_files": [],
        "only_dirs": ["src/server"],
        "message": "raw TimedSpan in the serving layer (a span "
                   "without a TraceContext loses its request "
                   "identity; open a support::RequestSpan instead)",
    },
    {
        "name": "raw-sleep",
        # The lookbehind keeps `backoff_.sleep(...)` (the sanctioned
        # helper) legal while catching bare sleep()/::sleep().
        "pattern": re.compile(
            r"sleep_for\s*\(|sleep_until\s*\(|\busleep\s*\("
            r"|\bnanosleep\s*\(|(?<![.\w])sleep\s*\("
        ),
        "allow_files": [],
        "only_dirs": ["src/server"],
        "message": "raw sleep in the serving layer (fixed-delay "
                   "retries synchronize into storms; pace through "
                   "support::Backoff)",
    },
    {
        "name": "racy-lgamma",
        # lgamma_r does not match: the name must be followed by '('.
        "pattern": re.compile(r"\blgamma[fl]?\s*\("),
        "allow_files": [],
        "message": "lgamma writes the process-wide signgam, so it is "
                   "unsafe on pool workers (call lgamma_r with a "
                   "local sign)",
    },
]

ALLOW_RE = re.compile(r"picoeval-lint:\s*allow\(([a-z-]+)\)")

# --- nondet-iteration (two-pass, cross-file) ---------------------------

NONDET_RULE = {
    "name": "nondet-iteration",
    "message": "iteration over an unordered container in a "
               "serializing function (hash order is not stable; "
               "sort before writing — audited sites carry an allow)",
}

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<")

# A function body "serializes" when it touches one of these sinks.
SERIALIZE_SINK_RE = re.compile(
    r"\bostream\b|\bofstream\b|\bostringstream\b|\bwriteJson\b"
    r"|\btoJson\b|\bsnprintf\b|\bjsonEscape\b|\bout\s*<<"
)


def unordered_identifiers(stripped_text):
    """Identifiers declared as std::unordered_map/set (angle brackets
    matched manually — nested template args defeat a plain regex)."""
    idents = set()
    for m in UNORDERED_DECL_RE.finditer(stripped_text):
        i = m.end()  # just past '<'
        depth = 1
        n = len(stripped_text)
        while i < n and depth > 0:
            if stripped_text[i] == "<":
                depth += 1
            elif stripped_text[i] == ">":
                depth -= 1
            i += 1
        ident = re.match(r"\s*(\w+)", stripped_text[i:])
        if ident:
            idents.add(ident.group(1))
    return idents


def iteration_re(idents):
    names = "|".join(sorted(re.escape(i) for i in idents))
    return re.compile(
        r"for\s*\([^;()]*:[^()]*\b(?:" + names + r")\s*\)"
        r"|\b(?:" + names + r")\s*(?:\.|->)\s*begin\s*\(")


def brace_blocks(stripped_text):
    """All balanced-brace regions as (open_offset, close_offset)
    pairs, from one stack pass over the stripped text."""
    blocks = []
    stack = []
    for i, ch in enumerate(stripped_text):
        if ch == "{":
            stack.append(i)
        elif ch == "}" and stack:
            blocks.append((stack.pop(), i))
    return blocks


def nondet_findings(rel, raw_lines, stripped_text, idents):
    """Flag iterations over an unordered container whose enclosing
    function also serializes. The "function" is approximated as the
    innermost enclosing brace blocks up to ~a function's size: a
    namespace or class block spans the whole file and must not donate
    its sinks to every loop inside it."""
    if not idents:
        return []
    it_re = iteration_re(idents)
    blocks = brace_blocks(stripped_text)
    findings = []
    for m in it_re.finditer(stripped_text):
        pos = m.start()
        enclosing = sorted((b for b in blocks if b[0] < pos < b[1]),
                           key=lambda b: b[1] - b[0])
        serializes = False
        for open_off, close_off in enclosing:
            block = stripped_text[open_off:close_off + 1]
            if block.count("\n") > 120:
                break  # namespace/class scale, not a function
            if SERIALIZE_SINK_RE.search(block):
                serializes = True
                break
        if not serializes:
            continue
        lineno = stripped_text.count("\n", 0, pos) + 1
        src = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
        above = raw_lines[lineno - 2] if lineno >= 2 else ""
        allow = ALLOW_RE.search(src) or ALLOW_RE.search(above)
        if allow and allow.group(1) == NONDET_RULE["name"]:
            continue
        findings.append((rel, lineno, NONDET_RULE["name"],
                         NONDET_RULE["message"]))
    return findings


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, keeping the line
    structure (and therefore line numbers) intact."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


def stale_allowances(repo_root):
    """`allow_files` entries that name no existing file, as findings
    (line 0: the finding is about the rule table, not a source line)."""
    return [(entry, 0, rule["name"],
             "allow_files entry names a file that does not exist")
            for rule in RULES for entry in rule["allow_files"]
            if not (repo_root / entry).is_file()]


def lint_file(path, repo_root):
    rel = path.relative_to(repo_root).as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    stripped_lines = strip_comments_and_strings(raw).splitlines()
    findings = []
    for rule in RULES:
        if rel in rule["allow_files"]:
            continue
        only_dirs = rule.get("only_dirs")
        if only_dirs and not any(
                rel.startswith(d + "/") for d in only_dirs):
            continue
        for lineno, line in enumerate(stripped_lines, 1):
            if not rule["pattern"].search(line):
                continue
            src = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            above = raw_lines[lineno - 2] if lineno >= 2 else ""
            allow = (ALLOW_RE.search(src)
                     or ALLOW_RE.search(above))
            if allow and allow.group(1) == rule["name"]:
                continue
            findings.append(
                (rel, lineno, rule["name"], rule["message"]))
    return findings


def main():
    parser = argparse.ArgumentParser(
        description="picoeval repo lint (see module docstring)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES + [NONDET_RULE]:
            print(f"{rule['name']}: {rule['message']}")
        return 0

    repo_root = Path(__file__).resolve().parent.parent
    roots = ([Path(p) for p in args.paths] if args.paths
             else [repo_root / "src"])
    files = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.hpp")))
            files.extend(sorted(root.rglob("*.cpp")))
        elif root.is_file():
            files.append(root)
        else:
            print(f"picoeval-lint: no such path: {root}",
                  file=sys.stderr)
            return 2

    findings = stale_allowances(repo_root)
    # Two passes for nondet-iteration: container members are declared
    # in headers but iterated in .cpps, so the identifier set must be
    # collected across every scanned file first.
    stripped_cache = {}
    idents = set()
    ordered = sorted(set(f.resolve() for f in files))
    for path in ordered:
        raw = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_comments_and_strings(raw)
        stripped_cache[path] = (raw.splitlines(), stripped)
        idents.update(unordered_identifiers(stripped))
    for path in ordered:
        findings.extend(lint_file(path, repo_root))
        rel = path.relative_to(repo_root).as_posix()
        raw_lines, stripped = stripped_cache[path]
        findings.extend(
            nondet_findings(rel, raw_lines, stripped, idents))

    findings.sort()
    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: {rule}: {message}")
    if findings:
        print(f"picoeval-lint: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"picoeval-lint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
