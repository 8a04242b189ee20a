#!/usr/bin/env python3
"""Static lock-order analysis for picoeval (stdlib only).

Every mutex in src/support, src/dse and src/server declares a
compile-time name and an integer rank from the table in
src/support/LockRank.hpp (`Mutex m{"evalcache.table",
rank::kCacheTable}`). The discipline: a thread only acquires a mutex
whose rank is strictly greater than every rank it already holds, so
acquisition order is a total order and deadlock is impossible by
construction.

This tool proves the *source* obeys the discipline:

  1. parses the rank table from LockRank.hpp;
  2. parses every ranked Mutex declaration in the covered directories
     (member identifiers are globally unique by convention, so an
     acquisition expression like `flight->inflightMutex` resolves by
     its trailing identifier);
  3. lexically tracks `MutexLock` scopes (brace depth) through every
     file, collecting the nesting edges `held -> acquired`, including
     one level of interprocedural nesting via PICO_REQUIRES
     annotations (a function annotated PICO_REQUIRES(flushMutex_)
     scans with that lock held);
  4. fails on:
       - `undeclared-mutex`: an unranked Mutex declaration in a
         covered directory, or a MutexLock on an identifier no
         declaration ranks;
       - `rank-inversion`: an edge whose acquired rank is <= a held
         rank;
       - `cycle`: any cycle in the lock-name graph (caught even if
         the rank table itself were wrong);
       - `held-across-call`: a MutexLock scope containing a
         `.submit(` / blocking `.pop(` / `parallelFor(` call — locks
         must never be held across a handoff that can block on
         another thread's progress;
  5. emits the graph as lockgraph.json and DOT for review/CI
     artifacts.

Known limitation: nesting created purely by unannotated cross-function
calls is invisible to the lexical scan; the Debug runtime rank checker
(support/LockRank.cpp) is the dynamic backstop for those, exercised
across schedules by tests/schedule_test.cpp.

Usage: picoeval-lockcheck.py [--json PATH] [--dot PATH] [--self-test]
Exits 1 when any violation is found (2 on self-test failure).
"""

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

COVERED_DIRS = ["src/support", "src/dse", "src/server"]

# The wrapper and the checker declare/handle raw identifiers that are
# not program locks.
EXCLUDED_FILES = {
    "src/support/ThreadAnnotations.hpp",
    "src/support/LockRank.hpp",
    "src/support/LockRank.cpp",
}

RANK_RE = re.compile(r"constexpr\s+int\s+(k\w+)\s*=\s*(\d+)\s*;")

# `mutable support::Mutex tableMutex_{"evalcache.table",
#  support::rank::kCacheTable};` — possibly split across lines.
RANKED_DECL_RE = re.compile(
    r"\bMutex\s+(\w+)\s*\{\s*\"([^\"]+)\"\s*,\s*(?:\w+\s*::\s*)*"
    r"rank\s*::\s*(k\w+)\s*\}",
    re.DOTALL,
)

# `Mutex name_;` or `Mutex name_{};` — a declaration without a rank.
UNRANKED_DECL_RE = re.compile(r"\bMutex\s+(\w+)\s*(?:;|\{\s*\})")

ACQUIRE_RE = re.compile(r"\bMutexLock\s+\w+\s*\(([^()]*)\)")

# One level of interprocedural awareness: PICO_REQUIRES on a method
# declaration means its definition body runs with that lock held.
REQUIRES_RE = re.compile(
    r"\b(\w+)\s*\([^;{]*?\)\s*(?:const\s*)?PICO_REQUIRES\s*\(([^)]*)\)"
)

DEFINITION_RE = re.compile(r"^\s*(?:[\w:<>,&*~\s]+?)?\b\w+\s*::\s*(\w+)\s*\(")

HANDOFF_RE = re.compile(
    r"(?:\.|->)\s*submit\s*\(|(?:\.|->)\s*pop\s*\(|\bparallelFor\s*\("
)


def strip_comments(text, strings_too):
    """Blank comments (and optionally string/char literals), keeping
    line structure and byte offsets intact."""
    out = []
    i = 0
    n = len(text)
    state = "code"
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
                out.append('"' if not strings_too else " ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'" if not strings_too else " ")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            out.append("\n" if c == "\n" else " ")
            if c == "\n":
                state = "code"
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
                out.append("\\x" if not strings_too else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote if not strings_too else " ")
            else:
                keep = c if (not strings_too and c != "\n") else (
                    "\n" if c == "\n" else " ")
                out.append(keep)
        i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class Analysis:
    def __init__(self, ranks):
        self.ranks = ranks  # kName -> int
        self.mutexes = {}   # identifier -> (lockname, rankname, file, line)
        self.edges = {}     # (from_lock, to_lock) -> (file, line)
        self.violations = []  # (kind, file, line, message)

    def violation(self, kind, rel, line, message):
        self.violations.append((kind, rel, line, message))

    def rank_of_id(self, ident):
        lockname, rankname, _, _ = self.mutexes[ident]
        return lockname, self.ranks.get(rankname)

    def collect_declarations(self, rel, text):
        no_comments = strip_comments(text, strings_too=False)
        ranked_spans = []
        for m in RANKED_DECL_RE.finditer(no_comments):
            ident, lockname, rankname = m.groups()
            ranked_spans.append((m.start(), m.end()))
            line = line_of(no_comments, m.start())
            if rankname not in self.ranks:
                self.violation(
                    "undeclared-mutex", rel, line,
                    f"mutex '{ident}' uses unknown rank "
                    f"rank::{rankname} (not in LockRank.hpp)")
                continue
            if ident in self.mutexes:
                other = self.mutexes[ident]
                if (other[0], other[1]) != (lockname, rankname):
                    self.violation(
                        "undeclared-mutex", rel, line,
                        f"mutex identifier '{ident}' redeclared with "
                        f"a different name/rank (first at "
                        f"{other[2]}:{other[3]}); identifiers must "
                        "be globally unique")
                continue
            self.mutexes[ident] = (lockname, rankname, rel, line)
        for m in UNRANKED_DECL_RE.finditer(no_comments):
            if any(s <= m.start() < e for s, e in ranked_spans):
                continue
            ident = m.group(1)
            line = line_of(no_comments, m.start())
            self.violation(
                "undeclared-mutex", rel, line,
                f"mutex '{ident}' has no name/rank — declare it "
                "Mutex " + ident + "{\"<component>.<role>\", "
                "rank::k...} (see LockRank.hpp)")

    def collect_requires(self, text, requires_map):
        no_comments = strip_comments(text, strings_too=True)
        for m in REQUIRES_RE.finditer(no_comments):
            func, args = m.groups()
            # `PICO_REQUIRES(!m)` is a *negative* capability — the
            # caller must NOT hold m — so only positive arguments
            # mean "definition body runs with this lock held".
            ids = [a.lstrip("&").strip() for a in
                   (arg.strip() for arg in args.split(","))
                   if a.strip() and not a.strip().startswith("!")]
            ids = [i for i in ids if re.fullmatch(r"\w+", i)]
            if ids:
                requires_map.setdefault(func, set()).update(ids)

    def scan_acquisitions(self, rel, text, requires_map):
        code = strip_comments(text, strings_too=True)
        acquisitions = {m.start(): m for m in ACQUIRE_RE.finditer(code)}
        handoffs = {m.start(): m for m in HANDOFF_RE.finditer(code)}
        # Definitions of PICO_REQUIRES-annotated methods run with the
        # required locks held for their whole body.
        def_spans = []  # (start_offset, func)
        for lm in DEFINITION_RE.finditer(code):
            pass  # per-line handling below is simpler
        line_starts = [0]
        for i, ch in enumerate(code):
            if ch == "\n":
                line_starts.append(i + 1)
        for ls in line_starts:
            le = code.find("\n", ls)
            le = len(code) if le < 0 else le
            m = DEFINITION_RE.match(code[ls:le])
            if m and m.group(1) in requires_map:
                def_spans.append((ls, m.group(1)))

        held = []  # list of dicts {ident/lock, rank, depth, virtual}
        depth = 0
        events = sorted(
            [(off, "acq", m) for off, m in acquisitions.items()]
            + [(off, "call", m) for off, m in handoffs.items()]
            + [(off, "def", f) for off, f in def_spans])
        ev_idx = 0
        for i, ch in enumerate(code):
            while ev_idx < len(events) and events[ev_idx][0] == i:
                off, kind, payload = events[ev_idx]
                ev_idx += 1
                line = line_of(code, off)
                if kind == "def":
                    # Body not opened yet; bind to depth+1 so the
                    # requirement drops when the body closes.
                    for ident in requires_map[payload]:
                        if ident not in self.mutexes:
                            continue
                        lockname, rank = self.rank_of_id(ident)
                        held.append({
                            "lock": lockname, "rank": rank,
                            "depth": depth + 1, "line": line,
                            "virtual": True,
                        })
                elif kind == "acq":
                    expr = payload.group(1)
                    ids = re.findall(r"\w+", expr)
                    ident = ids[-1] if ids else ""
                    if ident not in self.mutexes:
                        self.violation(
                            "undeclared-mutex", rel, line,
                            f"MutexLock on '{expr.strip()}': no "
                            f"ranked declaration found for "
                            f"'{ident}'")
                        continue
                    lockname, rank = self.rank_of_id(ident)
                    for h in held:
                        if h["lock"] == lockname:
                            continue  # same lock (e.g. per-item loop)
                        key = (h["lock"], lockname)
                        self.edges.setdefault(key, (rel, line))
                        if rank is not None and h["rank"] is not None \
                                and rank <= h["rank"]:
                            self.violation(
                                "rank-inversion", rel, line,
                                f"acquires '{lockname}' (rank {rank})"
                                f" while holding '{h['lock']}' (rank "
                                f"{h['rank']})")
                    held.append({
                        "lock": lockname, "rank": rank,
                        "depth": depth, "line": line,
                        "virtual": False,
                    })
                elif kind == "call":
                    real = [h for h in held if not h["virtual"]]
                    if real:
                        names = ", ".join(
                            f"'{h['lock']}'" for h in real)
                        self.violation(
                            "held-across-call", rel, line,
                            f"{names} held across "
                            f"'{payload.group(0).strip()}...' — a "
                            "lock must not be held across a "
                            "submit/blocking-queue handoff")
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                held = [h for h in held if h["depth"] <= depth]

    def check_cycles(self):
        graph = {}
        for (a, b) in self.edges:
            graph.setdefault(a, set()).add(b)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {}
        stack_path = []

        def dfs(node):
            color[node] = GRAY
            stack_path.append(node)
            for nxt in sorted(graph.get(node, ())):
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    cyc = stack_path[stack_path.index(nxt):] + [nxt]
                    rel, line = self.edges[(node, nxt)]
                    self.violation(
                        "cycle", rel, line,
                        "lock-order cycle: " + " -> ".join(cyc))
                elif c == WHITE:
                    dfs(nxt)
            stack_path.pop()
            color[node] = BLACK

        for node in sorted(graph):
            if color.get(node, WHITE) == WHITE:
                dfs(node)


def parse_ranks(lockrank_path):
    text = lockrank_path.read_text(encoding="utf-8")
    ranks = dict((m.group(1), int(m.group(2)))
                 for m in RANK_RE.finditer(text))
    if not ranks:
        print(f"picoeval-lockcheck: no ranks found in {lockrank_path}",
              file=sys.stderr)
        sys.exit(2)
    return ranks


def run_analysis(repo_root, files=None):
    ranks = parse_ranks(repo_root / "src/support/LockRank.hpp")
    analysis = Analysis(ranks)
    if files is None:
        files = []
        for d in COVERED_DIRS:
            root = repo_root / d
            files.extend(sorted(root.rglob("*.hpp")))
            files.extend(sorted(root.rglob("*.cpp")))
    texts = {}
    requires_map = {}
    for path in files:
        rel = path.relative_to(repo_root).as_posix()
        if rel in EXCLUDED_FILES:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        texts[rel] = text
        analysis.collect_declarations(rel, text)
        analysis.collect_requires(text, requires_map)
    for rel, text in texts.items():
        analysis.scan_acquisitions(rel, text, requires_map)
    analysis.check_cycles()
    return analysis


def write_json(analysis, path):
    mutexes = {}
    for ident, (lockname, rankname, rel, line) in sorted(
            analysis.mutexes.items()):
        entry = mutexes.setdefault(lockname, {
            "rank": analysis.ranks.get(rankname),
            "rank_name": rankname,
            "identifiers": [],
        })
        entry["identifiers"].append(
            {"id": ident, "file": rel, "line": line})
    doc = {
        "schema": "picoeval-lockgraph-v1",
        "ranks": analysis.ranks,
        "mutexes": mutexes,
        "edges": [
            {"from": a, "to": b, "file": rel, "line": line}
            for (a, b), (rel, line) in sorted(analysis.edges.items())
        ],
        "violations": [
            {"kind": kind, "file": rel, "line": line, "message": msg}
            for kind, rel, line, msg in analysis.violations
        ],
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def write_dot(analysis, path):
    lines = ["digraph lockgraph {", "  rankdir=LR;"]
    names = {}
    for ident, (lockname, rankname, _, _) in analysis.mutexes.items():
        names[lockname] = analysis.ranks.get(rankname)
    for lockname in sorted(names):
        rank = names[lockname]
        lines.append(
            f'  "{lockname}" [label="{lockname}\\nrank {rank}"];')
    for (a, b), (rel, line) in sorted(analysis.edges.items()):
        lines.append(f'  "{a}" -> "{b}" [label="{rel}:{line}"];')
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


SELFTEST_LOCKRANK = """
namespace pico::support { namespace rank {
constexpr int kUnranked = 0;
constexpr int kOuter = 100;
constexpr int kInner = 200;
} }
"""

SELFTEST_CLEAN = """
#include "support/ThreadAnnotations.hpp"
struct Widget {
    support::Mutex outerMutex{"widget.outer", support::rank::kOuter};
    support::Mutex innerMutex{"widget.inner", support::rank::kInner};
    void ok() {
        support::MutexLock lock(outerMutex);
        {
            support::MutexLock inner(innerMutex);
        }
    }
};
"""

SELFTEST_INVERTED = """
#include "support/ThreadAnnotations.hpp"
struct Gadget {
    support::Mutex outerMutex{"widget.outer", support::rank::kOuter};
    support::Mutex innerMutex{"widget.inner", support::rank::kInner};
    void forward() {
        support::MutexLock lock(outerMutex);
        support::MutexLock inner(innerMutex);
    }
    void backward() {
        support::MutexLock inner(innerMutex);
        support::MutexLock lock(outerMutex); // seeded inversion
    }
};
"""

SELFTEST_UNDECLARED = """
#include "support/ThreadAnnotations.hpp"
struct Sneaky {
    support::Mutex plainMutex;
    void touch() { support::MutexLock lock(plainMutex); }
};
"""

SELFTEST_HELD_ACROSS = """
#include "support/ThreadAnnotations.hpp"
struct Pool { void submit(int); };
struct Blocky {
    support::Mutex outerMutex{"widget.outer", support::rank::kOuter};
    Pool pool;
    void bad() {
        support::MutexLock lock(outerMutex);
        pool.submit(1);
    }
};
"""


def self_test(repo_root):
    """Prove the checker's teeth before trusting its green light:
    the real tree must pass, and seeded mutations (lock inversion +
    cycle, undeclared mutex, lock held across a handoff) must each
    be detected."""
    failures = []

    real = run_analysis(repo_root)
    if real.violations:
        for v in real.violations:
            print(f"  unexpected: {v}")
        failures.append("clean tree reported violations")
    if not real.edges:
        failures.append("clean tree produced no nesting edges "
                        "(scanner is blind)")

    def synthetic(sources, expect_kinds, label):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src/support").mkdir(parents=True)
            (root / "src/support/LockRank.hpp").write_text(
                SELFTEST_LOCKRANK)
            files = []
            for name, content in sources.items():
                p = root / "src/support" / name
                p.write_text(content)
                files.append(p)
            analysis = run_analysis(root, files=files)
            kinds = {v[0] for v in analysis.violations}
            missing = set(expect_kinds) - kinds
            if missing:
                failures.append(
                    f"{label}: expected {sorted(expect_kinds)}, "
                    f"got {sorted(kinds)}")

    synthetic({"Clean.hpp": SELFTEST_CLEAN}, set(), "clean fixture")
    synthetic({"Inverted.hpp": SELFTEST_INVERTED},
              {"rank-inversion", "cycle"}, "seeded lock inversion")
    synthetic({"Undeclared.hpp": SELFTEST_UNDECLARED},
              {"undeclared-mutex"}, "undeclared mutex")
    synthetic({"HeldAcross.hpp": SELFTEST_HELD_ACROSS},
              {"held-across-call"}, "lock held across handoff")

    # The clean fixture must not cry wolf.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src/support").mkdir(parents=True)
        (root / "src/support/LockRank.hpp").write_text(
            SELFTEST_LOCKRANK)
        p = root / "src/support/Clean.hpp"
        p.write_text(SELFTEST_CLEAN)
        analysis = run_analysis(root, files=[p])
        if analysis.violations:
            failures.append(
                f"clean fixture flagged: {analysis.violations}")

    if failures:
        for f in failures:
            print(f"picoeval-lockcheck self-test FAILED: {f}",
                  file=sys.stderr)
        return 2
    print("picoeval-lockcheck self-test passed "
          "(clean tree + 3 seeded mutations detected)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="picoeval static lock-order analysis "
                    "(see module docstring)")
    parser.add_argument("--json", default="lockgraph.json",
                        help="lock-graph JSON output path")
    parser.add_argument("--dot", default="lockgraph.dot",
                        help="DOT output path")
    parser.add_argument("--no-artifacts", action="store_true",
                        help="skip writing JSON/DOT")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker detects seeded "
                             "mutations, then exit")
    args = parser.parse_args()

    repo_root = Path(__file__).resolve().parent.parent
    if args.self_test:
        return self_test(repo_root)

    analysis = run_analysis(repo_root)
    if not args.no_artifacts:
        write_json(analysis, Path(args.json))
        write_dot(analysis, Path(args.dot))

    for kind, rel, line, msg in sorted(analysis.violations):
        print(f"{rel}:{line}: {kind}: {msg}")
    if analysis.violations:
        print(f"picoeval-lockcheck: "
              f"{len(analysis.violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"picoeval-lockcheck: {len(analysis.mutexes)} mutex "
          f"identifier(s), {len(analysis.edges)} nesting edge(s), "
          "no violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
