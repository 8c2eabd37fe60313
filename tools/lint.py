#!/usr/bin/env python3
"""Static lint gates for the C++ tree: one scanner, three rule families.

The runtime check layers (EXW_CHECKS) catch violations while the code
runs; these gates catch their static counterparts before it ever does.
All families share one comment/string stripper, one function-definition
finder and call-graph walker, and one suppression-and-ratchet mechanism.

index (src/) — keeps the strong index types (src/common/strong_id.hpp)
in use:
  * raw-int-loop: `for (int ...)` / `for (int32_t ...)` induction
    variables. Loops over an index space use the space's StrongId (or a
    64-bit raw type where OpenMP canonical form needs one); plain `int`
    silently truncates past 2^31. Small bounded counters (Krylov basis
    loops, the 8 corners of a hex) are covered by LOOP_ALLOWANCE.
  * c-style-int-cast: `(int)x`, `(size_t)i`, ... Narrowing between index
    spaces goes through `exw::checked_narrow<To>()`; sanctioned raw exits
    are `.value()` and `static_cast<std::size_t>(id)`. No allowance: every
    finding fails.

warm-path (src/) — static half of the purity contract (perf/purity.hpp).
Walks the call graph from every function annotated EXW_WARM_FN and flags
constructs that are categorically wrong on a warm (steady-state,
structure-frozen) path:
  * sort   — std::sort / stable_sort / partial_sort / nth_element. Warm
             paths replay a frozen plan; ordering belongs in plan build.
  * search — std::lower_bound / upper_bound / binary_search / find /
             find_if / search, and `.find(` on containers. Position
             lookups must be precomputed offsets.
  * growth — .push_back( / .emplace_back( / .emplace( / .resize( /
             .reserve( / .insert( / .assign(. Scratch is sized at build.
  * alloc  — `new`, std::make_unique, std::make_shared.
  Reachability is name-based: an identifier called from a warm body that
  matches a function *defined* in src/ pulls all its definitions in.
  Overloads and same-named methods are conservatively lumped together.
  cfd::Simulation's warm Picard branches are deliberately NOT roots —
  those callers own the cold fallback too, so they are policed by
  runtime EXW_PURITY_REGIONs only (DESIGN.md §14).

comm (src/, tests/, bench/, examples/) — static half of the
communication contract (par/comm_audit.hpp):
  * raw-tag-literal: the tag argument of Transport::send / recv /
    has_message must be a named par/tags.hpp constant, never an integer
    literal; literals sidestep the registry's uniqueness check.
  * rank-guarded-collective / collective-in-rank-body: an allreduce in a
    `parallel_for_ranks` lambda, directly or through functions defined in
    the scanned tree. Under a branch on the rank parameter a subset of
    ranks enters the collective (a deadlock on real hardware); anywhere
    else in a rank body it is still wrong, because collectives are
    orchestrator-driven in this runtime.
  * unordered-fp-order: range-for over a std::unordered_map/set feeding
    floating-point accumulation (`+=`) or a message payload (`.send`).
    Iteration order is unspecified, which breaks bitwise determinism.

Suppression: a line carrying `// exw-<tag>-ok: <reason>` (tag `index`,
`warm` or `comm`) drops that family's findings on the line. Ratchet: each
family's per-file allowance table was frozen when its gate was
introduced and may only SHRINK. A count above a file's allowance fails,
and so does an improvement until the entry is lowered to match.

Usage: python3 tools/lint.py [--root REPO_ROOT] [--self-test]
  --self-test plants one finding per rule and one suppressed finding per
  family in a scratch tree and fails unless exactly the planted findings
  come back.
Exit status: 0 clean, 1 violations / stale allowlist / failed self-test.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Callable

SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
SCAN_DIRS = ("src", "tests", "bench", "examples")

# ---------------------------------------------------------------------------
# Allowance tables. Counts may only decrease; delete a line once its file
# reaches zero.

# index: raw int loop variables (c-style-int-cast has no allowance).
LOOP_ALLOWANCE = {
    "src/mesh/generators.cpp": 2,
    "src/mesh/meshdb.cpp": 4,
    "src/mesh/overset.cpp": 3,
    "src/par/thread_pool.cpp": 2,
    "src/part/graph_partition.cpp": 1,
}

# warm-path: every entry is a construct inside the warm call graph that is
# justified at runtime by an EXW_PURITY_ALLOW scope (first-refill scratch
# priming) — see the matching comments at each site.
WARM_ALLOWANCE = {
    "src/amg/cache.cpp": 2,      # first-refill scratch priming (resize)
}

# comm: the tree was clean when the gate was introduced, so this starts and
# should stay empty; prefer `// exw-comm-ok: reason` for the rare justified
# construct over growing this table.
COMM_ALLOWANCE: dict[str, int] = {}

# ---------------------------------------------------------------------------
# Shared C++ scanning.

# Function-call heads and definitions: identifier followed by `(`. It also
# matches control keywords, which CONTROL_KEYWORDS filters out.
CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "alignof", "decltype", "static_assert", "defined", "assert",
}
# Names kept out of call-graph edges: standard container methods (a
# `.find(` on a std::map would otherwise pull in any src/ function named
# `find`; their misuse is caught directly by the warm-path rules) plus
# ubiquitous tiny accessors that only add noise.
CALL_EXCLUDE = {
    "find", "find_if", "insert", "emplace", "emplace_back", "push_back",
    "resize", "reserve", "assign", "erase", "clear", "count", "at",
    "begin", "end", "size", "data", "empty", "front", "back", "swap",
    "value", "get", "min", "max", "abs", "move", "region",
}


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def matching_close(code: str, start: int) -> int:
    """Index of the bracket closing the `(` or `{` at `start` (-1 if none)."""
    opening = code[start]
    closing = ")" if opening == "(" else "}"
    depth = 0
    for i in range(start, len(code)):
        if code[i] == opening:
            depth += 1
        elif code[i] == closing:
            depth -= 1
            if depth == 0:
                return i
    return -1


def body_span(code: str, open_brace: int) -> int:
    """Index one past the `}` matching the `{` at open_brace."""
    close = matching_close(code, open_brace)
    return len(code) if close < 0 else close + 1


def split_args(argtext: str) -> list[str]:
    """Split a call's argument text at top-level commas."""
    args, depth, cur = [], 0, []
    for ch in argtext:
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        args.append("".join(cur))
    return args


def _brace_before_semicolon(code: str, j: int) -> int:
    k = code.find("{", j)
    semi = code.find(";", j)
    return -1 if k < 0 or (0 <= semi < k) else k


def find_definitions(code: str):
    """Yield (name, head_start, body_start, body_end) for every function
    definition in stripped source. Heuristic: an identifier + `(...)`
    where the matching `)` is followed (modulo specifiers, a trailing
    return type or a constructor init list) by `{`, and the parameter list
    contains no `;` (rules out control blocks over statements and class
    bodies)."""
    for m in CALL.finditer(code):
        name = m.group(1)
        if name in CONTROL_KEYWORDS:
            continue
        depth, i = 0, m.end() - 1
        close = -1
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
            elif code[i] == ";" and depth == 1:
                break  # parameter lists don't contain `;`
            i += 1
        if close < 0:
            continue
        j = close + 1
        while j < len(code):
            rest = code[j:j + 24]
            if code[j] in " \t\n":
                j += 1
            elif rest.startswith(("const", "noexcept", "override", "final")):
                j += len(re.match(r"\w+", rest).group(0))
            elif rest.startswith("->") or code[j] == ":":
                j = _brace_before_semicolon(code, j)
                break
            elif code[j] == "{":
                break
            else:
                j = -1
                break
        if j < 0 or j >= len(code) or code[j] != "{":
            continue
        yield name, m.start(), j, body_span(code, j)


def calls(code: str, b0: int, b1: int, exclude=frozenset()):
    """Names called in code[b0:b1], in order, minus keywords and `exclude`."""
    for m in CALL.finditer(code, b0, b1):
        if m.group(1) not in CONTROL_KEYWORDS and m.group(1) not in exclude:
            yield m.group(1)


def closure(start, step: Callable):
    """Names reachable from `start` through `step(name)`; returns the set
    and, for each name reached by a step, the name it was first reached
    from (depth-first, in call order)."""
    seen: set[str] = set()
    via: dict[str, str] = {}
    stack = list(dict.fromkeys(start))
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        for nxt in step(name):
            if nxt not in seen:
                via.setdefault(nxt, name)
                stack.append(nxt)
    return seen, via


@dataclass
class Source:
    raw_lines: list[str]
    code: str  # comments and strings stripped, line structure kept


@dataclass
class Definition:
    order: int  # position in a source-order walk of the scanned files
    rel: str
    head: int
    b0: int
    b1: int


def definitions(files: dict[str, Source], skip=lambda name: False):
    """name -> [Definition] over `files`, in source order."""
    defs: dict[str, list[Definition]] = {}
    order = 0
    for rel, src in files.items():
        for name, head, b0, b1 in find_definitions(src.code):
            if not skip(name):
                defs.setdefault(name, []).append(
                    Definition(order, rel, head, b0, b1))
                order += 1
    return defs


def load_tree(root: pathlib.Path, dirs) -> dict[str, Source]:
    files: dict[str, Source] = {}
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            raw = path.read_text(encoding="utf-8")
            files[path.relative_to(root).as_posix()] = Source(
                raw.splitlines(), strip_comments_and_strings(raw))
    return files


@dataclass
class Finding:
    rel: str
    line: int
    rule: str
    message: str


def line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1

# ---------------------------------------------------------------------------
# index family.

RAW_INT_LOOP = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?(?:std::)?(?:int|int32_t)\s+\w+")
# The `(?<![\w>])` guard keeps `f(int)` declarations and template args out.
C_STYLE_INT_CAST = re.compile(
    r"(?<![\w>])\(\s*(?:unsigned\s+)?(?:std::)?"
    r"(?:int|long|short|int32_t|int64_t|uint32_t|uint64_t|size_t|ptrdiff_t)"
    r"(?:\s+long)?\s*\)\s*[A-Za-z_(]"
)


def scan_index(files: dict[str, Source]):
    findings = []
    for rel, src in files.items():
        for lineno, line in enumerate(src.code.splitlines(), 1):
            if RAW_INT_LOOP.search(line):
                findings.append(Finding(rel, lineno, "raw-int-loop",
                                        line.strip()))
            if C_STYLE_INT_CAST.search(line):
                findings.append(Finding(
                    rel, lineno, "c-style-int-cast",
                    f"C-style integer cast (use checked_narrow<To>() or "
                    f"static_cast): {line.strip()}"))
    return findings, f"{len(files)} files"

# ---------------------------------------------------------------------------
# warm-path family.

WARM_MACRO = "EXW_WARM_FN"
FORBIDDEN = [
    (re.compile(r"\bstd::(?:stable_|partial_)?sort\s*\("), "sort"),
    (re.compile(r"\bstd::nth_element\s*\("), "sort"),
    (re.compile(r"\bstd::(?:lower|upper)_bound\s*\("), "search"),
    (re.compile(r"\bstd::binary_search\s*\("), "search"),
    (re.compile(r"\bstd::(?:find|find_if|search)\s*\("), "search"),
    (re.compile(r"\.find\s*\("), "search"),
    (re.compile(r"\.(?:push_back|emplace_back|emplace)\s*\("), "growth"),
    (re.compile(r"\.(?:resize|reserve|insert|assign)\s*\("), "growth"),
    (re.compile(r"(?<!\w)new\s+[A-Za-z_:]"), "alloc"),
    (re.compile(r"\bstd::make_(?:unique|shared)\s*<"), "alloc"),
]


def scan_warm(files: dict[str, Source]):
    defs = definitions(files)
    # A definition is a warm root if EXW_WARM_FN appears between the
    # previous statement boundary and its head.
    def is_root(d: Definition) -> bool:
        prefix = files[d.rel].code[:d.head]
        stmt = max(prefix.rfind(";"), prefix.rfind("}"))
        return WARM_MACRO in prefix[stmt + 1:]

    roots = [name for _, name in sorted(
        (d.order, name) for name, ds in defs.items() for d in ds
        if is_root(d))]
    if not roots:
        return None, "no EXW_WARM_FN roots found in src/"

    def callees(fn):
        for d in defs.get(fn, []):
            for callee in calls(files[d.rel].code, d.b0, d.b1, CALL_EXCLUDE):
                if callee != fn and callee in defs:
                    yield callee

    warm, via = closure(roots, callees)
    findings = []
    scanned = set()
    for fn in sorted(warm):
        for d in defs.get(fn, []):
            if (d.rel, d.b0, d.b1) in scanned:
                continue
            scanned.add((d.rel, d.b0, d.b1))
            code = files[d.rel].code
            first = line_of(code, d.b0)
            how = f" (reached via {via[fn]})" if fn in via else ""
            for off, line in enumerate(code[d.b0:d.b1].splitlines()):
                for pat, category in FORBIDDEN:
                    if pat.search(line):
                        findings.append(Finding(
                            d.rel, first + off, category,
                            f"[{category}] in {fn}(){how}: {line.strip()}"))
    return findings, (f"{len(set(roots))} warm roots, "
                      f"{len(warm)} reachable functions")

# ---------------------------------------------------------------------------
# comm family.

# Transport entry points that carry a tag as their third argument.
TAG_CALL = re.compile(r"\.(?:send|recv|has_message)\s*(?:<[\w:\s,]*>)?\s*\(")
INT_LITERAL = re.compile(r"^[0-9][0-9']*$")
# A collective call token (Runtime::allreduce_* family).
COLLECTIVE = re.compile(r"\ballreduce_\w+\s*\(")
RANK_REGION = re.compile(r"\bparallel_for_ranks\s*\(")
LAMBDA_HEAD = re.compile(r"\[[^\]]*\]\s*\(([^)]*)\)")
# Declarations of unordered containers; group(1) is the variable name.
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>[&\s]+"
    r"([A-Za-z_]\w*)")


def statement_or_block(code: str, k: int) -> tuple[int, int]:
    """Extent of the brace block or single statement starting at/after k."""
    while k < len(code) and code[k] in " \t\n":
        k += 1
    if k < len(code) and code[k] == "{":
        return k, body_span(code, k)
    semi = code.find(";", k)
    return k, len(code) if semi < 0 else semi + 1


def rank_guard_spans(body: str, rank_param: str) -> list[tuple[int, int]]:
    """Spans of `body` controlled by an if/else-if whose condition
    mentions the rank parameter."""
    if not rank_param:
        return []
    rank_word = re.compile(rf"\b{re.escape(rank_param)}\b")
    spans = []
    for m in re.finditer(r"\bif\s*\(", body):
        close = matching_close(body, m.end() - 1)
        if close >= 0 and rank_word.search(body[m.end() - 1:close]):
            spans.append(statement_or_block(body, close + 1))
    return spans


def scan_raw_tags(rel: str, code: str):
    for m in TAG_CALL.finditer(code):
        close = matching_close(code, m.end() - 1)
        if close < 0:
            continue
        args = split_args(code[m.end():close])
        if len(args) >= 3 and INT_LITERAL.match(args[2].strip()):
            tag = args[2].strip()
            yield Finding(rel, line_of(code, m.start()), "raw-tag-literal",
                          f"[raw-tag-literal] tag argument is the literal "
                          f"{tag}; use a named constant from par/tags.hpp")


def scan_rank_bodies(rel: str, code: str, reaching: set[str]):
    for m in RANK_REGION.finditer(code):
        lam = LAMBDA_HEAD.search(code, m.end() - 1)
        if lam is None:
            continue
        params = lam.group(1).strip()
        rank_param = ""
        if params:
            words = re.findall(r"[A-Za-z_]\w*", split_args(params)[0])
            rank_param = words[-1] if words else ""
        brace = code.find("{", lam.end())
        if brace < 0:
            continue
        body = code[brace:body_span(code, brace)]
        guarded = rank_guard_spans(body, rank_param)
        hits = [(cm.start(), f"collective {cm.group(0)[:-1]}")
                for cm in COLLECTIVE.finditer(body)]
        hits += [(cm.start(), f"call to {cm.group(1)}() which reaches a "
                              f"collective")
                 for cm in CALL.finditer(body)
                 if cm.group(1) not in CONTROL_KEYWORDS
                 and cm.group(1) not in CALL_EXCLUDE
                 and cm.group(1) in reaching]
        for pos, what in hits:
            if any(a <= pos < b for a, b in guarded):
                rule = "rank-guarded-collective"
                detail = (f"{what} under a branch on rank parameter "
                          f"'{rank_param}' — a subset of ranks would enter "
                          f"the collective (deadlock)")
            else:
                rule = "collective-in-rank-body"
                detail = (f"{what} inside a rank body — collectives are "
                          f"orchestrator-driven in this runtime")
            yield Finding(rel, line_of(code, brace) + line_of(body, pos) - 1,
                          rule, f"[{rule}] {detail}")


def scan_unordered_order(rel: str, code: str):
    unordered = set(UNORDERED_DECL.findall(code))
    if not unordered:
        return
    for m in re.finditer(r"\bfor\s*\(", code):
        close = matching_close(code, m.end() - 1)
        if close < 0:
            continue
        # Range-for: a top-level `:` that is not part of `::`.
        parts = re.split(r"(?<!:):(?!:)", code[m.end():close], maxsplit=1)
        if len(parts) != 2:
            continue
        words = re.findall(r"[A-Za-z_]\w*", parts[1])
        if not words or words[-1] not in unordered:
            continue
        k0, k1 = statement_or_block(code, close + 1)
        loop_body = code[k0:k1]
        if "+=" in loop_body or ".send" in loop_body:
            yield Finding(
                rel, line_of(code, m.start()), "unordered-fp-order",
                f"[unordered-fp-order] iteration over unordered container "
                f"'{words[-1]}' feeds FP accumulation or a message payload; "
                f"order is unspecified — use an ordered container or sort "
                f"the keys first")


def scan_comm(files: dict[str, Source]):
    # Functions whose bodies reach an allreduce_* call, directly or through
    # other scanned definitions. The allreduce_* definitions themselves are
    # excluded: calling them is what is detected, their bodies are the
    # implementation.
    defs = definitions(files, skip=lambda n: n.startswith("allreduce_"))
    callers: dict[str, set[str]] = {}
    direct = []
    for name, ds in defs.items():
        for d in ds:
            code = files[d.rel].code
            if COLLECTIVE.search(code, d.b0, d.b1):
                direct.append(name)
            for callee in calls(code, d.b0, d.b1):
                if callee != name:
                    callers.setdefault(callee, set()).add(name)
    reaching, _ = closure(direct, lambda n: sorted(callers.get(n, ())))

    findings = []
    for rel, src in files.items():
        findings += scan_raw_tags(rel, src.code)
        findings += scan_rank_bodies(rel, src.code, reaching)
        findings += scan_unordered_order(rel, src.code)
    return findings, ""

# ---------------------------------------------------------------------------
# The gate: suppression, ratchet, report.


@dataclass
class Family:
    name: str
    dirs: tuple[str, ...]
    scan: Callable
    suppress_tag: str
    allowance: dict[str, int]
    allowance_name: str
    counted: set[str] | None  # rules the allowance counts (None: all)
    noun: str                 # what the allowance counts
    advice: str               # how to fix an over-allowance file


FAMILIES = [
    Family("index", ("src",), scan_index, "index", LOOP_ALLOWANCE,
           "LOOP_ALLOWANCE", {"raw-int-loop"}, "raw int loop variable(s)",
           "use the index space's StrongId (or std::int64_t for OpenMP "
           "canonical loops)"),
    Family("warm-path", ("src",), scan_warm, "warm", WARM_ALLOWANCE,
           "WARM_ALLOWANCE", None, "warm-path finding(s)",
           "move the work to plan build, or justify it with a runtime "
           "EXW_PURITY_ALLOW plus `// exw-warm-ok: reason`"),
    Family("comm", SCAN_DIRS, scan_comm, "comm",
           COMM_ALLOWANCE, "COMM_ALLOWANCE", None, "comm finding(s)",
           "use par/tags.hpp constants, hoist collectives to the "
           "orchestrator, or justify with `// exw-comm-ok: reason`"),
]


def run_family(fam: Family, tree: dict[str, Source]):
    """Return (findings after suppression, failures, OK summary)."""
    files = {rel: src for rel, src in tree.items()
             if rel.split("/", 1)[0] in fam.dirs}
    findings, stats = fam.scan(files)
    if findings is None:
        return [], [stats], ""
    marker = re.compile(rf"//\s*exw-{fam.suppress_tag}-ok:\s*\S")

    def suppressed(f: Finding) -> bool:
        lines = files[f.rel].raw_lines
        return f.line <= len(lines) and bool(marker.search(lines[f.line - 1]))

    findings = [f for f in findings if not suppressed(f)]

    def is_counted(f: Finding) -> bool:
        return fam.counted is None or f.rule in fam.counted

    failures = []
    remaining = 0
    for rel in sorted({f.rel for f in findings} | set(fam.allowance)):
        mine = [f for f in findings if f.rel == rel]
        counted = [f for f in mine if is_counted(f)]
        have, allowed = len(counted), fam.allowance.get(rel, 0)
        remaining += have
        if rel not in files:
            failures.append(f"{rel}: listed in {fam.allowance_name} but does "
                            f"not exist — remove the stale entry.")
        elif have > allowed:
            failures.append(f"{rel}: {have} {fam.noun}, allowance is "
                            f"{allowed} — {fam.advice}:")
            failures += [f"  {rel}:{f.line}: {f.message}" for f in counted]
        elif have < allowed:
            failures.append(f"{rel}: improved to {have} {fam.noun} but the "
                            f"allowance is still {allowed} — shrink its entry "
                            f"in tools/lint.py to ratchet the gate.")
        failures += [f"{rel}:{f.line}: {f.message}"
                     for f in mine if not is_counted(f)]
    prefix = f"{stats}, " if stats else ""
    return findings, failures, (f"{prefix}{remaining} allowlisted "
                                f"{fam.noun} remaining")


def lint(root: pathlib.Path) -> int:
    if not (root / "src").is_dir():
        print(f"lint: no src/ under {root}", file=sys.stderr)
        return 1
    tree = load_tree(root, SCAN_DIRS)
    status = 0
    for fam in FAMILIES:
        _, failures, summary = run_family(fam, tree)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            print(f"\nlint {fam.name}: FAILED ({len(failures)} finding(s))",
                  file=sys.stderr)
            status = 1
        else:
            print(f"lint {fam.name}: OK ({summary})")
    return status

# ---------------------------------------------------------------------------
# Self-test: every planted line carries `// expect: <family> <rule>`; the
# scan must return exactly those findings, so a disabled rule (a missed
# plant) or an ignored suppression (an extra finding) fails.

SEEDS = {
    "src/seed_index.cpp": r"""
void loops(const double* xs, long n) {
  for (int i = 0; i < 3; ++i) {}  // expect: index raw-int-loop
  for (std::int32_t j = 0; j < 3; ++j) {}  // expect: index raw-int-loop
  long k = (int)n;  // expect: index c-style-int-cast
  for (int s = 0; s < 2; ++s) {}  // exw-index-ok: self-test suppression
  for (std::int64_t g = 0; g < n; ++g) {}
  for (LocalIndex l{0}; l < LocalIndex{4}; ++l) {}
  k += static_cast<long>(xs[0]);
}
""",
    "src/seed_warm.cpp": r"""
EXW_WARM_FN void warm_root(std::vector<double>& v, std::map<int, int>& m) {
  std::stable_sort(v.begin(), v.end());  // expect: warm-path sort
  std::nth_element(v.begin(), v.begin(), v.end());  // expect: warm-path sort
  warm_helper(v, m);
}
void warm_helper(std::vector<double>& v, std::map<int, int>& m) {
  auto a = std::lower_bound(v.begin(), v.end(), 1.0);  // expect: warm-path search
  bool b = std::binary_search(v.begin(), v.end(), 1.0);  // expect: warm-path search
  auto c = std::find_if(v.begin(), v.end(), pred);  // expect: warm-path search
  auto d = m.find(3);  // expect: warm-path search
  v.emplace_back(1.0);  // expect: warm-path growth
  v.reserve(8);  // expect: warm-path growth
  auto* e = new Scratch;  // expect: warm-path alloc
  auto f = std::make_unique<Scratch>();  // expect: warm-path alloc
  v.resize(4);  // exw-warm-ok: self-test suppression
}
void cold_only(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
}
""",
    "src/seed_comm.cpp": r"""
void raw_tag(Transport& t, std::vector<int> payload) {
  t.send(RankId{0}, RankId{1}, 42, payload);  // expect: comm raw-tag-literal
  t.send(RankId{0}, RankId{1}, tags::kTestPing, payload);
  t.send(RankId{0}, RankId{1}, 43, payload);  // exw-comm-ok: self-test suppression
}
void reduce_helper(Runtime& rt, const std::vector<double>& xs) {
  rt.allreduce_max(xs);
}
void guarded(Runtime& rt, const std::vector<double>& xs) {
  rt.parallel_for_ranks([&](RankId r) {
    if (r.value() == 0) {
      rt.allreduce_sum(xs);  // expect: comm rank-guarded-collective
    }
  });
}
void in_body(Runtime& rt, const std::vector<double>& xs) {
  rt.parallel_for_ranks([&](RankId rank) {
    rt.allreduce_sum(xs);  // expect: comm collective-in-rank-body
    reduce_helper(rt, xs);  // expect: comm collective-in-rank-body
  });
  reduce_helper(rt, xs);
}
double unordered_sum(const std::unordered_map<int, double>& weights) {
  double s = 0.0;
  for (const auto& [k, v] : weights) {  // expect: comm unordered-fp-order
    s += v;
  }
  return s;
}
""",
}
EXPECT = re.compile(r"//\s*expect:\s*(\S+)\s+(\S+)")


def self_test() -> int:
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        for rel, text in SEEDS.items():
            (root / rel).write_text(text, encoding="utf-8")
        tree = load_tree(root, SCAN_DIRS)
        for fam in FAMILIES:
            want = sorted((rel, n, m.group(2))
                          for rel, text in SEEDS.items()
                          for n, line in enumerate(text.splitlines(), 1)
                          for m in [EXPECT.search(line)]
                          if m and m.group(1) == fam.name)
            rules = {r for _, _, r in want}
            findings, failures, _ = run_family(fam, tree)
            got = sorted((f.rel, f.line, f.rule) for f in findings)
            if got != want:
                errors.append(f"{fam.name}: missed {sorted(set(want) - set(got))}, "
                              f"unexpected {sorted(set(got) - set(want))}")
            if not failures:
                errors.append(f"{fam.name}: planted findings did not fail "
                              f"the gate")
            # The ratchet: one over the allowance fails, one under fails
            # as stale, an exact allowance passes.
            seed = f"src/seed_{fam.suppress_tag}.cpp"
            n = sum(1 for f in findings
                    if f.rel == seed and (fam.counted is None
                                          or f.rule in fam.counted))
            for allowed in (n - 1, n + 1, n):
                _, fails, _ = run_family(
                    replace(fam, allowance={seed: allowed}), tree)
                ratchet_fails = [f for f in fails if f.startswith(seed + ": ")]
                if bool(ratchet_fails) != (allowed != n):
                    errors.append(f"{fam.name}: allowance {allowed} for {n} "
                                  f"counted finding(s) "
                                  f"{'failed' if ratchet_fails else 'passed'}")
            print(f"lint --self-test {fam.name}: {len(want)} planted "
                  f"finding(s) over {len(rules)} rule(s)")
    if errors:
        print("lint --self-test: FAILED", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print("lint --self-test: OK (every rule fires on its plants; "
          "suppressions honored; ratchets hold)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on planted findings")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return lint(pathlib.Path(args.root))


if __name__ == "__main__":
    sys.exit(main())
