#!/usr/bin/env python3
"""Static SPMD-discipline lint — the compile-time companion of the runtime
conformance verifier (src/analysis/conformance).

Five checks over src/, bench/ and tests/:

  affinity    A raw `.local_span(` on a GlobalArray outside src/pgas/ and
              src/collectives/.  Private-pointer block access is the
              `localcpy` optimization and is legal, but every site outside
              the runtime/collectives layers must be deliberate: it
              bypasses GetD/SetD and the access discipline only catches
              misuse at runtime in check builds.  New sites must either
              move behind a collective or be added to the allowlist with a
              reason.

  uniformity  A collective call (getd / setd / setd_min / setd_add /
              setd_combine / replicate_to_buddy) or a barrier lexically
              inside an `if` whose condition reads the thread id
              (`ctx.id()`, `ctx.tid()`, ...).  Collectives are called by
              every thread or by none; a thread-dependent branch around
              one deadlocks the barrier or corrupts the exchange.  (The
              runtime verifier catches the dynamic case; this catches it
              before the code ever runs.)

  ownerarith  Raw block-owner arithmetic outside src/pgas/ and
              src/collectives/: a `.block_begin(` / `.block_end(` call
              (storage offsets — they equal global indices only on the
              block fast path) or an owner-by-division `/ blk`.  Since the
              partitioning subsystem landed (src/partition/,
              docs/PARTITIONING.md), global<->local mapping goes through
              Partitioning::owner_of/local_of/global_of or
              GlobalArray::global_index/read_all; code that does the block
              arithmetic by hand silently breaks under --partition.
              Deliberate block-only fast paths go on the allowlist with a
              reason.

  fiber       `thread_local`, `std::this_thread`, `std::condition_variable`
              or `sleep_for` / `sleep_until` in src/ outside
              src/pgas/runtime.*.  SPMD threads run as fibers, several to
              one OS thread (src/pgas/executor.hpp): thread-local state is
              shared between the fibers of a worker, and a blocking wait
              stalls every sibling until it returns.  Only the runtime may
              keep per-OS-thread state (it restores it on every fiber
              resume).  Also a ucontext call (`getcontext`, `makecontext`,
              `swapcontext`, `setcontext`) anywhere in src/, the runtime
              included: it would switch stacks behind the executor's
              sanitizer annotations, and glibc's versions make a
              signal-mask syscall on every switch.

  atomic      `std::atomic`, `atomic_ref` or `fetch_add` in src/machine/.
              The cost models are written only by an SPMD thread's own
              tally (machine::NetTally) and by the barrier completion
              step, which folds the tallies while every thread is parked
              (docs/MODEL.md §2).  An atomic in a model means some charge
              path writes it from SPMD code again: a shared cache line
              per charge, and a data race once the other counters are
              plain integers.

Allowlist: scripts/lint_spmd_allow.txt.  Each non-comment line is
  <glob>[:<check>]   [# reason]
matching repo-relative paths (fnmatch); a bare glob suppresses all
checks for matching files, `:affinity` / `:uniformity` / `:ownerarith` /
`:fiber` / `:atomic` suppresses one.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
`--self-test` runs the built-in fixture snippets instead of the tree.
"""

import fnmatch
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "bench", "tests")
EXEMPT_PREFIXES = ("src/pgas/", "src/collectives/")
FIBER_SCOPE = "src/"
FIBER_EXEMPT_PREFIX = "src/pgas/runtime."
ATOMIC_SCOPE = "src/machine/"
CHECKS = ("affinity", "uniformity", "ownerarith", "fiber", "atomic")
ALLOWLIST = os.path.join("scripts", "lint_spmd_allow.txt")

AFFINITY_RE = re.compile(r"[.\->]\s*local_span\s*\(")
OWNERARITH_RE = re.compile(
    r"(?:\.|->)\s*(?:block_begin|block_end)\s*\(|/\s*blk\b")
THREAD_ID_RE = re.compile(r"\b\w+\s*(?:\.|->)\s*(?:id|tid)\s*\(\s*\)")
FIBER_RE = re.compile(
    r"\bthread_local\b|\bstd\s*::\s*this_thread\b"
    r"|\bstd\s*::\s*condition_variable(?:_any)?\b"
    r"|\bsleep_(?:for|until)\s*\(")
UCONTEXT_RE = re.compile(r"\b(?:get|make|swap|set)context\s*\(")
ATOMIC_RE = re.compile(
    r"\bstd\s*::\s*atomic\b|\batomic_ref\b|\bfetch_add\b")
COLLECTIVE_RE = re.compile(
    r"(?:\b(?:getd|setd|setd_min|setd_add|setd_combine|replicate_to_buddy)"
    r"\s*\(|(?:\.|->)\s*(?:barrier|exchange_barrier)\s*\()"
)


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving newlines
    and column positions so findings carry real line numbers."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if ch == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
            elif ch == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
            elif ch in ('"', "'"):
                mode = ch
                out.append(ch)
                i += 1
            else:
                out.append(ch)
                i += 1
        elif mode == "line":
            if ch == "\n":
                mode = None
                out.append(ch)
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if ch == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
            else:
                out.append(ch if ch == "\n" else " ")
                i += 1
        else:  # inside a string/char literal
            if ch == "\\":
                out.append("  ")
                i += 2
            elif ch == mode:
                mode = None
                out.append(ch)
                i += 1
            else:
                out.append(ch if ch == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def find_matching(text, open_pos, open_ch, close_ch):
    """Index just past the bracket matching text[open_pos], or len(text)."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def check_affinity(path, clean):
    out = []
    for m in AFFINITY_RE.finditer(clean):
        out.append(
            (path, line_of(clean, m.start()), "affinity",
             "raw GlobalArray local_span() outside src/pgas//"
             "src/collectives/ — route through a collective or allowlist "
             "with a reason"))
    return out


def check_ownerarith(path, clean):
    out = []
    for m in OWNERARITH_RE.finditer(clean):
        out.append(
            (path, line_of(clean, m.start()), "ownerarith",
             "raw block-owner arithmetic (block_begin/block_end or owner "
             "division) — valid only on the block layout; route through "
             "Partitioning / GlobalArray::global_index / read_all or "
             "allowlist the block-only fast path with a reason"))
    return out


def check_fiber(path, clean):
    out = []
    if not path.startswith(FIBER_EXEMPT_PREFIX):
        for m in FIBER_RE.finditer(clean):
            out.append(
                (path, line_of(clean, m.start()), "fiber",
                 "`%s` outside src/pgas/runtime.* — SPMD threads share OS "
                 "threads as fibers, so thread-local state is shared and a "
                 "blocking wait stalls sibling threads" % m.group(0).strip()))
    for m in UCONTEXT_RE.finditer(clean):
        out.append(
            (path, line_of(clean, m.start()), "fiber",
             "`%s` — a ucontext switch bypasses the fiber executor's "
             "sanitizer annotations and makes a signal-mask syscall; "
             "switch with the executor's own pgraph_fiber_switch" %
             m.group(0).rstrip("( \t\n")))
    return out


def check_atomic(path, clean):
    out = []
    for m in ATOMIC_RE.finditer(clean):
        out.append(
            (path, line_of(clean, m.start()), "atomic",
             "`%s` in a machine model — charges go to the calling thread's "
             "NetTally, and only the barrier completion step folds them "
             "into the models" % " ".join(m.group(0).split())))
    return out


IF_RE = re.compile(r"\bif\s*\(")


def check_uniformity(path, clean):
    out = []
    for m in IF_RE.finditer(clean):
        cond_open = m.end() - 1
        cond_close = find_matching(clean, cond_open, "(", ")")
        cond = clean[cond_open:cond_close]
        if not THREAD_ID_RE.search(cond):
            continue
        # Branch extent: the brace block, or the single statement up to ';'.
        j = cond_close
        while j < len(clean) and clean[j] in " \t\n":
            j += 1
        if j < len(clean) and clean[j] == "{":
            body_end = find_matching(clean, j, "{", "}")
        else:
            body_end = clean.find(";", j)
            body_end = len(clean) if body_end < 0 else body_end + 1
        body = clean[j:body_end]
        for c in COLLECTIVE_RE.finditer(body):
            out.append(
                (path, line_of(clean, j + c.start()), "uniformity",
                 "collective/barrier inside a thread-id-dependent branch "
                 "(condition at line %d: `%s`) — collectives must be "
                 "called by every thread" %
                 (line_of(clean, cond_open), " ".join(cond.split()))))
    return out


def load_allowlist(repo):
    rules = []
    path = os.path.join(repo, ALLOWLIST)
    if not os.path.exists(path):
        return rules
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" in line:
                glob, check = line.rsplit(":", 1)
                if check not in CHECKS:
                    glob, check = line, None
            else:
                glob, check = line, None
            rules.append((glob, check))
    return rules


def allowed(rules, path, check):
    return any(
        fnmatch.fnmatch(path, glob) and (c is None or c == check)
        for glob, c in rules)


def scan_file(relpath, text):
    clean = strip_comments_and_strings(text)
    out = []
    if relpath.startswith(FIBER_SCOPE):
        out += check_fiber(relpath, clean)
    if relpath.startswith(ATOMIC_SCOPE):
        out += check_atomic(relpath, clean)
    if not any(relpath.startswith(p) for p in EXEMPT_PREFIXES):
        out += (check_affinity(relpath, clean)
                + check_uniformity(relpath, clean)
                + check_ownerarith(relpath, clean))
    return out


def run_tree(repo):
    rules = load_allowlist(repo)
    findings = []
    for d in SCAN_DIRS:
        for root, _, files in os.walk(os.path.join(repo, d)):
            for name in sorted(files):
                if not name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    continue
                full = os.path.join(root, name)
                rel = os.path.relpath(full, repo).replace(os.sep, "/")
                with open(full, errors="replace") as f:
                    text = f.read()
                for path, line, check, msg in scan_file(rel, text):
                    if not allowed(rules, path, check):
                        findings.append((path, line, check, msg))
    for path, line, check, msg in findings:
        print("%s:%d: [%s] %s" % (path, line, check, msg))
    if findings:
        print("lint_spmd: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("lint_spmd: clean")
    return 0


# --- self test -------------------------------------------------------------

SELF_TESTS = [
    # (name, path, source, expected check names)
    ("raw local_span outside runtime layers", "src/core/x.cpp",
     "void f(Ctx& ctx) { auto blk = d.local_span(ctx.id()); }",
     ["affinity"]),
    ("local_span inside pgas is the implementation", "src/pgas/x.hpp",
     "auto blk = d.local_span(me);", []),
    ("collective under a thread-id branch", "src/core/y.cpp",
     "void f(Ctx& ctx) {\n  if (ctx.id() == 0) {\n    ctx.barrier();\n  }\n}",
     ["uniformity"]),
    ("braceless thread-id branch", "src/core/y2.cpp",
     "void f(Ctx& ctx) { if (ctx.tid() != 0) ctx.exchange_barrier(); }",
     ["uniformity"]),
    ("setd under a thread-id branch", "tests/t.cpp",
     "if (ctx.id() == 1) c::setd_min(ctx, d, idx, val, opt, cc, ws);",
     ["uniformity"]),
    ("uniform branch around a collective is fine", "src/core/z.cpp",
     "if (frontier_empty) { ctx.barrier(); }", []),
    ("thread-id branch without a collective is fine", "src/core/w.cpp",
     "if (ctx.id() == 0) std::printf(\"leader\\n\");", []),
    ("commented-out collective is ignored", "src/core/v.cpp",
     "if (ctx.id() == 0) {\n  // ctx.barrier();\n  int x = 0;\n}", []),
    ("local_span in a string literal is ignored", "src/core/u.cpp",
     'const char* s = "d.local_span(me)";', []),
    ("block_begin arithmetic outside runtime layers", "src/core/oa.cpp",
     "const std::uint64_t g = d.block_begin(me) + k;", ["ownerarith"]),
    ("block_end in the storage layer is the implementation",
     "src/pgas/oa.hpp", "for (auto i = block_begin(t); i < block_end(t);)",
     []),
    ("owner by division", "src/core/ob.cpp",
     "const int owner = static_cast<int>(g / blk);", ["ownerarith"]),
    ("policy-routed owner lookup is fine", "src/core/oc.cpp",
     "const int owner = P.owner_of(g); const auto s = d.global_index(me, k);",
     []),
    ("commented-out block arithmetic is ignored", "src/core/od.cpp",
     "// const std::uint64_t base = d.block_begin(me);\nint x = 0;", []),
    ("thread_local in a kernel", "src/core/tl.cpp",
     "thread_local std::vector<int> scratch;", ["fiber"]),
    ("thread_local in the runtime is the implementation",
     "src/pgas/runtime.cpp", "thread_local ThreadCtx* t_current_ctx;", []),
    ("thread_local elsewhere in pgas", "src/pgas/global_array.hpp",
     "static thread_local int last_owner = -1;", ["fiber"]),
    ("std::this_thread in the serving layer", "src/serve/ty.cpp",
     "std::this_thread::yield();", ["fiber"]),
    ("condition variable in a collective", "src/collectives/cv.hpp",
     "std::condition_variable_any cv; cv.wait(lk);", ["fiber"]),
    ("sleep_for behind a using-declaration", "src/stream/sl.cpp",
     "using namespace std::chrono; sleep_for(1ms);", ["fiber"]),
    ("sleep_until", "src/fault/su.cpp",
     "std::this_thread::sleep_until(deadline);", ["fiber"]),
    ("thread_local outside src/ is out of scope", "tests/tl.cpp",
     "thread_local int calls = 0;", []),
    ("thread_local in a comment or string is ignored", "src/core/tc.cpp",
     "// no thread_local here\nconst char* s = \"sleep_for(\";", []),
    ("swapcontext in the executor", "src/pgas/executor.cpp",
     "swapcontext(&wk.sched, &fb.uc);", ["fiber"]),
    ("getcontext and makecontext in the runtime", "src/pgas/runtime.cpp",
     "getcontext(&uc);\nmakecontext(&uc, fn, 0);", ["fiber"]),
    ("setcontext in a kernel", "src/core/sc.cpp",
     "::setcontext (&saved);", ["fiber"]),
    ("ucontext call outside src/ is out of scope", "tests/uc.cpp",
     "swapcontext(&a, &b);", []),
    ("ucontext names in comments, strings and longer names are ignored",
     "src/pgas/uc.cpp",
     "// no swapcontext() here\nconst char* s = \"setcontext(\";\n"
     "int my_getcontext(int);", []),
    ("atomic counter in a machine model", "src/machine/network_model.hpp",
     "std::atomic<std::uint64_t> msgs_{0};", ["atomic"]),
    ("fetch_add accrual in a machine model", "src/machine/network_model.cpp",
     "nic_[node].msgs.fetch_add(nmsgs, std::memory_order_relaxed);",
     ["atomic"]),
    ("atomic_ref over a plain counter", "src/machine/m.cpp",
     "std::atomic_ref<std::uint64_t>(busy_ns_[n]).fetch_add(ns);",
     ["atomic"]),
    ("spaced std :: atomic", "src/machine/m.hpp",
     "std :: atomic<bool> dirty;", ["atomic"]),
    ("atomics outside the machine models are out of scope",
     "src/pgas/executor.hpp", "std::atomic<int> remaining_{0};", []),
    ("atomic in a comment, a string or a longer name is ignored",
     "src/machine/n.cpp",
     "// no std::atomic here\nconst char* s = \"fetch_add\";\n"
     "int my_fetch_adder = 0;", []),
]


def self_test():
    failures = 0
    for name, path, source, expect in SELF_TESTS:
        got = sorted({check for _, _, check, _ in scan_file(path, source)})
        if got != sorted(set(expect)):
            print("SELF-TEST FAIL: %s — expected %s, got %s" %
                  (name, expect or "clean", got or "clean"))
            failures += 1
    # Allowlist semantics: a matching rule suppresses exactly its check.
    rules = [("src/core/x.cpp", "affinity"), ("tests/*", None)]
    if not allowed(rules, "src/core/x.cpp", "affinity"):
        print("SELF-TEST FAIL: scoped allowlist rule did not match")
        failures += 1
    if allowed(rules, "src/core/x.cpp", "uniformity"):
        print("SELF-TEST FAIL: scoped allowlist rule leaked across checks")
        failures += 1
    if not allowed(rules, "tests/t.cpp", "uniformity"):
        print("SELF-TEST FAIL: bare allowlist glob did not match")
        failures += 1
    if allowed([("src/core/*", "fiber")], "src/core/x.cpp", "affinity"):
        print("SELF-TEST FAIL: fiber allowlist rule leaked across checks")
        failures += 1
    if not allowed([("src/machine/*", "atomic")], "src/machine/x.hpp",
                   "atomic"):
        print("SELF-TEST FAIL: atomic allowlist rule did not match")
        failures += 1
    if failures:
        return 1
    print("lint_spmd: self-test passed (%d cases)" % len(SELF_TESTS))
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    return run_tree(REPO)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
