#!/usr/bin/env python3
"""Repo lint gate: mechanical source invariants clang-tidy can't express.

Checks enforced (see README "Correctness tooling"):

  pragma-once      every header under src/, tests/, bench/, tools/ starts
                   its include guard with `#pragma once`.
  include-hygiene  no parent-relative includes (`#include "../..."`);
                   in-repo headers are included by their src/-relative
                   path, which is what every target's -I provides.
  nondeterminism   `rand(`, `srand(`, `time(` and `std::random_device`
                   are banned in src/ and tools/ outside
                   src/common/random.*. Reproductions must be
                   bit-reproducible: all randomness flows through the
                   seeded SplitMix64/xoshiro helpers in common/random.h.
  mutable-global   namespace-scope mutable globals in src/ must be
                   std::atomic or a lazily-initialized function-local —
                   a bare mutable global is invisible to
                   -Wthread-safety and a standing TSan hazard.
  double-format    printf-family conversions of doubles in src/ use
                   %.17g, the round-trip-exact format every serializer
                   (sweep CSV/JSON, serve responses) standardizes on.
  raw-mutex        `std::mutex` / `std::lock_guard` / `std::unique_lock`
                   / `std::condition_variable` are banned in src/
                   outside common/thread_annotations.h; use the
                   annotated Mutex/MutexLock/CondVar wrappers so clang's
                   -Wthread-safety analysis sees every acquisition.
  blocking-io      direct I/O syscalls (read/write/recv/send/accept...)
                   are banned in the I/O-free zone:
                   src/serve/event_loop.cc is pure readiness dispatch,
                   and one blocking call there stalls every connection
                   on that loop; src/serve/server.cc and
                   src/fleet/router.cc are backends of the shared line
                   transport (serve/line_server.cc) and only answer or
                   route lines. Socket I/O belongs in handlers
                   (connection.cc, listener.cc, upstream.cc); the
                   loop's own nonblocking wake-eventfd reads/writes
                   carry `lint:allow(blocking-io)` escapes with reasons.
  bare-nolint      NOLINT markers must name a check and carry a reason:
                   `// NOLINT(check-name): why`.
  doc-ref          every `*.md` path a source line names must exist,
                   relative to the repository root or to the file's
                   own directory; a comment that cites a missing
                   document explains nothing.
  oracle-only      calls to the oracles that production paths are
                   checked against are banned in src/ and tools/
                   outside the oracles' own files; tests/ and bench/
                   may call them, production code may not:
                   `SolveOverlapMva(` and `ComputeOverlapFactors(`
                   (src/queueing/mva_overlap.{h,cc},
                   src/model/overlap.{h,cc}), the per-task A4 oracle of
                   the grouped kernel; `IntegrateAdaptiveSimpson(`
                   (src/distributions/numeric.{h,cc}), the two-pass
                   oracle of MaxMoments' one-pass max-moments
                   quadrature.

Scanned: *.h, *.cc and *.cpp under src/, tests/, bench/, tools/ and
examples/.

A finding on one line can be suppressed — with a reason — by appending
`// lint:allow(<check>): <reason>` to that line, or by placing
`// lint:allow-next-line(<check>): <reason>` on the line above (for
lines the 80-column limit leaves no room on).

Exit status: 0 clean, 1 findings (one per line on stderr), 2 usage.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SOURCE_DIRS = ("src", "tests", "bench", "tools", "examples")
HEADER_EXTS = (".h",)
CXX_EXTS = (".h", ".cc", ".cpp")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)(:\s*\S.*)?$")
ALLOW_NEXT_RE = re.compile(r"//\s*lint:allow-next-line\(([a-z-]+)\)(:\s*\S.*)?$")
NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?(\(([^)]*)\))?(:\s*\S.*)?")

NONDET_RE = re.compile(r"(?<![\w:.])(rand|srand|time)\s*\(|std::random_device")
RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable)\b")
DOUBLE_FMT_RE = re.compile(r"%[-+ #0-9.*]*[efgEFG]")
PARENT_INCLUDE_RE = re.compile(r'#\s*include\s+"\.\./')
DOC_REF_RE = re.compile(r"[\w./-]*\w\.md\b")
# Each oracle: the only files in src/ and tools/ that may call it, and
# what production code uses instead.
ORACLES = {
    "SolveOverlapMva": (
        ("src/queueing/mva_overlap.h", "src/queueing/mva_overlap.cc"),
        "the per-task A4 oracle; production code solves through "
        "SolveGroupedOverlapMva"),
    "ComputeOverlapFactors": (
        ("src/model/overlap.h", "src/model/overlap.cc"),
        "the per-task A4 oracle; production code uses "
        "ComputeGroupedOverlapFactors"),
    "IntegrateAdaptiveSimpson": (
        ("src/distributions/numeric.h", "src/distributions/numeric.cc"),
        "the two-pass quadrature oracle; production code integrates both "
        "max-moments in MaxMoments' one pass"),
}
ORACLE_CALL_RE = re.compile(r"\b(" + "|".join(ORACLES) + r")\s*\(")
BLOCKING_IO_RE = re.compile(
    r"(^|[^\w.])(::)?\s*(read|write|recv|recvfrom|recvmsg|send|sendto|"
    r"sendmsg|accept4?|pread|pwrite)\s*\(")

# Namespace-scope variable definition heuristic: a column-0 (or
# namespace-indented column-0; this tree keeps namespace contents at
# column 0) declaration that ends in `= ...;`, `{...};` or `;` and is
# not a function/type/alias/extern. Tuned against the tree; mutable
# globals are rare here by design.
GLOBAL_DEF_RE = re.compile(
    r"^(static\s+)?"
    r"(?!const\b|constexpr\b|class\b|struct\b|enum\b|union\b|namespace\b"
    r"|using\b|typedef\b|template\b|extern\b|friend\b|inline\b|return\b"
    r"|if\b|for\b|while\b|switch\b|case\b|delete\b|new\b|throw\b|TEST\b)"
    r"[A-Za-z_][\w:<>,\s*&]*\s+[A-Za-z_]\w*\s*(=[^=]|\{|;)")
GLOBAL_SAFE_RE = re.compile(r"\bconst\b|\bconstexpr\b|std::atomic|^\s*extern\b")


class Finding:
    def __init__(self, path, lineno, check, message):
        self.path = path
        self.lineno = lineno
        self.check = check
        self.message = message

    def __str__(self):
        rel = os.path.relpath(self.path, REPO)
        return f"{rel}:{self.lineno}: [{self.check}] {self.message}"


def iter_source_files(root):
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CXX_EXTS):
                    yield os.path.join(dirpath, name)


def allowed(line, check, prev_line=""):
    m = ALLOW_RE.search(line)
    if m and m.group(1) == check and m.group(2):
        return True
    m = ALLOW_NEXT_RE.search(prev_line)
    return bool(m and m.group(1) == check and m.group(2))


def strip_line_comment(line):
    """Drops // comments (good enough: no multi-line /* */ in this tree
    spans code lines, and string literals with // don't occur in the
    checked patterns)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def check_file(path, root, findings):
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    in_src = rel.startswith("src/")
    in_src_or_tools = in_src or rel.startswith("tools/")
    is_random_impl = rel.startswith("src/common/random.")
    is_annotations = rel == "src/common/thread_annotations.h"
    # Files that must stay pure dispatch/routing logic: no I/O syscalls.
    # The event loop only dispatches readiness; predictd's server and
    # the fleet router only answer or route lines — sockets belong to
    # TcpListener, Connection and Upstream.
    is_io_free_zone = rel in ("src/serve/event_loop.cc",
                              "src/serve/server.cc",
                              "src/fleet/router.cc")

    if path.endswith(HEADER_EXTS):
        first_code = next(
            (l for l in lines
             if l.strip() and not l.strip().startswith(("//", "/*", "*", "///"))),
            "")
        if first_code.strip() != "#pragma once":
            findings.append(Finding(path, 1, "pragma-once",
                                    "header must open with #pragma once"))

    brace_depth = 0
    for lineno, raw in enumerate(lines, start=1):
        code = strip_line_comment(raw)
        prev = lines[lineno - 2] if lineno > 1 else ""

        if PARENT_INCLUDE_RE.search(code) and not allowed(raw, "include-hygiene", prev):
            findings.append(Finding(
                path, lineno, "include-hygiene",
                'parent-relative include; use the src/-relative path'))

        if in_src_or_tools and not is_random_impl:
            if NONDET_RE.search(code) and not allowed(raw, "nondeterminism", prev):
                findings.append(Finding(
                    path, lineno, "nondeterminism",
                    "banned nondeterminism source; use common/random.h "
                    "(seeded) instead"))

        if in_src_or_tools:
            m = ORACLE_CALL_RE.search(code)
            if (m and rel not in ORACLES[m.group(1)][0]
                    and not allowed(raw, "oracle-only", prev)):
                findings.append(Finding(
                    path, lineno, "oracle-only",
                    f"{m.group(1)} is {ORACLES[m.group(1)][1]} (tests and "
                    "benches may call the oracle)"))

        if is_io_free_zone:
            if BLOCKING_IO_RE.search(code) and not allowed(raw, "blocking-io", prev):
                findings.append(Finding(
                    path, lineno, "blocking-io",
                    "I/O syscall in an I/O-free zone; event_loop.cc is "
                    "pure readiness dispatch, server.cc and router.cc only "
                    "answer or route lines — do socket I/O in a Handler "
                    "(connection.cc, listener.cc, upstream.cc)"))

        if in_src and not is_annotations:
            if RAW_MUTEX_RE.search(code) and not allowed(raw, "raw-mutex", prev):
                findings.append(Finding(
                    path, lineno, "raw-mutex",
                    "raw std synchronization primitive; use the annotated "
                    "Mutex/MutexLock/CondVar from common/thread_annotations.h"))

        if in_src:
            for m in DOUBLE_FMT_RE.finditer(code):
                spec = m.group(0)
                if spec in ("%.17g",) or allowed(raw, "double-format", prev):
                    continue
                findings.append(Finding(
                    path, lineno, "double-format",
                    f"double formatted as {spec}; serialized doubles must "
                    "round-trip via %.17g"))

        if in_src and path.endswith(".cc") and brace_depth == 0:
            stripped = raw.rstrip()
            if (GLOBAL_DEF_RE.match(stripped)
                    and not GLOBAL_SAFE_RE.search(stripped)
                    and "(" not in stripped.split("=")[0]
                    and not allowed(raw, "mutable-global", prev)):
                findings.append(Finding(
                    path, lineno, "mutable-global",
                    "namespace-scope mutable global; make it std::atomic, "
                    "const, or a function-local static behind a Mutex"))

        for ref in DOC_REF_RE.findall(raw):
            if not any(os.path.isfile(os.path.join(base, ref))
                       for base in (root, os.path.dirname(path))):
                if not allowed(raw, "doc-ref", prev):
                    findings.append(Finding(
                        path, lineno, "doc-ref",
                        f"{ref} does not exist; cite a document or symbol "
                        "that does, or say it here"))

        nolint = NOLINT_RE.search(raw)
        if nolint and not (nolint.group(3) and nolint.group(4)):
            if not allowed(raw, "bare-nolint", prev):
                findings.append(Finding(
                    path, lineno, "bare-nolint",
                    "NOLINT must name its check and a reason: "
                    "// NOLINT(check-name): why"))

        # Track depth AFTER the global check so a line that opens a
        # namespace/function doesn't count as inside it.
        brace_depth += code.count("{") - code.count("}")
        brace_depth = max(brace_depth, 0)


def main(argv):
    root = REPO
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 2:
        root = os.path.abspath(argv[1])

    findings = []
    count = 0
    for path in iter_source_files(root):
        count += 1
        check_file(path, root, findings)

    for finding in findings:
        print(finding, file=sys.stderr)
    summary = f"check_source: {count} files, {len(findings)} finding(s)"
    print(summary, file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
