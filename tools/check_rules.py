#!/usr/bin/env python3
"""Project rule linter — repo invariants clang-tidy cannot express.

Rules (see README "Static analysis" and DESIGN.md §14):

  raw-write      No raw file writes (std::ofstream / std::fstream / fopen /
                 freopen) in src/ outside src/storage/durable.cpp. Every
                 durable write must go through AtomicFileWriter so the
                 crash-consistency story (DESIGN.md §9) covers it.
  raw-mutex      No std synchronization primitives (std::mutex,
                 std::condition_variable, std::lock_guard, ...) in src/
                 outside src/common/thread_annotations.h. hds::Mutex /
                 MutexLock / CondVar carry the thread-safety annotations
                 and the lock-rank bookkeeping; a raw primitive would be
                 invisible to both.
  no-detach      No std::thread::detach() anywhere (src/, tests/, bench/,
                 examples/): a detached thread outlives the state it
                 touches and cannot be joined at shutdown.
  naked-new      No naked `new` in src/: every allocation is owned by a
                 smart pointer in the same statement (make_unique /
                 make_shared, or unique_ptr(new T(...)) when the
                 constructor is private).
  metric-name    No metric name built at run time in src/ or examples/: a
                 counter( / counter_view( / gauge( / histogram( call whose
                 name argument contains `+` or std::to_string. Per-shard or
                 per-tenant splits are labels the exporter adds
                 (DESIGN.md §12), not name prefixes.
  state-file-name
                 No string literal naming a committed file — "state.hds",
                 "state.prev.hds", or any literal starting with "state." or
                 "router." — in src/ or examples/ outside the journal module
                 (src/storage/journal.{h,cpp}). Naming, staging and picking
                 the committed file is the journal's decision alone
                 (DESIGN.md §9).
  crc-trailer    No crc32( call in src/ outside src/common/ and
                 src/storage/container.cpp (a container's footer and chunk
                 CRCs). A metadata file ends in the CRC-32 of its body,
                 written by ByteWriter::seal() and checked by unseal()
                 (src/common/byte_io.h); a hand-rolled trailer or a second
                 whole-file CRC elsewhere would hash the same bytes again.
  isa-kernel     No <immintrin.h>, <cpuid.h> or __attribute__((target(...)))
                 in src/, tests/, bench/ or examples/ outside
                 src/common/sha1.cpp and src/common/crc32.cpp. Each kernel
                 that needs an instruction set checks CPUID once and keeps
                 a portable fallback beside it (DESIGN.md §2); an intrinsic
                 anywhere else would run on a CPU that lacks it.
  bench-date     Every bench/baselines/*.json must parse and carry a
                 non-empty context.date — an undated baseline cannot be
                 judged stale.

Stdlib-only; exits 0 when clean, 1 with one "path:line: [rule] message"
per finding otherwise. --report writes the findings as JSON (CI artifact).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".cxx"}

RAW_WRITE_RE = re.compile(r"std::ofstream|std::fstream|\b(?:std::)?f(?:re)?open\s*\(")
RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")
NEW_RE = re.compile(r"\bnew\b")
SMART_OWNER_RE = re.compile(r"unique_ptr\s*<|shared_ptr\s*<|make_unique|make_shared")
METRIC_CALL_RE = re.compile(r"\b(?:counter|counter_view|gauge|histogram)\s*\(")
BUILT_NAME_RE = re.compile(r"\+|\bto_string\b")

STATE_FILE_RE = re.compile(r"(?:state|router)\.")
CRC_CALL_RE = re.compile(r"\bcrc32\s*\(")
ISA_KERNEL_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|cpuid)\.h>"
    r"|__attribute__\s*\(\s*\(\s*target\s*\("
)

RAW_WRITE_ALLOWED = {Path("src/storage/durable.cpp")}
RAW_MUTEX_ALLOWED = {Path("src/common/thread_annotations.h")}
STATE_FILE_ALLOWED = {Path("src/storage/journal.h"), Path("src/storage/journal.cpp")}
CRC_CALL_ALLOWED_DIR = Path("src/common")
CRC_CALL_ALLOWED = {Path("src/storage/container.cpp")}
ISA_KERNEL_ALLOWED = {Path("src/common/sha1.cpp"), Path("src/common/crc32.cpp")}


def strip_comments_and_strings(
    text: str, literals: list[tuple[int, str]] | None = None
) -> str:
    """Blank out comments and string/char literals, preserving line numbers.

    Good enough for token rules: raw strings and escapes are handled, line
    counts survive because newlines are kept even inside blanked regions.
    With `literals`, every ordinary "..." literal outside a comment is
    appended to it as (offset, contents).
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j  # keep the newline itself
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.extend(c if c == "\n" else " " for c in text[i:j])
            i = j
        elif ch == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^(\\\s]{0,16})\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i)
                j = n if end < 0 else end + len(m.group(1)) + 2
                out.extend(c if c == "\n" else " " for c in text[i:j])
                i = j
            else:
                out.append(ch)
                i += 1
        elif ch in "\"'":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            if ch == '"' and literals is not None:
                literals.append((i, text[i + 1 : j - 1]))
            out.append(ch)
            out.extend(c if c == "\n" else " " for c in text[i + 1 : j])
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def statement_start(text: str, pos: int) -> int:
    """Offset just past the previous statement boundary before `pos`."""
    for j in range(pos - 1, -1, -1):
        if text[j] in ";{}":
            return j + 1
        # Preprocessor line or label: a newline after one also bounds.
    return 0


def first_argument(text: str, open_paren: int) -> str:
    """The text of the first argument of the call whose '(' is at
    `open_paren`: up to the first top-level ',' or the closing ')'."""
    depth = 0
    for j in range(open_paren, len(text)):
        ch = text[j]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : j]
        elif ch == "," and depth == 1:
            return text[open_paren + 1 : j]
    return text[open_paren + 1 :]


def iter_cxx_files(root: Path, subdirs: list[str]):
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path


def check_tree(root: Path) -> list[dict]:
    findings: list[dict] = []

    def add(path: Path, line: int, rule: str, message: str) -> None:
        findings.append(
            {
                "path": str(path.relative_to(root)),
                "line": line,
                "rule": rule,
                "message": message,
            }
        )

    for path in iter_cxx_files(root, ["src"]):
        rel = path.relative_to(root)
        text = strip_comments_and_strings(path.read_text(errors="replace"))

        if rel not in RAW_WRITE_ALLOWED:
            for m in RAW_WRITE_RE.finditer(text):
                add(
                    path,
                    line_of(text, m.start()),
                    "raw-write",
                    f"raw file write '{m.group(0).strip()}' — write through "
                    "durable::AtomicFileWriter (src/storage/durable.h)",
                )
        if rel not in RAW_MUTEX_ALLOWED:
            for m in RAW_MUTEX_RE.finditer(text):
                add(
                    path,
                    line_of(text, m.start()),
                    "raw-mutex",
                    f"raw '{m.group(0)}' — use hds::Mutex / MutexLock / "
                    "CondVar (src/common/thread_annotations.h)",
                )
        crc_allowed = (
            rel in CRC_CALL_ALLOWED or CRC_CALL_ALLOWED_DIR in rel.parents
        )
        if not crc_allowed:
            for m in CRC_CALL_RE.finditer(text):
                add(
                    path,
                    line_of(text, m.start()),
                    "crc-trailer",
                    "crc32() call — seal a file with ByteWriter::seal() and "
                    "check it with unseal() (src/common/byte_io.h)",
                )
        for m in NEW_RE.finditer(text):
            stmt = text[statement_start(text, m.start()) : m.start()]
            if SMART_OWNER_RE.search(stmt):
                continue  # owned by a smart pointer in the same statement
            add(
                path,
                line_of(text, m.start()),
                "naked-new",
                "naked 'new' — wrap in make_unique/make_shared (or a "
                "unique_ptr in the same statement for private constructors)",
            )

    for path in iter_cxx_files(root, ["src", "examples"]):
        source = path.read_text(errors="replace")
        literals: list[tuple[int, str]] = []
        text = strip_comments_and_strings(source, literals)
        if path.relative_to(root) not in STATE_FILE_ALLOWED:
            for pos, contents in literals:  # offsets into `source`
                if STATE_FILE_RE.match(contents):
                    add(
                        path,
                        line_of(source, pos),
                        "state-file-name",
                        f"state file name literal \"{contents}\" — ask the "
                        "commit journal (src/storage/journal.h) instead",
                    )
        for m in METRIC_CALL_RE.finditer(text):
            if BUILT_NAME_RE.search(first_argument(text, m.end() - 1)):
                add(
                    path,
                    line_of(text, m.start()),
                    "metric-name",
                    "metric name built at run time — one name per fact; "
                    "put the shard/tenant split in exposition labels "
                    "(obs::MetricsPart)",
                )

    for path in iter_cxx_files(root, ["src", "tests", "bench", "examples"]):
        text = strip_comments_and_strings(path.read_text(errors="replace"))
        for m in DETACH_RE.finditer(text):
            add(
                path,
                line_of(text, m.start()),
                "no-detach",
                "thread detach() — join every thread you start",
            )
        if path.relative_to(root) not in ISA_KERNEL_ALLOWED:
            for m in ISA_KERNEL_RE.finditer(text):
                add(
                    path,
                    line_of(text, m.start()),
                    "isa-kernel",
                    f"'{m.group(0)}' outside the CPUID-dispatched kernels "
                    "(src/common/sha1.cpp, src/common/crc32.cpp)",
                )

    baselines = root / "bench" / "baselines"
    if baselines.is_dir():
        for path in sorted(baselines.glob("*.json")):
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as err:
                add(path, 1, "bench-date", f"unparseable baseline: {err}")
                continue
            date = (data.get("context") or {}).get("date", "")
            if not str(date).strip():
                add(
                    path,
                    1,
                    "bench-date",
                    "baseline has no context.date — regenerate it with the "
                    "benchmark binary (dates make staleness auditable)",
                )

    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent's parent)",
    )
    parser.add_argument(
        "--report", type=Path, default=None, help="write findings JSON here"
    )
    args = parser.parse_args(argv)

    findings = check_tree(args.root.resolve())
    for f in findings:
        print(f"{f['path']}:{f['line']}: [{f['rule']}] {f['message']}")

    if args.report is not None:
        args.report.write_text(
            json.dumps({"findings": findings, "count": len(findings)}, indent=2)
            + "\n"
        )

    if findings:
        print(f"check_rules: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("check_rules: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
