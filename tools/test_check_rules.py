#!/usr/bin/env python3
"""Self-test for check_rules.py: each rule must fire on a seeded violation
and stay quiet on the equivalent clean snippet. Stdlib unittest; registered
with ctest as `rule_lint_selftest`."""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_rules  # noqa: E402


class RuleTree:
    """A throwaway repo skeleton seeded with one file per call."""

    def __init__(self, root: Path):
        self.root = root

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def findings(self) -> list[dict]:
        return check_rules.check_tree(self.root)

    def rules(self) -> set[str]:
        return {f["rule"] for f in self.findings()}


class CheckRulesTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="hds_check_rules_")
        self.tree = RuleTree(Path(self._tmp.name))

    def tearDown(self):
        self._tmp.cleanup()

    def test_empty_tree_is_clean(self):
        self.assertEqual(self.tree.findings(), [])

    def test_raw_write_flagged_in_src(self):
        self.tree.write(
            "src/core/leak.cpp",
            '#include <fstream>\nvoid f() { std::ofstream out("x"); }\n',
        )
        finds = self.tree.findings()
        self.assertEqual([f["rule"] for f in finds], ["raw-write"])
        self.assertEqual(finds[0]["line"], 2)

    def test_fopen_flagged_but_durable_exempt(self):
        self.tree.write(
            "src/core/leak.cpp", 'void f() { (void)fopen("x", "w"); }\n'
        )
        self.tree.write(
            "src/storage/durable.cpp",
            'void g() { (void)fopen("x", "w"); std::ofstream o("y"); }\n',
        )
        finds = self.tree.findings()
        self.assertEqual(len(finds), 1)
        self.assertEqual(finds[0]["path"], "src/core/leak.cpp")

    def test_raw_write_in_comment_or_string_ignored(self):
        self.tree.write(
            "src/core/ok.cpp",
            '// std::ofstream is banned here\n'
            'const char* kMsg = "use fopen( elsewhere";\n',
        )
        self.assertEqual(self.tree.findings(), [])

    def test_raw_mutex_flagged_outside_wrapper(self):
        self.tree.write(
            "src/parallel/leak.h",
            "#include <mutex>\nstruct S { std::mutex mu; };\n",
        )
        self.tree.write(
            "src/common/thread_annotations.h",
            "struct M { std::mutex mu_; std::condition_variable_any cv_; };\n",
        )
        finds = self.tree.findings()
        self.assertEqual([f["rule"] for f in finds], ["raw-mutex"])
        self.assertEqual(finds[0]["path"], "src/parallel/leak.h")

    def test_lock_guard_and_condvar_flagged(self):
        self.tree.write(
            "src/core/leak.cpp",
            "void f() { std::lock_guard lock(mu); }\n"
            "std::condition_variable cv;\n",
        )
        self.assertEqual(
            [f["rule"] for f in self.tree.findings()],
            ["raw-mutex", "raw-mutex"],
        )

    def test_detach_flagged_everywhere(self):
        for sub in ("src", "tests", "bench", "examples"):
            self.tree.write(
                f"{sub}/leak_{sub}.cpp",
                "#include <thread>\nvoid f() { std::thread t; t.detach(); }\n",
            )
        finds = [f for f in self.tree.findings() if f["rule"] == "no-detach"]
        self.assertEqual(len(finds), 4)

    def test_naked_new_flagged_smart_new_allowed(self):
        self.tree.write(
            "src/core/leak.cpp", "int* f() { return new int(7); }\n"
        )
        self.tree.write(
            "src/core/ok.cpp",
            "#include <memory>\n"
            "auto a() { return std::make_unique<int>(1); }\n"
            "auto b() {\n"
            "  return std::unique_ptr<int>(\n"
            "      new int(2));\n"  # private-ctor idiom, spans two lines
            "}\n",
        )
        finds = [f for f in self.tree.findings() if f["rule"] == "naked-new"]
        self.assertEqual(len(finds), 1)
        self.assertEqual(finds[0]["path"], "src/core/leak.cpp")

    def test_metric_name_built_at_run_time_flagged(self):
        self.tree.write(
            "src/service/leak.cpp",
            'void f(R& r, const std::string& t, int i) {\n'
            '  r.counter("tenant_" + t + "_backups").inc();\n'
            '  r.gauge(std::to_string(i)).set(1);\n'
            "}\n",
        )
        self.tree.write(
            "examples/leak.cpp",
            'void g(R& r, const std::string& p) { r.histogram(p + "_ms"); }\n',
        )
        finds = [f for f in self.tree.findings() if f["rule"] == "metric-name"]
        self.assertEqual(
            sorted((f["path"], f["line"]) for f in finds),
            [("examples/leak.cpp", 1), ("src/service/leak.cpp", 2),
             ("src/service/leak.cpp", 3)],
        )

    def test_metric_name_literal_or_variable_allowed(self):
        self.tree.write(
            "src/core/ok.cpp",
            'void f(R& r, const char* name, std::uint64_t n) {\n'
            '  r.counter("t1_hits").inc(n + 1);\n'
            "  r.counter(name).inc();\n"
            '  r.histogram("lat_ms", {1.0 + 2.0});\n'
            '  r.gauge("depth").set(std::to_string(n).size());\n'
            "}\n",
        )
        # Tests may build names freely (e.g. to probe the sanitizer).
        self.tree.write(
            "tests/test_x.cpp", 'void t(R& r, int i) { r.counter("c" + i); }\n'
        )
        self.assertEqual(self.tree.findings(), [])

    def test_state_file_name_flagged_outside_journal(self):
        self.tree.write(
            "src/core/leak.cpp",
            'auto a = dir / "state.hds";  // a comment shortens no line\n'
            'auto b = dir / "state.prev.hds";\n'
            'auto c = "state." + std::to_string(e) + ".hds";\n'
            'auto d = std::string("router.") + tail;\n',
        )
        self.tree.write(
            "examples/leak.cpp", 'bool f() { return exists("state.hds"); }\n'
        )
        finds = [
            f for f in self.tree.findings() if f["rule"] == "state-file-name"
        ]
        self.assertEqual(
            sorted((f["path"], f["line"]) for f in finds),
            [("examples/leak.cpp", 1), ("src/core/leak.cpp", 1),
             ("src/core/leak.cpp", 2), ("src/core/leak.cpp", 3),
             ("src/core/leak.cpp", 4)],
        )

    def test_state_file_name_allowed_in_journal_comments_and_tests(self):
        for rel in ("src/storage/journal.h", "src/storage/journal.cpp"):
            self.tree.write(
                rel, 'constexpr const char* kOld[] = {"state.hds", "router."};\n'
            )
        self.tree.write(
            "src/core/ok.cpp",
            "// the committed state.hds moved to state.<epoch>.hds\n"
            "/* router.<epoch>.hds */\n"
            'const char* kMsg = "refusing: its state file is at the root";\n'
            "const char kDot = '.';\n",
        )
        self.tree.write(
            "tests/test_x.cpp", 'auto p = dir / "state.prev.hds";\n'
        )
        self.assertEqual(self.tree.findings(), [])

    def test_crc_call_flagged_outside_codec_and_container(self):
        self.tree.write(
            "src/core/trailer.cpp",
            "void f(V& b) {\n  put(b, crc32(b.data(), b.size()));\n"
            "  (void)hds::crc32 (b);\n}\n",
        )
        finds = self.tree.findings()
        self.assertEqual([f["rule"] for f in finds], ["crc-trailer"] * 2)
        self.assertEqual([f["line"] for f in finds], [2, 3])

    def test_crc_call_allowed_in_common_container_comments_and_tests(self):
        self.tree.write(
            "src/common/byte_io.h", "void seal() { u32(crc32(bytes_)); }\n"
        )
        self.tree.write(
            "src/storage/container.cpp",
            "std::uint32_t c = crc32(payload);\n",
        )
        self.tree.write(
            "src/storage/manifest.cpp",
            '// the trailer is crc32(body)\nconst char* k = "crc32(";\n'
            "std::uint32_t mycrc32(int);\n",
        )
        self.tree.write("tests/test_x.cpp", "auto c = crc32(bytes);\n")
        self.tree.write("bench/b.cpp", "auto c = crc32(bytes);\n")
        self.assertEqual(self.tree.findings(), [])

    def test_isa_kernel_flagged_outside_dispatched_kernels(self):
        self.tree.write(
            "src/storage/fast.cpp",
            "#include <immintrin.h>\n"
            "# include <cpuid.h>\n"
            '__attribute__((target("avx2"))) void f();\n'
            '__attribute__ ( ( target ("pclmul"))) void g();\n',
        )
        self.tree.write("bench/b.cpp", "#include <cpuid.h>\n")
        finds = [f for f in self.tree.findings() if f["rule"] == "isa-kernel"]
        self.assertEqual(
            sorted((f["path"], f["line"]) for f in finds),
            [("bench/b.cpp", 1), ("src/storage/fast.cpp", 1),
             ("src/storage/fast.cpp", 2), ("src/storage/fast.cpp", 3),
             ("src/storage/fast.cpp", 4)],
        )

    def test_isa_kernel_allowed_in_kernels_and_comments(self):
        for rel in ("src/common/sha1.cpp", "src/common/crc32.cpp"):
            self.tree.write(
                rel,
                "#include <cpuid.h>\n#include <immintrin.h>\n"
                '__attribute__((target("pclmul,sse4.1"))) void f();\n',
            )
        self.tree.write(
            "src/common/crc32_kernels.h",
            "// the fold needs <immintrin.h> and __attribute__((target(...)))\n"
            "#include <cstdint>\n"
            "__attribute__((noinline)) void g();\n",
        )
        self.assertEqual(self.tree.findings(), [])

    def test_bench_baseline_date(self):
        self.tree.write(
            "bench/baselines/BENCH_ok.json",
            json.dumps({"context": {"date": "2026-08-09T00:00:00+00:00"}}),
        )
        self.tree.write(
            "bench/baselines/BENCH_undated.json",
            json.dumps({"context": {}, "benchmarks": []}),
        )
        self.tree.write("bench/baselines/BENCH_broken.json", "{not json")
        finds = [f for f in self.tree.findings() if f["rule"] == "bench-date"]
        self.assertEqual(
            sorted(f["path"] for f in finds),
            [
                "bench/baselines/BENCH_broken.json",
                "bench/baselines/BENCH_undated.json",
            ],
        )

    def test_real_tree_is_clean(self):
        repo = Path(__file__).resolve().parent.parent
        findings = check_rules.check_tree(repo)
        self.assertEqual(
            findings, [], "repository violates its own rules:\n"
            + "\n".join(f"{f['path']}:{f['line']}: {f['rule']}" for f in findings)
        )


if __name__ == "__main__":
    unittest.main()
