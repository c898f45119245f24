"""The AST determinism lint (DET-*) and the repo-wide invariant."""

import os

from repro.analysis import AnalyzerConfig, Severity, analyze_files, analyze_text


def rules(findings):
    return {f.rule for f in findings}


def lint_py(source):
    return analyze_text("mod.py", source)


class TestUnseededRandom:
    def test_module_level_random_call(self):
        findings = lint_py("import random\nx = random.random()\n")
        f = [x for x in findings if x.rule == "DET-UNSEEDED-RANDOM"]
        assert f and f[0].severity is Severity.ERROR
        assert f[0].line == 2

    def test_aliased_module(self):
        findings = lint_py("import random as rnd\nx = rnd.choice([1, 2])\n")
        assert "DET-UNSEEDED-RANDOM" in rules(findings)

    def test_from_import(self):
        findings = lint_py("from random import shuffle\nshuffle([1])\n")
        assert "DET-UNSEEDED-RANDOM" in rules(findings)

    def test_seeded_rng_is_fine(self):
        findings = lint_py("import random\nrng = random.Random(42)\nrng.random()\n")
        assert "DET-UNSEEDED-RANDOM" not in rules(findings)

    def test_unseeded_random_constructor(self):
        findings = lint_py("import random\nrng = random.Random()\n")
        assert "DET-UNSEEDED-RANDOM" in rules(findings)

    def test_suppression_comment(self):
        findings = lint_py(
            "import random\n"
            "x = random.random()  # lint: allow[DET-UNSEEDED-RANDOM]\n"
        )
        assert "DET-UNSEEDED-RANDOM" not in rules(findings)

    def test_legacy_suppression_comment_is_inert(self):
        findings = lint_py(
            "import random\nx = random.random()  # det: allow\n"
        )
        assert [f.rule for f in findings] == ["DET-UNSEEDED-RANDOM"]


class TestWallclock:
    def test_time_time(self):
        findings = lint_py("import time\nt = time.time()\n")
        assert "DET-WALLCLOCK" in rules(findings)

    def test_perf_counter_allowed(self):
        findings = lint_py("import time\nt = time.perf_counter()\n")
        assert "DET-WALLCLOCK" not in rules(findings)

    def test_datetime_now(self):
        findings = lint_py(
            "from datetime import datetime\nt = datetime.now()\n"
        )
        assert "DET-WALLCLOCK" in rules(findings)

    def test_datetime_module_form(self):
        findings = lint_py("import datetime\nt = datetime.datetime.utcnow()\n")
        assert "DET-WALLCLOCK" in rules(findings)

    def test_from_import_time(self):
        findings = lint_py("from time import time\nt = time()\n")
        assert "DET-WALLCLOCK" in rules(findings)


class TestSetOrder:
    def test_for_over_set_literal(self):
        findings = lint_py("for x in {1, 2, 3}:\n    print(x)\n")
        f = [x for x in findings if x.rule == "DET-SET-ORDER"]
        assert f and f[0].severity is Severity.WARNING

    def test_list_of_set(self):
        findings = lint_py("xs = list(set([3, 1, 2]))\n")
        assert "DET-SET-ORDER" in rules(findings)

    def test_sorted_set_is_fine(self):
        findings = lint_py("xs = sorted(set([3, 1, 2]))\n")
        assert "DET-SET-ORDER" not in rules(findings)

    def test_max_with_key_over_set(self):
        findings = lint_py("xs = [1, 1, 2]\nm = max(set(xs), key=xs.count)\n")
        assert "DET-SET-ORDER" in rules(findings)

    def test_max_without_key_is_fine(self):
        # max of a set without a key is the plain maximum: order-free.
        findings = lint_py("m = max({3, 1, 2})\n")
        assert "DET-SET-ORDER" not in rules(findings)

    def test_membership_test_is_fine(self):
        findings = lint_py("ok = 3 in {1, 2, 3}\n")
        assert "DET-SET-ORDER" not in rules(findings)

    def test_join_over_set(self):
        findings = lint_py("s = ','.join({'a', 'b'})\n")
        assert "DET-SET-ORDER" in rules(findings)


class TestRepoIsDeterministic:
    def test_src_repro_lints_clean(self):
        """The simulator's own source passes its determinism lint."""
        root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        files = {}
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, "r", encoding="utf-8") as fh:
                        files[os.path.relpath(path, root)] = fh.read()
        assert len(files) > 50  # sanity: we really walked the tree
        config = AnalyzerConfig(
            selected=frozenset(
                {"DET-UNSEEDED-RANDOM", "DET-WALLCLOCK", "DET-SET-ORDER"}
            )
        )
        findings = analyze_files(files, config)
        assert findings == [], "\n".join(str(f) for f in findings)
