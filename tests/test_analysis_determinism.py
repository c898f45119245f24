"""The set-order lint (DET-SET-ORDER) and the repo-wide invariant."""

import os

from repro.analysis import AnalyzerConfig, Severity, analyze_files, analyze_text


def rules(findings):
    return {f.rule for f in findings}


def lint_py(source):
    return analyze_text("mod.py", source)


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
        """The simulator's own source passes its set-order lint."""
        root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        files = {}
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, "r", encoding="utf-8") as fh:
                        files[os.path.relpath(path, root)] = fh.read()
        assert len(files) > 50  # sanity: we really walked the tree
        config = AnalyzerConfig(selected=frozenset({"DET-SET-ORDER"}))
        findings = analyze_files(files, config)
        assert findings == [], "\n".join(str(f) for f in findings)
