"""Code rules: the POOL-* fork-safety family, the unified
suppression grammar, stale-waiver hygiene (LINT-UNUSED-SUPPRESS and its
autofix), and the mutation-fixture corpus.

A ``*_bad.py`` fixture under ``tests/fixtures/lint/`` seeds exactly the
bug its rule exists for (and must fire *only* that rule), and its
``*_clean.py`` twin encodes the idiomatic repair (and must produce zero
findings under the full code rule set).
"""

from pathlib import Path

import pytest

from repro.analysis import (
    REGISTRY,
    AnalyzerConfig,
    analyze_files,
    analyze_text,
    fix_files,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def rule_id_of(fixture: Path) -> str:
    """pool_fork_unsafe_bad.py -> POOL-FORK-UNSAFE."""
    stem = fixture.stem
    for suffix in ("_bad", "_clean"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    return stem.upper().replace("_", "-")


def lint(path: Path):
    return analyze_text(path.name, path.read_text())


BAD_FIXTURES = sorted(FIXTURES.glob("*_bad.py"))
CLEAN_FIXTURES = sorted(FIXTURES.glob("*_clean.py"))


class TestFixtureCorpus:
    def test_corpus_is_paired(self):
        assert len(BAD_FIXTURES) == len(CLEAN_FIXTURES) == 3
        assert [rule_id_of(p) for p in BAD_FIXTURES] == [
            rule_id_of(p) for p in CLEAN_FIXTURES
        ]

    def test_every_new_rule_has_a_fixture_pair(self):
        covered = {rule_id_of(p) for p in BAD_FIXTURES}
        code_rules = {
            r.rule_id
            for r in REGISTRY
            if r.rule_id.startswith(("POOL-", "LINT-"))
        }
        assert covered == code_rules

    @pytest.mark.parametrize("fixture", BAD_FIXTURES, ids=lambda p: p.stem)
    def test_bad_fixture_fires_exactly_its_rule(self, fixture):
        findings = lint(fixture)
        assert {f.rule for f in findings} == {rule_id_of(fixture)}

    @pytest.mark.parametrize("fixture", CLEAN_FIXTURES, ids=lambda p: p.stem)
    def test_clean_fixture_is_silent(self, fixture):
        assert lint(fixture) == []


class TestSuppressionGrammar:
    BUG = "import os\nx = os.fork(){comment}\n"
    #: One line on which two rules fire.
    BOTH = "import os\nx = [os.fork() for _ in {{1, 2}}]{comment}\n"

    def test_named_allow_suppresses(self):
        text = self.BUG.format(comment="  # lint: allow[POOL-FORK-UNSAFE]")
        assert analyze_text("m.py", text) == []

    def test_star_allow_suppresses_everything(self):
        text = self.BOTH.format(comment="  # lint: allow[*]")
        assert analyze_text("m.py", text) == []

    def test_multiple_ids_in_one_comment(self):
        # Both rules genuinely fire on the line, so both tokens are
        # used and neither draws LINT-UNUSED-SUPPRESS.
        text = self.BOTH.format(
            comment="  # lint: allow[POOL-FORK-UNSAFE, DET-SET-ORDER]"
        )
        assert analyze_text("m.py", text) == []

    def test_wrong_id_does_not_suppress(self):
        # The finding survives, and the mismatched token is itself
        # reported stale.
        text = self.BUG.format(comment="  # lint: allow[DET-SET-ORDER]")
        rules = [f.rule for f in analyze_text("m.py", text)]
        assert "POOL-FORK-UNSAFE" in rules
        assert "LINT-UNUSED-SUPPRESS" in rules

    def test_legacy_det_allow_is_inert(self):
        # The retired ``# det: allow`` grammar suppresses nothing.
        text = self.BUG.format(comment="  # det: allow")
        rules = [f.rule for f in analyze_text("m.py", text)]
        assert rules == ["POOL-FORK-UNSAFE"]

    def test_docstring_mention_neither_fires_nor_suppresses(self):
        text = (
            '"""Docs may say # lint: allow[*] freely."""\n'
            "import os\n"
            "x = os.fork()\n"
        )
        rules = [f.rule for f in analyze_text("m.py", text)]
        assert rules == ["POOL-FORK-UNSAFE"]


class TestPoolRules:
    def test_reading_module_global_not_flagged(self):
        text = (
            "_REGISTRY = {}\n"
            "def resolve(name):\n"
            "    return _REGISTRY[name]\n"
        )
        assert analyze_text("m.py", text) == []

    def test_mutator_method_on_module_global_flagged(self):
        text = (
            "_SEEN = set()\n"
            "def mark(key):\n"
            "    _SEEN.add(key)\n"
        )
        assert [f.rule for f in analyze_text("m.py", text)] == [
            "POOL-GLOBAL-MUTABLE"
        ]

    def test_os_fork_flagged(self):
        text = "import os\ndef f():\n    return os.fork()\n"
        assert [f.rule for f in analyze_text("m.py", text)] == [
            "POOL-FORK-UNSAFE"
        ]

    def test_module_level_executor_flagged_but_not_in_function(self):
        flagged = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "POOL = ProcessPoolExecutor()\n"
        )
        assert [f.rule for f in analyze_text("m.py", flagged)] == [
            "POOL-FORK-UNSAFE"
        ]
        fine = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool\n"
        )
        assert analyze_text("m.py", fine) == []


class TestEngineIntegration:
    def test_config_select_restricts_families(self):
        bad = "import os\nx = os.fork()\n"
        config = AnalyzerConfig(selected=frozenset({"DET-SET-ORDER"}))
        assert analyze_files({"m.py": bad}, config) == []

    def test_only_unused_suppress_is_fixable_among_python_rules(self):
        # The autofix layer repairs manifest rules plus exactly one
        # python-side rule: LINT-UNUSED-SUPPRESS (stale-token removal).
        # Every other code-rule finding must pass through untouched.
        files = {p.name: p.read_text() for p in BAD_FIXTURES}
        files["det.py"] = "for x in {'a', 'b'}:\n    print(x)\n"
        result = fix_files(files)
        changed = {
            name for name in files if result.files[name] != files[name]
        }
        assert changed == {"lint_unused_suppress_bad.py"}
        assert result.fixed
        assert {f.rule for f in result.fixed} == {"LINT-UNUSED-SUPPRESS"}
        # The fixed file matches its clean twin byte for byte.
        twin = (FIXTURES / "lint_unused_suppress_clean.py").read_text()
        fixed_body = result.files["lint_unused_suppress_bad.py"]
        assert fixed_body.splitlines()[2:] == twin.splitlines()[2:]

    def test_src_repro_lints_clean_under_full_code_rule_set(self):
        # The dogfooding pin: the whole tree stays clean under every
        # code rule, with no stale waivers.
        files = {
            str(p.relative_to(SRC_REPRO.parent)): p.read_text()
            for p in sorted(SRC_REPRO.rglob("*.py"))
        }
        assert len(files) > 50
        findings = analyze_files(files)
        assert findings == [], [str(f) for f in findings]


class TestWaiverAudit:
    """Every ``# lint: allow[...]`` waiver in the src tree must be
    load-bearing: stripping the token re-fires exactly the waived rule
    on that line. A waiver that proves nothing is deleted, not kept —
    this pins the tree-wide audit so stale waivers cannot accrete."""

    @staticmethod
    def _src_waivers():
        """[(path, line_no, [tokens])] via the engine's own tokenizer
        (docstrings that merely *mention* the grammar don't count)."""
        from repro.analysis.engine import prepare

        files = {
            str(p.relative_to(SRC_REPRO.parent)): p.read_text()
            for p in sorted(SRC_REPRO.rglob("*.py"))
        }
        prepared, _ctx = prepare(files, AnalyzerConfig())
        waivers = []
        for artifact in prepared:
            if artifact.python is None:
                continue
            for line_no, tokens in sorted(
                artifact.python.allow_tokens().items()
            ):
                waivers.append((artifact.name, line_no, tokens))
        return waivers

    def test_waiver_census_is_pinned(self):
        """Adding a waiver is a reviewed decision: update this census
        (and the justification comment at the site) deliberately."""
        census = {}
        for name, _line, tokens in self._src_waivers():
            for token in tokens:
                census[(name, token)] = census.get((name, token), 0) + 1
        assert census == {
            ("repro/experiments/base.py", "POOL-GLOBAL-MUTABLE"): 1,
            ("repro/runner/engine.py", "POOL-GLOBAL-MUTABLE"): 2,
            ("repro/runner/jobs.py", "POOL-GLOBAL-MUTABLE"): 1,
            ("repro/sim/decisions.py", "POOL-GLOBAL-MUTABLE"): 1,
        }

    def test_every_waiver_is_load_bearing(self):
        import re

        strip = re.compile(r"\s*# lint: allow\[[^\]]*\].*$")
        by_file = {}
        for name, line_no, tokens in self._src_waivers():
            by_file.setdefault(name, []).append((line_no, tokens))
        assert by_file  # the census test pins the exact population
        for name, sites in by_file.items():
            path = SRC_REPRO.parent / name
            lines = path.read_text().splitlines(keepends=True)
            for line_no, tokens in sites:
                stripped = strip.sub("", lines[line_no - 1].rstrip("\n"))
                mutated = "".join(
                    stripped + "\n" if i == line_no - 1 else original
                    for i, original in enumerate(lines)
                )
                fired = {
                    f.rule
                    for f in analyze_text(name, mutated)
                    if f.span.line == line_no
                }
                for token in tokens:
                    assert token in fired, (name, line_no, token)


class TestUnusedSuppressFix:
    def test_single_stale_token_comment_line_removed(self):
        files = {"m.py": "X_S = 1.0  # lint: allow[DET-SET-ORDER]\n"}
        result = fix_files(files)
        assert result.files["m.py"] == "X_S = 1.0\n"
        assert [f.rule for f in result.fixed] == ["LINT-UNUSED-SUPPRESS"]

    def test_stale_token_removed_from_live_list(self):
        files = {
            "m.py": (
                "import os\n"
                "x = os.fork()"
                "  # lint: allow[POOL-FORK-UNSAFE, DET-SET-ORDER]\n"
            )
        }
        result = fix_files(files)
        assert result.files["m.py"] == (
            "import os\n"
            "x = os.fork()  # lint: allow[POOL-FORK-UNSAFE]\n"
        )

    def test_prose_after_grammar_survives(self):
        files = {
            "m.py": (
                "X_S = 1.0  # lint: allow[DET-SET-ORDER]"
                " keeps the ladder honest\n"
            )
        }
        result = fix_files(files)
        assert result.files["m.py"] == "X_S = 1.0  # keeps the ladder honest\n"

    def test_fix_is_idempotent(self):
        files = {"m.py": "X_S = 1.0  # lint: allow[DET-SET-ORDER]\n"}
        once = fix_files(files)
        twice = fix_files(dict(once.files))
        assert twice.files == once.files
        assert twice.fixed == []
