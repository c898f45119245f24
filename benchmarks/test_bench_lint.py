"""repro.analysis — full-tree code lint speed.

The code-lint CI gate runs every code rule over all of ``src/repro``
on each push, so analyzer throughput is a trajectory we track: a rule
that re-walks the AST per finding or re-tokenizes per query shows up
here long before the gate feels slow.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_files

SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"

FILES = {
    str(p.relative_to(SRC_REPRO.parent)): p.read_text()
    for p in sorted(SRC_REPRO.rglob("*.py"))
}


def test_bench_full_tree_code_lint(benchmark):
    findings = benchmark(analyze_files, FILES)
    assert findings == []  # the tree is pinned clean


def test_bench_single_module_lint(benchmark):
    name = "repro/runner/engine.py"
    files = {name: FILES[name]}
    findings = benchmark(analyze_files, files)
    assert findings == []


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "--benchmark-only"])
