"""Parsed view of one Python module for the code rules.

Every code rule runs over the same per-file view: :class:`PySource`
bundles the AST, the raw :class:`~repro.analysis.spans.Document` and a
tokenizer-accurate comment map. The comment map drives the **one**
inline suppression grammar all code rules share::

    pid = os.fork()  # lint: allow[POOL-FORK-UNSAFE] justification...

``# lint: allow[ID, ID2]`` suppresses the named rules on that line;
``# lint: allow[*]`` suppresses every code rule. Suppression is applied
centrally by the analysis engine, not inside individual rules, and the
engine tracks which allow-comments actually matched a finding, so stale
ones draw ``LINT-UNUSED-SUPPRESS``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, Iterator, List

from .findings import Finding, Severity
from .registry import Category, Kind, rule
from .spans import Document, SourceSpan

#: Unified inline suppression: a comment beginning ``lint: allow``
#: followed by a bracketed rule-ID list (or ``*`` for all rules).
#: (The grammar is not spelled literally here — a comment that *shows*
#: a bracketed example would itself parse as an allow-comment and draw
#: LINT-UNUSED-SUPPRESS; see the regex below for the exact shape.)
_ALLOW_RE = re.compile(r"lint:\s*allow\[([^\]]*)\]")


def _scan_comments(text: str) -> Dict[int, str]:
    """{line: comment text} using the tokenizer, so strings that merely
    *mention* a suppression comment do not suppress anything."""
    comments: Dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unterminated constructs: fall back to whatever was scanned.
        pass
    return comments


class PySource:
    """A parsed Python document: AST + comments + raw lines."""

    def __init__(self, doc: Document, tree: ast.Module) -> None:
        self.doc = doc
        self.tree = tree
        self.comments = _scan_comments(doc.text)
        self._allow_tokens: Dict[int, List[str]] = {}
        for line, comment in self.comments.items():
            tokens = [
                part.strip()
                for match in _ALLOW_RE.finditer(comment)
                for part in match.group(1).split(",")
                if part.strip()
            ]
            if tokens:
                self._allow_tokens[line] = tokens

    def allow_tokens(self) -> Dict[int, List[str]]:
        """{line: [token, ...]} for every ``# lint: allow[...]`` comment.

        Tokens are rule IDs or ``"*"``, in source order, duplicates
        kept — the engine matches findings against them and reports the
        tokens that suppressed nothing as ``LINT-UNUSED-SUPPRESS``.
        """
        return self._allow_tokens

    def span(self, node: ast.AST) -> SourceSpan:
        return SourceSpan(
            file=self.doc.name,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
        )

    def line_text(self, node: ast.AST) -> str:
        try:
            return self.doc.line_text(getattr(node, "lineno", 1))
        except IndexError:
            return ""


def parse_python(doc: Document) -> PySource:
    """Parse a Python document; raises ``SyntaxError`` on bad source."""
    tree = ast.parse(doc.text, filename=doc.name)
    return PySource(doc, tree)


@rule(
    "LINT-UNUSED-SUPPRESS",
    Severity.WARNING,
    Category.HYGIENE,
    Kind.PYTHON,
    summary="a '# lint: allow[...]' token that suppresses nothing is stale",
    reference="docs/static_analysis.md (suppression grammar); "
    "flake8 unused-noqa precedent",
    fixable=True,
)
def check_unused_suppress(src: PySource, ctx) -> Iterator[Finding]:
    """Emitted centrally by the engine, not here.

    Staleness is only decidable *after* every other rule has run and
    inline suppression has been applied — the engine tracks which
    ``(line, token)`` pairs matched a finding and reports the rest
    (see ``engine._stale_suppress_findings``). This registration
    carries the rule's metadata, severity, and the autofix hook.
    """
    return iter(())
