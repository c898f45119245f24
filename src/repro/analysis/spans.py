"""Source documents and spans.

The analyzer lints raw manifest *text*, so every finding must be able
to point at the exact file, line and column it came from — the way a
compiler or a real linter does. :class:`Document` wraps one text file
and converts (line, column) positions to offsets; :class:`SourceSpan`
is the half-open region a finding or a text edit covers.

Lines and columns are 1-based (editor convention, and what SARIF's
``region`` object expects); offsets are 0-based character offsets into
the document text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class SourceSpan:
    """A half-open [start, end) region of a document, in line/column."""

    file: str
    line: int  # 1-based start line
    col: int = 1  # 1-based start column
    end_line: Optional[int] = None
    end_col: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.file}:{self.line}:{self.col}"


@dataclass
class Document:
    """One text document under analysis: name + content + line index."""

    name: str
    text: str
    _line_starts: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        starts = [0]
        for i, char in enumerate(self.text):
            if char == "\n":
                starts.append(i + 1)
        self._line_starts = starts

    @property
    def n_lines(self) -> int:
        return len(self._line_starts)

    def line_text(self, line: int) -> str:
        """The text of 1-based ``line``, without its newline."""
        if not 1 <= line <= self.n_lines:
            raise IndexError(f"line {line} out of range 1..{self.n_lines}")
        start = self._line_starts[line - 1]
        end = (
            self._line_starts[line] - 1
            if line < self.n_lines
            else len(self.text)
        )
        return self.text[start:end]

    def offset_of(self, line: int, col: int = 1) -> int:
        """Character offset of 1-based (line, col)."""
        return self._line_starts[line - 1] + (col - 1)

    def span_of_line(self, line: int, col: int = 1) -> SourceSpan:
        """A span covering 1-based ``line`` from ``col`` to its end."""
        text = self.line_text(line)
        return SourceSpan(
            file=self.name,
            line=line,
            col=col,
            end_line=line,
            end_col=len(text) + 1,
        )

    def find_in_line(self, line: int, needle: str) -> SourceSpan:
        """Span of the first occurrence of ``needle`` in ``line``.

        Falls back to the whole line when the needle is absent, so rules
        can point at an attribute without hard-failing on odd input.
        """
        text = self.line_text(line)
        idx = text.find(needle)
        if idx < 0:
            return self.span_of_line(line)
        return SourceSpan(
            file=self.name,
            line=line,
            col=idx + 1,
            end_line=line,
            end_col=idx + 1 + len(needle),
        )
