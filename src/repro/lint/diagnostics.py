"""Diagnostics and suppressions for repro-lint.

A :class:`Diagnostic` is one rule violation anchored to ``file:line``.
Suppressions are source comments with a *recorded justification*::

    self._hits += 1  # repro-lint: disable=FP001 -- read-side cache, keyed cell

    # repro-lint: disable=DT003 -- probe only, output discarded
    json.dumps(value)

The comment suppresses the named rule(s) on its own line and, when it
stands alone, on the following line.  A ``# noqa: F401`` comment (the
common marker of a deliberate re-export) suppresses the unused-import
rule IM001 on its line.  ``disable-file=RULE`` anywhere in
a module suppresses the rule for the whole file.  Suppressed
diagnostics are not dropped silently: the report keeps them (with their
justification) and ``--format json`` serializes them, so every accepted
violation stays auditable.
"""

from __future__ import annotations

import re

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Matches ``# repro-lint: disable=RULE[,RULE...] [-- justification]``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)="
    r"(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)

#: Matches ``# noqa: F401 [justification]``.
_NOQA_F401_RE = re.compile(r"#\s*noqa:\s*F401\b\s*(?P<why>.*?)\s*$")


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_document(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppressed:
    """A diagnostic silenced by an inline/file suppression comment."""

    diagnostic: Diagnostic
    justification: str

    def to_document(self) -> Dict[str, object]:
        document = self.diagnostic.to_document()
        document["justification"] = self.justification
        return document


@dataclass
class SuppressionIndex:
    """The suppression comments of one source file.

    ``by_line`` maps a source line number to ``{rule: justification}``
    entries that apply to diagnostics on that line; ``by_file`` holds
    the module-wide ``disable-file`` entries.
    """

    by_line: Dict[int, Dict[str, str]] = field(default_factory=dict)
    by_file: Dict[str, str] = field(default_factory=dict)

    def lookup(self, rule: str, line: int) -> Optional[str]:
        """The justification suppressing ``rule`` at ``line``, if any."""
        entry = self.by_line.get(line)
        if entry is not None and rule in entry:
            return entry[rule]
        if rule in self.by_file:
            return self.by_file[rule]
        return None


def parse_suppressions(source: str) -> SuppressionIndex:
    """Scan source lines for repro-lint suppression comments."""
    index = SuppressionIndex()
    for lineno, text in enumerate(source.splitlines(), start=1):
        noqa = _NOQA_F401_RE.search(text)
        if noqa is not None:
            index.by_line.setdefault(lineno, {})["IM001"] = (
                noqa.group("why") or "re-export (noqa: F401)"
            )
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = [part.strip() for part in match.group("rules").split(",")]
        why = match.group("why") or ""
        if match.group(1) == "disable-file":
            for rule in rules:
                index.by_file[rule] = why
            continue
        targets = [lineno]
        if text.lstrip().startswith("#"):
            # A standalone comment suppresses the following line too.
            targets.append(lineno + 1)
        for target in targets:
            entry = index.by_line.setdefault(target, {})
            for rule in rules:
                entry[rule] = why
    return index
