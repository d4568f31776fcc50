"""The repro-lint engine: rule registry, file discovery, reports.

``python -m repro lint`` runs every rule over the package's own source
tree (or explicit paths), applies inline suppressions, and renders the
result as text, markdown, or JSON.  Exit codes follow the CLI
convention: 0 clean, 1 violations, 2 usage error (unknown rule, bad
path).

The registry below is the single source of truth for rule ids; the CLI
``--list-rules`` table and the docs table are generated from it.
"""

from __future__ import annotations

import ast

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.lint.diagnostics import (
    Diagnostic,
    Suppressed,
    parse_suppressions,
)
from repro.lint.footprint import check_footprints
from repro.lint.rules_determinism import check_determinism
from repro.lint.rules_errors import check_errors
from repro.lint.rules_imports import check_imports
from repro.lint.rules_obs import check_obs
from repro.util.errors import unknown_choice

#: One checker may emit several rule ids (the DT family shares a walk).
Checker = Callable[[ast.Module, str, bool], List[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """Metadata for one rule id (the checker is shared per family)."""

    rule_id: str
    title: str
    invariant: str


RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "FP001",
            "footprint soundness",
            "BaseObject.footprint() never under-approximates what "
            "step() touches (DPOR soundness)",
        ),
        Rule(
            "DT001",
            "wall-clock read",
            "deterministic modules never read wall-clock time",
        ),
        Rule(
            "DT002",
            "ambient randomness",
            "deterministic modules use explicitly seeded rngs only",
        ),
        Rule(
            "DT003",
            "unsorted JSON",
            "json.dumps outside util/hashing.py passes sort_keys=True",
        ),
        Rule(
            "DT004",
            "set iteration order",
            "deterministic modules never iterate a set without sorted()",
        ),
        Rule(
            "OB001",
            "obs fast-path discipline",
            "recorder uses are dominated by an `is not None` guard",
        ),
        Rule(
            "ER001",
            "registry error convention",
            "lookups fail through unknown_choice/UsageError, never a "
            "bare KeyError",
        ),
        Rule(
            "IM001",
            "unused import",
            "every module-level import is read by its module, or marked "
            "`# noqa: F401` as a re-export",
        ),
    )
}

CHECKERS: Tuple[Checker, ...] = (
    check_footprints,
    check_determinism,
    check_obs,
    check_errors,
    check_imports,
)


def validate_select(select: Optional[Sequence[str]]) -> Optional[frozenset]:
    """Normalize a ``--select`` list, rejecting unknown rule ids."""
    if not select:
        return None
    chosen = []
    for rule_id in select:
        rule_id = rule_id.strip().upper()
        if not rule_id:
            continue
        if rule_id not in RULES:
            raise unknown_choice("lint rule", rule_id, sorted(RULES))
        chosen.append(rule_id)
    return frozenset(chosen) if chosen else None


@dataclass
class FileResult:
    """Lint outcome for one file."""

    path: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Suppressed] = field(default_factory=list)
    error: Optional[str] = None  # parse failure


@dataclass
class LintReport:
    """Aggregated lint outcome over a file set."""

    files: List[FileResult] = field(default_factory=list)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        out = [d for f in self.files for d in f.diagnostics]
        out.sort(key=Diagnostic.sort_key)
        return out

    @property
    def suppressed(self) -> List[Suppressed]:
        out = [s for f in self.files for s in f.suppressed]
        out.sort(key=lambda s: s.diagnostic.sort_key())
        return out

    @property
    def errors(self) -> List[str]:
        return [f"{f.path}: {f.error}" for f in self.files if f.error]

    @property
    def clean(self) -> bool:
        return not self.diagnostics and not self.errors

    def to_document(self) -> Dict[str, object]:
        return {
            "schema": "repro-lint-report",
            "version": 1,
            "files_checked": len(self.files),
            "violations": [d.to_document() for d in self.diagnostics],
            "suppressed": [s.to_document() for s in self.suppressed],
            "errors": self.errors,
            "clean": self.clean,
        }

    def render_text(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        lines.extend(f"error: {message}" for message in self.errors)
        lines.append(
            f"{len(self.files)} files checked: "
            f"{len(self.diagnostics)} violations, "
            f"{len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = ["# repro-lint report", ""]
        lines.append(
            f"{len(self.files)} files checked — "
            f"**{len(self.diagnostics)} violations**, "
            f"{len(self.suppressed)} suppressed."
        )
        if self.diagnostics or self.errors:
            lines += ["", "| location | rule | message |", "| --- | --- | --- |"]
            for diagnostic in self.diagnostics:
                lines.append(
                    f"| `{diagnostic.path}:{diagnostic.line}` "
                    f"| {diagnostic.rule} | {diagnostic.message} |"
                )
            for message in self.errors:
                lines.append(f"| — | error | {message} |")
        if self.suppressed:
            lines += [
                "",
                "## Suppressed",
                "",
                "| location | rule | justification |",
                "| --- | --- | --- |",
            ]
            for suppressed in self.suppressed:
                diagnostic = suppressed.diagnostic
                why = suppressed.justification or "(none recorded)"
                lines.append(
                    f"| `{diagnostic.path}:{diagnostic.line}` "
                    f"| {diagnostic.rule} | {why} |"
                )
        return "\n".join(lines)


def package_root() -> Path:
    """The installed ``repro`` package directory (the default target)."""
    import repro

    return Path(repro.__file__).parent


def _iter_python_files(target: Path):
    if target.is_file():
        yield target
        return
    for path in sorted(target.rglob("*.py")):
        yield path


def lint_file(
    path: Path,
    relpath: str,
    external: bool,
    select: Optional[frozenset] = None,
) -> FileResult:
    """Run every checker over one file and apply its suppressions."""
    result = FileResult(path=relpath)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError) as exc:
        result.error = str(exc)
        return result
    suppressions = parse_suppressions(source)
    for checker in CHECKERS:
        for diagnostic in checker(tree, relpath, external):
            if select is not None and diagnostic.rule not in select:
                continue
            justification = suppressions.lookup(
                diagnostic.rule, diagnostic.line
            )
            if justification is not None:
                result.suppressed.append(
                    Suppressed(diagnostic, justification)
                )
            else:
                result.diagnostics.append(diagnostic)
    result.diagnostics.sort(key=Diagnostic.sort_key)
    return result


def lint_paths(
    paths: Optional[Sequence[str]] = None,
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint the given paths (default: the whole ``repro`` package).

    Paths inside the package get package-relative rule scoping; paths
    outside it (fixtures, scratch files) are treated as *external* —
    every scoped rule applies, so the rules stay testable.
    """
    chosen = validate_select(select)
    root = package_root()
    targets = [Path(p) for p in paths] if paths else [root]
    report = LintReport()
    for target in targets:
        if not target.exists():
            raise unknown_choice("lint path", str(target), [str(root)])
        for path in _iter_python_files(target):
            resolved = path.resolve()
            try:
                relpath = resolved.relative_to(root.resolve()).as_posix()
                external = False
            except ValueError:
                relpath = path.as_posix()
                external = True
            report.files.append(
                lint_file(resolved, relpath, external, chosen)
            )
    return report


def rules_table_markdown() -> str:
    """The rule table (docs and ``--list-rules`` share this)."""
    lines = [
        "| rule | title | protected invariant |",
        "| --- | --- | --- |",
    ]
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(f"| {rule.rule_id} | {rule.title} | {rule.invariant} |")
    return "\n".join(lines)
