"""Tests for repro-lint: every rule with a violating/clean fixture pair,
suppressions, ``--select`` filtering, exit codes, the FP001
static-vs-dynamic footprint byte-match, and the broken-counter fixture
proving the same bug is caught statically (FP001), dynamically (the
probe), and at exploration time (``reduction="dpor-parity"``).
"""

import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.engine.dpor import DporParityError
from repro.lint import (
    RULES,
    footprint_parity,
    crosscheck_catalog,
    lint_paths,
    parse_suppressions,
    rules_table_markdown,
    static_footprint_map,
)
from repro.sim import check_all_histories
from repro.util.errors import UsageError
from repro.util.hashing import canonical_json

FIXTURES = Path(__file__).parent / "fixtures"
BROKEN_COUNTER = FIXTURES / "broken_counter.py"

sys.path.insert(0, str(Path(__file__).parent))
from fixtures.broken_counter import (  # noqa: E402
    PLAN,
    BrokenCounter,
    CounterImplementation,
    FixedCounter,
    OverlapGetsZero,
)


def lint_source(tmp_path, source, select=None, name="sample.py"):
    """Lint one source string as an external file."""
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return lint_paths([str(path)], select=select)


def rules_of(report):
    return [d.rule for d in report.diagnostics]


# ---------------------------------------------------------------------------
# rule fixtures: one violating and one clean sample per rule id
# ---------------------------------------------------------------------------

BASE_OBJECT_PREAMBLE = """
from repro.base_objects.base import BaseObject

class Sample(BaseObject):
    def methods(self):
        return ("get",)
    def initial_state(self):
        return ("sample", 0)
"""

VIOLATING = {
    "FP001": BASE_OBJECT_PREAMBLE + """
    def step(self, state, method, args):
        if method == "get":
            value = state[1]
            return value, ("sample", value + 1)
        return self._reject(method)
    def footprint(self, method, args):
        return ("read", None)
""",
    "DT001": "import time\n\ndef stamp():\n    return time.time()\n",
    "DT002": "import random\n\ndef pick(items):\n    return random.choice(items)\n",
    "DT003": "import json\n\ndef dump(value):\n    return json.dumps(value)\n",
    "DT004": (
        "def walk(values):\n"
        "    for item in {1, 2, 3}:\n"
        "        values.append(item)\n"
    ),
    "OB001": (
        "from repro.obs.recorder import active as _obs_active\n\n"
        "def hot():\n"
        "    rec = _obs_active()\n"
        "    rec.count('x')\n"
    ),
    "ER001": (
        "def lookup(table, key):\n"
        "    if key not in table:\n"
        "        raise KeyError(key)\n"
        "    return table[key]\n"
    ),
    "IM001": (
        "import json\nfrom typing import List\n\n"
        "def dump(value):\n"
        "    return json.dumps(value, sort_keys=True)\n"
    ),
}

CLEAN = {
    "FP001": BASE_OBJECT_PREAMBLE + """
    def step(self, state, method, args):
        if method == "get":
            value = state[1]
            return value, ("sample", value + 1)
        return self._reject(method)
    def footprint(self, method, args):
        return ("write", None)
""",
    "DT001": (
        "import time\n\ndef elapsed(start):\n"
        "    return time.perf_counter() - start\n"
    ),
    "DT002": (
        "import random\n\ndef pick(items, seed):\n"
        "    return random.Random(seed).choice(items)\n"
    ),
    "DT003": (
        "import json\n\ndef dump(value):\n"
        "    return json.dumps(value, sort_keys=True)\n"
    ),
    "DT004": (
        "def walk(values):\n"
        "    for item in sorted({1, 2, 3}):\n"
        "        values.append(item)\n"
    ),
    "OB001": (
        "from repro.obs.recorder import active as _obs_active\n\n"
        "def hot():\n"
        "    rec = _obs_active()\n"
        "    if rec is not None:\n"
        "        rec.count('x')\n"
    ),
    "ER001": (
        "from repro.util.errors import unknown_choice\n\n"
        "def lookup(table, key):\n"
        "    if key not in table:\n"
        "        raise unknown_choice('thing', key, table)\n"
        "    return table[key]\n"
    ),
    "IM001": (
        "from typing import List\n\n"
        "def first(items: List[int]) -> int:\n"
        "    return items[0]\n"
    ),
}


class TestRulePairs:
    @pytest.mark.parametrize("rule", sorted(VIOLATING))
    def test_violating_fixture_flagged(self, tmp_path, rule):
        report = lint_source(tmp_path, VIOLATING[rule])
        assert rule in rules_of(report), report.render_text()

    @pytest.mark.parametrize("rule", sorted(CLEAN))
    def test_clean_fixture_passes(self, tmp_path, rule):
        report = lint_source(tmp_path, CLEAN[rule])
        assert rule not in rules_of(report), report.render_text()

    def test_registry_covers_every_fixture(self):
        assert set(VIOLATING) == set(RULES)
        assert set(CLEAN) == set(RULES)

    def test_rules_table_lists_every_rule(self):
        table = rules_table_markdown()
        for rule in RULES:
            assert rule in table


class TestFootprintRule:
    """FP001 over ``step``: a branch that returns a new state writes,
    keyed by the cells it stores into a copy of the state's container."""

    CELLS = """
from repro.base_objects.base import BaseObject

class Cells(BaseObject):
    def methods(self):
        return ("read", "write")
    def initial_state(self):
        return ("cells", (0, 0))
    def footprint(self, method, args):
        return ("read" if method == "read" else "write", args[0])
"""

    def fp001(self, tmp_path, step_source):
        report = lint_source(tmp_path, self.CELLS + step_source, select=["FP001"])
        return [d.message for d in report.diagnostics]

    def test_keyed_copy_and_store_is_covered(self, tmp_path):
        assert self.fp001(tmp_path, """
    def step(self, state, method, args):
        if method == "read":
            cells = state[1]
            return cells[args[0]], state
        if method == "write":
            cells = list(state[1])
            cells[args[0]] = args[1]
            return None, ("cells", tuple(cells))
        return self._reject(method)
""") == []

    def test_whole_rebuild_under_a_keyed_write_is_flagged(self, tmp_path):
        (message,) = self.fp001(tmp_path, """
    def step(self, state, method, args):
        if method == "read":
            return state[1][args[0]], state
        if method == "write":
            return None, ("cells", (args[1], args[1]))
        return self._reject(method)
""")
        assert "'write' rebuilds the whole state outside the declared cell arg:0" in message

    def test_a_rebuild_beyond_the_stored_cells_is_flagged(self, tmp_path):
        (message,) = self.fp001(tmp_path, """
    def step(self, state, method, args):
        if method == "read":
            return state[1][args[0]], state
        if method == "write":
            cells = list(state[1])
            cells[args[0]] = args[1]
            return None, ("cells", tuple(cells), len(cells))
        return self._reject(method)
""")
        assert "'write' rebuilds the whole state outside the declared cell arg:0" in message

    def test_whole_read_under_a_keyed_read_is_flagged(self, tmp_path):
        (message,) = self.fp001(tmp_path, """
    def step(self, state, method, args):
        if method == "read":
            return sum(state[1]), state
        if method == "write":
            cells = list(state[1])
            cells[args[0]] = args[1]
            return None, ("cells", tuple(cells))
        return self._reject(method)
""")
        assert "'read' reads the whole state outside the declared cell arg:0" in message

    def test_mutating_the_given_state_is_flagged(self, tmp_path):
        messages = self.fp001(tmp_path, """
    def step(self, state, method, args):
        if method == "read":
            return state[1][args[0]], state
        if method == "write":
            state[1][args[0]] = args[1]
            return None, state
        return self._reject(method)
""")
        assert any("'write' mutates the state it was given" in m for m in messages)


class TestUnusedImports:
    def test_unused_name_flagged_where_it_is_imported(self, tmp_path):
        source = (
            "from typing import (\n"
            "    Dict,\n"
            "    List,\n"
            ")\n\n"
            "def table() -> Dict[str, int]:\n"
            "    return {}\n"
        )
        report = lint_source(tmp_path, source, select=["IM001"])
        (diagnostic,) = report.diagnostics
        assert (diagnostic.line, diagnostic.col) == (3, 4)
        assert "'List' is imported but never used" in diagnostic.message

    def test_used_names_pass(self, tmp_path):
        # Read in code, in a quoted annotation, through an attribute of
        # a dotted import, or listed in __all__.
        source = (
            "import os.path\n"
            "from typing import TYPE_CHECKING, Optional\n"
            "from repro.util.errors import UsageError, SimulationError\n\n"
            "__all__ = ['SimulationError']\n\n"
            "if TYPE_CHECKING:\n"
            "    from repro.sim.runtime import Runtime\n\n"
            "def where(runtime: 'Optional[Runtime]') -> str:\n"
            "    if runtime is None:\n"
            "        raise UsageError('no runtime')\n"
            "    return os.path.sep\n"
        )
        report = lint_source(tmp_path, source, select=["IM001"])
        assert report.diagnostics == [], report.render_text()

    def test_noqa_marks_a_re_export(self, tmp_path):
        source = (
            "from repro.util.errors import (\n"
            "    SimulationError,  # noqa: F401\n"
            "    UsageError,\n"
            ")\n"
            "from repro.util.freeze import freeze  # noqa: F401 (re-exported)\n"
        )
        report = lint_source(tmp_path, source, select=["IM001"])
        assert ["UsageError" in d.message for d in report.diagnostics] == [True]
        assert sorted(s.justification for s in report.suppressed) == [
            "(re-exported)",
            "re-export (noqa: F401)",
        ]

    def test_package_init_re_exports_pass(self, tmp_path):
        source = "from repro.util.errors import SimulationError, UsageError\n"
        report = lint_source(tmp_path, source, select=["IM001"], name="__init__.py")
        assert report.diagnostics == []
        report = lint_source(tmp_path, source, select=["IM001"], name="module.py")
        assert len(report.diagnostics) == 2


class TestObsGuards:
    def test_else_branch_guard_accepted(self, tmp_path):
        source = (
            "from repro.obs.recorder import active as _obs_active\n\n"
            "def hot():\n"
            "    rec = _obs_active()\n"
            "    if rec is None:\n"
            "        label = 'off'\n"
            "    else:\n"
            "        label = rec.name\n"
            "    return label\n"
        )
        assert rules_of(lint_source(tmp_path, source)) == []

    def test_early_exit_guard_accepted(self, tmp_path):
        source = (
            "from repro.obs.recorder import active as _obs_active\n\n"
            "def hot():\n"
            "    rec = _obs_active()\n"
            "    if rec is None:\n"
            "        return\n"
            "    rec.count('x')\n"
        )
        assert rules_of(lint_source(tmp_path, source)) == []

    def test_conditional_binding_still_checked(self, tmp_path):
        source = (
            "from repro.obs.recorder import active as _obs_active\n\n"
            "def hot(reduce):\n"
            "    rec = _obs_active() if reduce else None\n"
            "    rec.count('x')\n"
        )
        assert rules_of(lint_source(tmp_path, source)) == ["OB001"]

    def test_chained_call_flagged(self, tmp_path):
        source = (
            "from repro.obs.recorder import active\n\n"
            "def hot():\n"
            "    active().count('x')\n"
        )
        assert "OB001" in rules_of(lint_source(tmp_path, source))


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        source = (
            "import json\n\ndef dump(value):\n"
            "    return json.dumps(value)"
            "  # repro-lint: disable=DT003 -- probe only\n"
        )
        report = lint_source(tmp_path, source)
        assert rules_of(report) == []
        assert [s.diagnostic.rule for s in report.suppressed] == ["DT003"]
        assert report.suppressed[0].justification == "probe only"

    def test_standalone_comment_suppresses_next_line(self, tmp_path):
        source = (
            "import json\n\ndef dump(value):\n"
            "    # repro-lint: disable=DT003 -- fixture\n"
            "    return json.dumps(value)\n"
        )
        report = lint_source(tmp_path, source)
        assert rules_of(report) == []
        assert len(report.suppressed) == 1

    def test_disable_file(self, tmp_path):
        source = (
            "# repro-lint: disable-file=ER001 -- whole-module fixture\n"
            + VIOLATING["ER001"]
        )
        report = lint_source(tmp_path, source)
        assert rules_of(report) == []
        assert report.suppressed[0].justification == "whole-module fixture"

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        source = (
            "import json\n\ndef dump(value):\n"
            "    return json.dumps(value)"
            "  # repro-lint: disable=ER001 -- mismatched\n"
        )
        assert rules_of(lint_source(tmp_path, source)) == ["DT003"]

    def test_parse_suppressions_grammar(self):
        index = parse_suppressions(
            "x = 1  # repro-lint: disable=FP001,OB001 -- two rules\n"
        )
        assert index.lookup("FP001", 1) == "two rules"
        assert index.lookup("OB001", 1) == "two rules"
        assert index.lookup("DT001", 1) is None


class TestSelect:
    def test_select_filters_rules(self, tmp_path):
        source = VIOLATING["DT001"] + "\n" + VIOLATING["ER001"]
        full = lint_source(tmp_path, source)
        assert set(rules_of(full)) == {"DT001", "ER001"}
        only = lint_source(tmp_path, source, select=["DT001"])
        assert rules_of(only) == ["DT001"]

    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="unknown lint rule"):
            lint_source(tmp_path, "x = 1\n", select=["NOPE"])


class TestCli:
    def test_exit_zero_on_clean_tree(self):
        assert main(["lint"]) == 0

    def test_exit_one_on_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(VIOLATING["DT001"], encoding="utf-8")
        assert main(["lint", str(path)]) == 1
        assert "DT001" in capsys.readouterr().out

    @pytest.mark.parametrize("rule", sorted(VIOLATING))
    def test_each_violating_fixture_exits_one_with_rule_id(
        self, tmp_path, capsys, rule
    ):
        path = tmp_path / f"{rule.lower()}.py"
        path.write_text(VIOLATING[rule], encoding="utf-8")
        assert main(["lint", str(path)]) == 1
        assert rule in capsys.readouterr().out

    def test_exit_two_on_unknown_rule(self, capsys):
        assert main(["lint", "--select", "NOPE"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["lint", "/nonexistent/lint/target"]) == 2

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(VIOLATING["ER001"], encoding="utf-8")
        assert main(["lint", str(path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint-report"
        assert document["version"] == 1
        assert document["clean"] is False
        assert document["violations"][0]["rule"] == "ER001"

    def test_markdown_format(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text(VIOLATING["DT004"], encoding="utf-8")
        assert main(["lint", str(path), "--format", "md"]) == 1
        assert "repro-lint report" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out


class TestShippedTree:
    def test_repo_lint_clean(self):
        report = lint_paths()
        assert report.clean, report.render_text()

    def test_suppressions_carry_justifications(self):
        report = lint_paths()
        for suppressed in report.suppressed:
            assert suppressed.justification.strip(), (
                f"{suppressed.diagnostic.render()} suppressed without a "
                "recorded justification"
            )


class TestMypy:
    def test_typed_core_passes_mypy(self):
        """CI installs mypy and runs it with the pyproject config; the
        development container does not ship it, so skip there."""
        api = pytest.importorskip("mypy.api")
        repo_root = Path(__file__).parent.parent
        stdout, stderr, status = api.run(
            ["--config-file", str(repo_root / "pyproject.toml")]
        )
        assert status == 0, stdout + stderr


class TestFootprintParity:
    def test_static_map_byte_matches_dynamic(self):
        parity = footprint_parity()
        assert parity.problems == []
        assert parity.mismatches == []
        assert canonical_json(parity.static_map) == canonical_json(
            parity.dynamic_map
        )

    def test_every_registered_class_covered(self):
        import repro.base_objects as package

        parity = footprint_parity()
        expected = {
            name
            for name in package.__all__
            if name not in ("BaseObject", "ObjectPool")
        }
        assert set(parity.static_map) == expected
        for rows in parity.dynamic_map.values():
            assert rows  # every class exercised at least one primitive

    def test_catalog_walk_matches_static_map(self):
        parity = footprint_parity()
        assert crosscheck_catalog(parity.static_map, sample=4, seed=7) == []


class TestBrokenCounterFixture:
    def test_fp001_catches_fixture_statically(self):
        report = lint_paths([str(BROKEN_COUNTER)])
        fp_hits = [d for d in report.diagnostics if d.rule == "FP001"]
        assert fp_hits, report.render_text()
        assert any("returns a new state" in d.message for d in fp_hits)
        # The honest control class is not flagged: every hit names the
        # broken declaration, none the fixed one.
        assert all("BrokenCounter" in d.message for d in fp_hits)

    def test_cli_flags_fixture_with_exit_one(self, capsys):
        assert main(["lint", str(BROKEN_COUNTER)]) == 1
        assert "FP001" in capsys.readouterr().out

    def test_dynamic_probe_catches_mutation_under_read(self):
        from repro.lint.dynamic import exercise_class

        probe = exercise_class(BrokenCounter)
        assert any("under-approximates" in p for p in probe.problems)
        control = exercise_class(FixedCounter)
        assert control.problems == []

    def test_static_map_of_fixture_reflects_the_lie(self):
        source = BROKEN_COUNTER.read_text(encoding="utf-8")
        rows = static_footprint_map({"broken_counter.py": source})
        assert rows["BrokenCounter"]["get"] == {
            "mode": "read", "cell": "whole",
        }
        assert rows["FixedCounter"]["get"] == {
            "mode": "write", "cell": "whole",
        }

    def test_dpor_parity_catches_fixture_dynamically(self):
        """The mis-declared footprint makes DPOR prune the overlap
        interleaving where the slow process saw the bumped value: for
        exactly one pid polarity the reduced search wrongly proves what
        the unreduced search refutes, and dpor-parity raises."""
        outcomes = []
        for pid in (0, 1):
            try:
                check_all_histories(
                    lambda: CounterImplementation(BrokenCounter),
                    PLAN,
                    OverlapGetsZero(pid),
                    reduction="dpor-parity",
                )
                outcomes.append(False)
            except DporParityError:
                outcomes.append(True)
        assert sum(outcomes) == 1, outcomes

    def test_honest_control_passes_dpor_parity(self):
        for pid in (0, 1):
            report = check_all_histories(
                lambda: CounterImplementation(FixedCounter),
                PLAN,
                OverlapGetsZero(pid),
                reduction="dpor-parity",
            )
            # Both searches agree the property is violated somewhere.
            assert not report.holds
