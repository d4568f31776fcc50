"""What a cold start imports, and what the package re-exports resolve to.

Every check runs in a fresh interpreter: ``sys.modules`` of this test
process already holds most of the tree.
"""

import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules (and their submodules) that building the scenario registry
#: must not import.
REGISTRY_FORBIDDEN = (
    "repro.analysis",
    "repro.campaign",
    "repro.service",
    "repro.setmodel",
    "repro.lint",
    "repro.mutate",
    "multiprocessing",
    "sqlite3",
)

#: Layers above the registry that ``python -m repro --help`` must not
#: import.
HELP_FORBIDDEN = ("repro.analysis", "repro.campaign", "repro.service")


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter that writes no bytecode, so
    it compiles what it imports as a fresh checkout does; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC_DIR), env.get("PYTHONPATH")) if part
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def loaded(modules, forbidden):
    return sorted(
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in forbidden)
    )


class TestColdStart:
    def test_registry_build_imports_no_upper_layer(self):
        modules = json.loads(
            run_fresh(
                "import json, sys\n"
                "import repro.scenarios as s\n"
                "assert s.iter_scenarios()\n"
                "print(json.dumps(sorted(sys.modules)))\n"
            )
        )
        assert loaded(modules, REGISTRY_FORBIDDEN) == []
        assert "repro.scenarios.catalog" in modules  # the registry is built

    def test_cli_help_imports_no_upper_layer(self):
        result = json.loads(
            run_fresh(
                "import io, json, runpy, sys\n"
                "sys.argv = ['repro', '--help']\n"
                "sys.stdout = io.StringIO()\n"
                "try:\n"
                "    runpy.run_module('repro', run_name='__main__')\n"
                "except SystemExit as exit:\n"
                "    assert exit.code == 0, exit.code\n"
                "text, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
                "print(json.dumps([text, sorted(sys.modules)]))\n"
            )
        )
        text, modules = result
        assert "campaign" in text and "serve" in text  # the full parser
        assert loaded(modules, HELP_FORBIDDEN) == []


def packages():
    """Every ``repro`` package whose ``__init__`` declares ``__all__``."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return [
        name
        for name in names
        if "__all__"
        in (SRC_DIR / name.replace(".", "/") / "__init__.py").read_text()
    ]


_IDENTITY_SCRIPT = """
import importlib, json, pkgutil, sys, types
package_name, package_first = {package!r}, {package_first!r}
spec = importlib.util.find_spec(package_name)
if package_first:
    importlib.import_module(package_name)
submodules = [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(
        spec.submodule_search_locations, package_name + "."
    )
]
package = importlib.import_module(package_name)
problems = []
for name in package.__all__:
    value = getattr(package, name)
    holders = [module for module in submodules if name in vars(module)]
    if not holders:
        if not (
            isinstance(value, types.ModuleType)
            and value.__name__ == package_name + "." + name
        ):
            problems.append(name + ": no submodule defines it")
    problems += [
        f"{{name}}: the package holds {{value!r}}, "
        f"{{module.__name__}} holds {{vars(module)[name]!r}}"
        for module in holders
        if vars(module)[name] is not value
    ]
print(json.dumps(problems))
"""


@pytest.mark.parametrize(
    "package_first", [False, True], ids=["submodules-first", "package-first"]
)
@pytest.mark.parametrize("package", packages())
def test_reexports_are_the_defining_objects(package, package_first):
    """Every name a package exports resolves to the object its defining
    submodule holds, whichever is imported first.  A lazily bound name
    that equals a submodule's name would resolve to the module once the
    submodule is imported."""
    script = _IDENTITY_SCRIPT.format(package=package, package_first=package_first)
    assert json.loads(run_fresh(script)) == []


def test_verify_is_the_function_after_a_verify_submodule_import():
    """``repro.scenarios.verify`` is a submodule and a re-exported
    function; importing the submodule first, as the service app does,
    must leave the package attribute bound to the function."""
    output = run_fresh(
        "from repro.scenarios.verify import BACKENDS\n"
        "from repro.scenarios import verify\n"
        "print(verify.__module__, callable(verify))\n"
    )
    assert output.split() == ["repro.scenarios.verify", "True"]
