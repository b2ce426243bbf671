"""Documentation invariants: generated catalog, link targets, docstrings."""

import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments
from repro.experiments.cli import _build_parser
from repro.experiments.reporting import builtin_scenarios, scenarios_markdown

REPO = Path(__file__).resolve().parent.parent

#: ``[label](target)`` markdown links, excluding images.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)#\s]+)(#[^)\s]*)?\)")


class TestScenariosCatalog:
    def test_scenarios_md_matches_registry(self):
        """docs/scenarios.md is generated; regenerate it when this fails:

        PYTHONPATH=src python -m repro.experiments.reporting.docs > docs/scenarios.md
        """
        committed = (REPO / "docs" / "scenarios.md").read_text()
        assert committed == scenarios_markdown(), (
            "docs/scenarios.md drifted from the scenario registry; regenerate with "
            "`PYTHONPATH=src python -m repro.experiments.reporting.docs > docs/scenarios.md`"
        )

    def test_documented_regeneration_command_runs_cleanly(self):
        # The command named above, in a fresh interpreter with runpy's
        # "found in sys.modules" warning turned into an error: the package
        # must not import the docs module before runpy executes it.
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.experiments.reporting.docs"],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == (REPO / "docs" / "scenarios.md").read_text()

    def test_catalog_excludes_adhoc_registrations(self):
        # This test module's sibling suites register test-* scenarios; the
        # generated catalog must stay insensitive to them.
        names = {scn.name for scn in builtin_scenarios()}
        assert names and not any(n.startswith("test-") for n in names)

    def test_every_builtin_scenario_documented(self):
        committed = (REPO / "docs" / "scenarios.md").read_text()
        for scn in builtin_scenarios():
            assert f"## `{scn.name}`" in committed


class TestTraceEventCatalog:
    def test_every_congest_event_name_is_documented(self):
        doc = (REPO / "docs" / "observability.md").read_text()
        names = set()
        for path in (REPO / "src" / "repro" / "congest").glob("*.py"):
            names.update(re.findall(r'\.event\(\s*"([a-z_]+)"', path.read_text()))
        assert "columnar_summary" in names and "fault_topology" in names
        missing = sorted(name for name in names if f"| `{name}`" not in doc)
        assert not missing, f"docs/observability.md lacks named events: {missing}"


class TestDocLinks:
    @pytest.mark.parametrize(
        "doc", sorted(p.name for p in (REPO / "docs").glob("*.md")) + ["README.md"]
    )
    def test_relative_links_resolve(self, doc):
        path = REPO / ("docs" if doc != "README.md" else ".") / doc
        text = path.read_text()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if re.match(r"[a-z]+://", target) or target.startswith("mailto:"):
                continue
            resolved = (path.parent / target).resolve()
            assert resolved.exists(), f"{doc}: broken relative link {target!r}"


#: ``python -m repro.experiments`` (the CLI, not a submodule such as
#: ``repro.experiments.reporting.docs``) and everything after it.
_CLI_CALL = re.compile(r"python -m repro\.experiments(?=\s|$)(.*)")


def _fenced_cli_calls(text: str) -> list[str]:
    """The argument strings of every CLI call inside a fenced block, with
    backslash continuations joined."""
    calls, in_fence, line_so_far = [], False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence, line_so_far = not in_fence, ""
            continue
        if not in_fence:
            continue
        if line.rstrip().endswith("\\"):
            line_so_far += line.rstrip()[:-1] + " "
            continue
        match = _CLI_CALL.search(line_so_far + line)
        line_so_far = ""
        if match:
            calls.append(match.group(1))
    return calls


def _cli_argv(args: str) -> list[str]:
    """Shell-split one call's arguments, stopping at a pipe, redirect or
    comment."""
    lexer = shlex.shlex(args, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = []
    for token in lexer:
        if set(token) <= set(lexer.punctuation_chars):
            break
        argv.append(token)
    return argv


class TestDocCliCalls:
    @pytest.mark.parametrize(
        "doc", ["README.md"] + sorted(f"docs/{p.name}" for p in (REPO / "docs").glob("*.md"))
    )
    def test_every_documented_cli_call_parses(self, doc, capsys):
        calls = _fenced_cli_calls((REPO / doc).read_text())
        assert calls, f"{doc}: no `python -m repro.experiments` call in a fenced block"
        for args in calls:
            try:
                _build_parser().parse_args(_cli_argv(args))
            except SystemExit:
                pytest.fail(
                    f"{doc}: `python -m repro.experiments{args}` does not parse: "
                    f"{capsys.readouterr().err.strip().splitlines()[-1]}"
                )


def _experiment_modules():
    modules = [repro.experiments]
    for info in pkgutil.walk_packages(
        repro.experiments.__path__, prefix="repro.experiments."
    ):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        modules.append(importlib.import_module(info.name))
    # The fault-injection layer is scenario-facing API: hold it to the same
    # docstring standard as the experiment modules.
    modules.append(importlib.import_module("repro.congest.faults"))
    return modules


class TestDocstringLint:
    def test_every_module_has_a_docstring(self):
        for module in _experiment_modules():
            assert module.__doc__ and len(module.__doc__.strip()) >= 20, (
                f"{module.__name__} is missing a module docstring"
            )

    def test_public_api_has_docstrings(self):
        undocumented = []
        for module in _experiment_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or not (
                    inspect.isclass(obj) or inspect.isfunction(obj)
                ):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-exports are documented at their definition
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
                if inspect.isclass(obj):
                    for meth_name, meth in vars(obj).items():
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        if not (meth.__doc__ or "").strip():
                            undocumented.append(
                                f"{module.__name__}.{name}.{meth_name}"
                            )
        assert not undocumented, f"missing docstrings: {sorted(undocumented)}"
