"""Layering: telemetry's recording modules, the fault injector and the
health report sit below the relational engine, the SQL front end and
storage, and import none of them (a function-level import counts too)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"

MODULES = (
    "repro/telemetry/audit.py",
    "repro/telemetry/events.py",
    "repro/telemetry/slo.py",
    "repro/telemetry/profiler.py",
    "repro/telemetry/registry.py",
    "repro/telemetry/logs.py",
    "repro/telemetry/query_stats.py",
    "repro/telemetry/tracing.py",
    "repro/faults.py",
    "repro/health.py",
)

FORBIDDEN = ("repro.relational", "repro.sql", "repro.storage")


def imported(path: Path) -> set[str]:
    """Every module ``path`` imports, relative imports made absolute."""
    package = ".".join(path.relative_to(SRC).with_suffix("").parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[: len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + [node.module] if node.module else base)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_higher_layer(module):
    below = [
        name for name in sorted(imported(SRC / module))
        if any(name == top or name.startswith(top + ".") for top in FORBIDDEN)
    ]
    assert below == [], f"{module} imports {below}"


def test_relative_imports_resolve():
    names = imported(SRC / "repro/telemetry/diagnostics.py")
    assert "repro.sql.lexer" in names and "repro.telemetry.events" in names
