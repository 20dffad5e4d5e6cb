"""Layering: telemetry's recording modules, the fault injector and the
health report sit below the relational engine, the SQL front end and
storage, and import none of them (a function-level import counts too);
only the session modules touch a Database's private state, and no module
reads another object's private ``_m_*`` counters."""

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
    "repro/telemetry/workload.py",
    "repro/telemetry/diagnostics.py",
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
    assert "repro.telemetry.SHOW_TARGETS" in names and "repro.telemetry.events" in names


#: The facade and its parts: the only modules that touch a Database's
#: private state.
SESSION = ("session.py", "session_statements.py", "session_models.py",
           "session_relations.py")

#: Expressions that hold a Database by the codebase's naming convention:
#: a ``db`` / ``database`` name, or a ``.db`` / ``._db`` attribute.
DATABASE_NAMES = frozenset({"db", "_db", "database", "_database"})


def _holds_database(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in DATABASE_NAMES
    return isinstance(node, ast.Attribute) and node.attr in DATABASE_NAMES


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_database_uses(source: str) -> list[str]:
    """Every read or write of a Database's underscore attribute in
    ``source``: ``db._x``, ``self._db._x`` and ``getattr(db, "_x")``."""
    found = []
    for node in ast.walk(ast.parse(source)):  # breadth first, not in line order
        if (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and _holds_database(node.value)
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "hasattr", "delattr")
            and len(node.args) >= 2
            and _holds_database(node.args[0])
            and isinstance(node.args[1], ast.Constant)
            and _private(str(node.args[1].value))
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_private_database_uses_are_found():
    source = (
        "def f(db, pool):\n"
        "    db._cluster = pool\n"
        "    x = self._db._predict(1)\n"
        "    y = getattr(db, '_cluster', None)\n"
        "    return db.config, db.__class__, pool._db.faults\n"
    )
    assert sorted(use.split(": ")[1] for use in private_database_uses(source)) == [
        "db._cluster", "getattr(db, '_cluster', None)", "self._db._predict",
    ]


def test_no_module_outside_the_session_touches_database_private_state():
    offenders = {
        str(path.relative_to(SRC)): uses
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.parent.name != "repro" or path.name not in SESSION
        for uses in [private_database_uses(path.read_text(encoding="utf-8"))]
        if uses
    }
    assert offenders == {}


def foreign_counter_uses(source: str) -> list[str]:
    """Every read of another object's private counter (``x._m_<name>``
    where ``x`` is not ``self``): a collector's counters are its own, and
    others read them through its public snapshot."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_m_")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


def test_foreign_counter_uses_are_found():
    source = (
        "def f(self, executor):\n"
        "    self._m_runs.inc()\n"
        "    a = executor._m_engine_seconds.value\n"
        "    return self._models.executor._m_stage_runs, executor.counters()\n"
    )
    assert sorted(use.split(": ")[1] for use in foreign_counter_uses(source)) == [
        "executor._m_engine_seconds", "self._models.executor._m_stage_runs",
    ]


def test_no_module_reads_another_objects_counters():
    offenders = {
        str(path.relative_to(SRC)): uses
        for path in sorted((SRC / "repro").rglob("*.py"))
        for uses in [foreign_counter_uses(path.read_text(encoding="utf-8"))]
        if uses
    }
    assert offenders == {}
