"""Every definition under ``src/repro`` has a caller outside ``tests/``.

A module-level function or class, or a method, that only its own unit tests
call is code the simulator, the heuristics and the campaigns never run.  This
guard scans the source with the standard-library ``ast`` module and fails on
any such definition.

A definition counts as used when its name is mentioned in ``src/``,
``examples/``, ``benchmarks/``, ``perfbench/`` or ``scripts/``.  For a
module-level function or class, a mention is a ``Name``, an ``Attribute`` or
a string constant.  A method can only be called through an attribute, so
for a method a mention is an ``Attribute`` (``obj.name``) or a string passed
as a call argument (``getattr(obj, "name")``, ``wrap_method(cls, "name",
...)``); a bare ``Name`` or a free-standing string is not.  Import
statements, re-exports and ``__all__`` entries are not uses, and neither is
a definition's mention of its own name inside its own body.

Matching is still by name, not by receiver: a method stays invisible when
another class's method of the same name is called (``run``, ``describe``,
``as_dict``).  To audit those by hand, list every method name defined on
two or more classes and print ``ast.unparse(node.value)`` for each
``ast.Attribute`` of that name in the directories above, then read which
class each receiver is.

Exempt are dunder methods, definitions registered through a ``register*``
decorator, and the module-level names pinned in ``tests/test_api_surface.py``.
Anything else that must stay without a caller goes on ``ALLOWLIST`` with its
reason; an entry that gains a caller, or whose definition is gone, fails the
guard too, so the list stays short.
"""

from __future__ import annotations

import ast
import functools
from collections import Counter
from pathlib import Path

from tests.test_api_surface import API_SURFACE, PACKAGE_SURFACE

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks", "perfbench", "scripts")
PINNED = frozenset(API_SURFACE) | frozenset(PACKAGE_SURFACE)

ALLOWLIST = {
    "repro.analysis.cache:AnalysisContext.clear_caches": "documented in docs/performance.md",
    "repro.analysis.cache:AnalysisContext.cache_stats": "documented in docs/performance.md",
    "repro.api:ComparisonResult.best": "documented in docs/api.md",
    "repro.api:ComparisonResult.ranking": "documented in docs/api.md",
    "repro.experiments.io:load_results": "documented in docs/campaigns.md",
    "repro.experiments.report:PaperComparison.agrees_on_shape": (
        "the fidelity gate of ROADMAP item 1 will call it"
    ),
    "repro.service.app:make_server.<locals>.QuietHandler.log_message": (
        "http.server.BaseHTTPRequestHandler hook"
    ),
    "repro.hazards.degradation:DegradationAvailabilityModel.wear": (
        "the only observable of the wear-reset invariant (tests/hazards/test_degradation.py)"
    ),
    "repro.telemetry.tracer:Tracer.span": "documented in docs/observability.md",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_registered(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name.startswith("register"):
            return True
    return False


def _mentions(node: ast.AST) -> tuple:
    """``(names, members)`` a subtree mentions.

    ``names`` counts every Name, Attribute and string constant; ``members``
    counts only the mentions that can reach a method: an Attribute, or a
    string passed as a call argument (``getattr(obj, "name")``,
    ``wrap_method(cls, "name", ...)``).
    """
    names: Counter = Counter()
    members: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
            members[child.attr] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            names[child.value] += 1
        elif isinstance(child, ast.Call):
            for argument in [*child.args, *(keyword.value for keyword in child.keywords)]:
                if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
                    members[argument.value] += 1
    return names, members


def _is_all_assignment(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _uses(tree: ast.Module) -> tuple:
    """``(names, members)`` of a module, leaving out its ``__all__`` entries."""
    uses = (Counter(), Counter())
    for statement in tree.body:
        if not _is_all_assignment(statement):
            for total, part in zip(uses, _mentions(statement)):
                total.update(part)
    return uses


def _definitions(nodes, module: str, prefix: str = "", in_class: bool = False):
    """``(key, node, is_member)`` for each module-level def/class and each method.

    Keys follow ``__qualname__``: a method of a class made inside a function
    is ``function.<locals>.Class.method``.
    """
    for node in nodes:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if in_class or not prefix:
                yield f"{module}:{prefix}{node.name}", node, in_class
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, module, f"{prefix}{node.name}.", True)
            else:
                yield from _definitions(node.body, module, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.stmt):
            yield from _definitions(ast.iter_child_nodes(node), module, prefix, in_class)


@functools.lru_cache(maxsize=None)
def _scan():
    uses = (Counter(), Counter())  # (names, members), indexed by is_member
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for total, part in zip(uses, _uses(ast.parse(path.read_text(encoding="utf-8")))):
                total.update(part)
    definitions, orphans = {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for key, node, is_member in _definitions(tree.body, _module_name(path)):
            definitions[key] = node
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if _is_registered(node) or (not is_member and name in PINNED):
                continue
            if uses[is_member][name] > _mentions(node)[is_member][name]:
                continue
            orphans[key] = f"{path.relative_to(ROOT)}:{node.lineno} {key}"
    return definitions, orphans


def test_every_src_definition_has_a_caller_outside_tests():
    _, orphans = _scan()
    unexpected = sorted(line for key, line in orphans.items() if key not in ALLOWLIST)
    assert not unexpected, (
        "definitions with no caller outside tests/ (delete them, or allowlist one "
        "with a reason in tests/test_no_orphan_definitions.py):\n" + "\n".join(unexpected)
    )


def test_allowlist_names_only_existing_orphans():
    definitions, orphans = _scan()
    stale = sorted(
        f"{key}: " + ("no such definition" if key not in definitions else "now has a caller")
        for key in ALLOWLIST
        if key not in orphans
    )
    assert not stale, "stale allowlist entries:\n" + "\n".join(stale)


def test_every_allowlist_entry_gives_a_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())
