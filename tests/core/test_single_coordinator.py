"""One coordinator: its decisions each live in one place.

:class:`~repro.core.cluster.ProcessParallelEngine` delegates its loop to
``_Coordinator``, whose handlers settle every task result and requeue
every lost task through one method each.  A second copy of either would
show up as a second ``.retried()`` call or a second ``task.begin``
emission in ``cluster.py``, and a loop rebuilt inside ``run`` as nested
functions over its locals; this test forbids all three.
"""

import ast
from pathlib import Path

import repro.core.cluster as cluster

SOURCE = Path(cluster.__file__)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def method(tree: ast.Module, cls: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{cls}.{name} not found")


def nested_functions(func: ast.FunctionDef) -> list[str]:
    return [
        f"line {node.lineno}"
        for node in ast.walk(func)
        if node is not func and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
    ]


def call_sites(tree: ast.Module, attr: str) -> list[int]:
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == attr
    ]


def attribute_uses(tree: ast.Module, attr: str) -> list[int]:
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_engine_run_defines_no_nested_functions():
    run = method(parse(SOURCE), "ProcessParallelEngine", "run")
    assert nested_functions(run) == []


def test_one_requeue_site():
    assert len(call_sites(parse(SOURCE), "retried")) == 1


def test_one_task_begin_site():
    assert len(attribute_uses(parse(SOURCE), "TASK_BEGIN")) == 1


def test_the_lease_table_is_the_only_record_of_ownership():
    assert "pending" not in cluster._WorkerHandle.__slots__


def test_detectors_see_a_closure_loop(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "class ProcessParallelEngine:\n"
        "    def run(self, task):\n"
        "        def requeue(t):\n"
        "            return t.retried()\n"
        "        _events.TASK_BEGIN\n"
        "        return requeue(task.retried())\n"
    )
    tree = parse(copy)
    assert nested_functions(method(tree, "ProcessParallelEngine", "run"))
    assert len(call_sites(tree, "retried")) == 2
    assert len(attribute_uses(tree, "TASK_BEGIN")) == 1
