"""Only the stepper steps: no engine grows its own copy of the loop.

The machine engines share one extension-stepping kernel
(:mod:`repro.core.stepper`).  A second copy of the loop would show up as
a second place that enters a vCPU, hands an exit to the libOS, or emits
a terminal ``search.*`` event, so this test forbids all three anywhere
else under ``repro/core``.
"""

import ast
from pathlib import Path

import repro.core

CORE = Path(repro.core.__file__).parent
KERNEL = "stepper.py"
STEPPING_CALLS = {"enter", "handle_exit"}


def stepping_sites(path: Path) -> list[str]:
    """Every vCPU entry, exit hand-off and search event named in *path*."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in STEPPING_CALLS
        ):
            sites.append(f"{path.name}:{node.lineno} calls .{node.func.attr}()")
        elif isinstance(node, ast.Attribute) and node.attr.startswith("SEARCH_"):
            sites.append(f"{path.name}:{node.lineno} uses {node.attr}")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("SEARCH_"):
                    sites.append(
                        f"{path.name}:{node.lineno} imports {alias.name}"
                    )
    return sites


def test_kernel_is_the_only_stepping_site():
    assert stepping_sites(CORE / KERNEL), "the kernel itself must step"
    strays = [
        site
        for path in sorted(CORE.glob("*.py"))
        if path.name != KERNEL
        for site in stepping_sites(path)
    ]
    assert strays == []


def test_detector_sees_a_hand_copied_loop(tmp_path):
    copy = tmp_path / "copy.py"
    copy.write_text(
        "from repro.obs import events as _events\n"
        "def loop(vcpu, libos, state):\n"
        "    exit_event = vcpu.enter(max_steps=10)\n"
        "    libos.handle_exit(exit_event, vcpu, state)\n"
        "    return _events.SEARCH_FAIL\n"
    )
    assert len(stepping_sites(copy)) == 3
