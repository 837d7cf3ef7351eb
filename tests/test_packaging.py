"""Every console script declared in ``setup.py`` resolves to a callable."""

import ast
import importlib
from pathlib import Path

import pytest

SETUP_PY = Path(__file__).resolve().parent.parent / "setup.py"


def console_scripts() -> list[str]:
    """The ``console_scripts`` entries of ``setup.py``, read without running it."""
    for node in ast.walk(ast.parse(SETUP_PY.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "console_scripts":
                    return ast.literal_eval(value)
    raise AssertionError("setup.py declares no console_scripts")


@pytest.mark.parametrize("entry", console_scripts(), ids=lambda entry: entry.split("=")[0])
def test_console_script_target_is_callable(entry):
    _, target = (part.strip() for part in entry.split("="))
    module_name, function_name = target.split(":")
    function = getattr(importlib.import_module(module_name), function_name)
    assert callable(function), f"{entry}: {function!r} is not callable"
