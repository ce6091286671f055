"""A fresh import of binprod: what it loads and what it leaves behind."""

import gc
import importlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_binprod() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "binprod" or k.startswith("binprod.")}


def _fresh_cli():
    for name in _loaded_binprod():
        del sys.modules[name]
    return importlib.import_module("binprod.cli")


def test_reimport_leaves_no_old_module_alive():
    saved = _loaded_binprod()
    try:
        cli = _fresh_cli()
        cli.main(["bprod", "fib", "pell"])
        parser_class, function = weakref.ref(cli._Parser), weakref.ref(cli.parse_expression)
        del cli
        _fresh_cli()
        gc.collect()
        assert parser_class() is None, "an old binprod.cli class outlived its module"
        assert function() is None, "an old binprod.cli function outlived its module"
    finally:
        for name in _loaded_binprod():
            del sys.modules[name]
        sys.modules.update(saved)


def test_import_loads_no_code_generation_or_typing_modules():
    script = (
        "import binprod.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
