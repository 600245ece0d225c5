"""What a fresh process pays to import the package.

The records are plain slotted classes, so ``import chowcalc`` loads neither
``dataclasses`` nor the ``inspect``, ``ast`` and ``dis`` it pulls in.  The
check runs in a fresh interpreter, because pytest itself imports
``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import chowcalc

PROGRAM = (
    "import sys, chowcalc, chowcalc.cli; "
    "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
)


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(chowcalc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
