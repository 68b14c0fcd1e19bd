"""The package's public names (``__all__`` lists what a star-import binds)
and what importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import scgarch


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from scgarch import *", namespace)
    assert [name for name in scgarch.__all__ if name not in namespace] == []


def test_all_is_sorted_without_repeats():
    assert scgarch.__all__ == sorted(set(scgarch.__all__))


def test_import_does_not_load_scipy_signal():
    # scipy.signal alone took most of a CLI's start-up time
    code = "import sys, scgarch, scgarch.cli; print('scipy.signal' in sys.modules)"
    src = str(Path(scgarch.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False"]
