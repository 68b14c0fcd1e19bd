"""The package's public names (``__all__`` lists what a star-import binds)
and what importing and running the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import scgarch
from scgarch import TimeSeriesPanel, io


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from scgarch import *", namespace)
    assert [name for name in scgarch.__all__ if name not in namespace] == []


def test_all_is_sorted_without_repeats():
    assert scgarch.__all__ == sorted(set(scgarch.__all__))


def test_no_scipy_is_loaded(tmp_path):
    # scipy took about half of a CLI's start-up time and memory; a lazy
    # import would only move that cost into the first fit
    rng = np.random.default_rng(0)
    io.write_panel(tmp_path / "panel.csv", TimeSeriesPanel(rng.standard_normal((120, 3))))
    code = ("import sys, scgarch, scgarch.cli\n"
            "def scipy(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print('loaded', scipy())\n"
            "assert scgarch.cli.main(['fit', sys.argv[1], '--out-dir', sys.argv[2]]) == 0\n"
            "print('loaded', scipy())\n")
    src = str(Path(scgarch.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "panel.csv"),
                           str(tmp_path / "out")], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert [line for line in proc.stdout.splitlines() if line.startswith("loaded")] == [
        "loaded []", "loaded []"]


def test_cli_import_loads_no_process_pool():
    # A fit never starts a worker pool; loading multiprocessing for the
    # benchmark's --jobs would cost every command its memory.
    code = ("import sys, scgarch.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
            " or m == 'concurrent.futures.process'))\n")
    src = str(Path(scgarch.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
