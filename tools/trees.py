"""Run a source tree of the program in processes of its own.

A tree is a directory that holds the ``sdae_ivs`` package, such as the
``src/`` of a checkout. The comparison tools in this directory import
these helpers, so that every tree runs alike: with one BLAS thread and no
bytecode written.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def tree_env(src: Path) -> dict:
    """The environment of a process that runs the program from src."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


def check_import(src: Path) -> None:
    """Exit 1 with a message naming src unless a process given src imports
    the program from it."""
    found = subprocess.run(
        [sys.executable, "-c", "import sdae_ivs; print(sdae_ivs.__file__)"],
        cwd=REPO, env=tree_env(src), capture_output=True, text=True)
    where = Path(found.stdout.strip() or ".").resolve()
    if found.returncode or where.parent != (src / "sdae_ivs").resolve():
        sys.exit(f"{src}: holds no sdae_ivs package "
                 f"(imported: {found.stdout.strip() or found.stderr.strip()})")
