"""STACK bench: one end-to-end benchmark over the deployed timer stacks.

Run from the repository root::

    PYTHONPATH=src python -m stackbench run [--workload W ...] [--seed N] [--out F]
    PYTHONPATH=src python -m stackbench trace --out DIR
    python -m stackbench compare A.json B.json

``stackbench/README.md`` defines every metric and workload.
"""

from __future__ import annotations

from pathlib import Path

#: The repository checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test is built from.
SRC = ROOT / "src"
#: Scratch space for journals and span files; removed after each run.
WORK = ROOT / ".stackbench-work"
