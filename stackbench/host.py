"""Where and on what a result was measured."""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional

from stackbench import ROOT


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (``None`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> Dict[str, object]:
    """Host facts and run identity recorded beside every result."""
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
