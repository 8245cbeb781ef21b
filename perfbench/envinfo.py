"""Environment and code metadata recorded next to the benchmark results.

Run as a script to print the full record as JSON, including the CPU quota
from the cgroup, which the benchmark run itself does not read.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _cpu_quota() -> str | None:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return None


def collect(cpu_quota: bool = False) -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "IPCLR_THREADS": os.environ.get("IPCLR_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_ipclr_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src" / "ipclr").glob("*.py")
        ),
    }
    if cpu_quota:
        info["cpu_max"] = _cpu_quota()
    return info


if __name__ == "__main__":
    json.dump(collect(cpu_quota=True), sys.stdout, indent=2)
    print()
