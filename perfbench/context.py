"""Run context recorded next to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

#: The seed kept out of benchmark development. A later claim is
#: confirmed on it after being measured on other seeds.
HELD_OUT_SEED = 1009

_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _blas() -> Dict[str, object]:
    """The BLAS numpy was built against, and its thread count if readable."""
    import numpy as np

    info: Dict[str, object] = {"name": None, "version": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, AttributeError):  # numpy < 1.25 has no mode=
        pass
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8").splitlines()
    except OSError:
        maps = []
    libraries = sorted(
        {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    )
    for path in libraries:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            query = getattr(library, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                info["threads"] = int(query())
                info["library"] = os.path.basename(path)
                return info
    return info


def _git_commit(root: Path) -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_context(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seed_is_held_out": seed == HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
        "commit": _git_commit(root),
        "argv": sys.argv[1:],
    }
