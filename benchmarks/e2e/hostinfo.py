"""Host fingerprint: results are only compared like-for-like."""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np

#: Keys that must match before two result files may be compared.
COMPARABLE = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads",
              "telemetry_default")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # older numpy, or a build without the section
        return "unknown"


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int) -> dict:
    from repro.config import SystemConfig

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    threads = next(
        (os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
         if k in os.environ),
        "default",
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "git_commit": _git_commit(root),
        "seed": seed,
        "telemetry_default": SystemConfig().telemetry_enabled,
    }
