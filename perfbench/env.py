"""Facts about the machine and source tree that make benchmark results comparable."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def git_sha(root: Path) -> str | None:
    """HEAD's commit from ``root/.git`` without running git (None outside a repository)."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cache_size(level: int) -> int | None:
    try:
        out = subprocess.run(
            ["getconf", f"LEVEL{level}_CACHE_SIZE"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def describe(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "l2_cache_bytes": _cache_size(2),
        "l3_cache_bytes": _cache_size(3),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
    }
