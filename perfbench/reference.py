"""Reference explorer results, computed once per checkout.

The frozen reference explorer (``tests/analysis/reference_explore.py``)
is the oracle for every exploration verdict and configuration count.
It is about twice as slow as the program: the E16 instance at prefix
depth 2 takes ~30 s.  So its results are computed in the first run in
a checkout and kept under ``.perfbench_cache/``, keyed by a hash of the
reference explorer, the explorer module it imports and the protocol
sources.  Deleting that directory makes them anew.

``python3 perfbench/reference.py <instance>:<depth> ...`` computes the
named results and writes them to the cache; :func:`reference_reports`
runs it in a child process for whatever is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.checks import reference_summary  # noqa: E402
from perfbench.instances import ALL_EXPLORE, ExploreInstance  # noqa: E402

CACHE_DIR = ".perfbench_cache"

#: Sources whose change can change a reference result.
_SOURCES = (
    "tests/analysis/reference_explore.py",
    "src/repro/analysis/explore.py",
    "src/repro/protocols",
)


def _source_hash(root: str) -> str:
    digest = hashlib.sha256()
    for source in _SOURCES:
        path = os.path.join(root, source)
        files = [path]
        if os.path.isdir(path):
            files = sorted(
                os.path.join(path, name) for name in os.listdir(path)
                if name.endswith(".py")
            )
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def _path(root: str, name: str, depth: int) -> str:
    return os.path.join(root, CACHE_DIR,
                        f"{name}-d{depth}-{_source_hash(root)}.json")


def reference_reports(
    root: str, wanted: Sequence[Tuple[ExploreInstance, int]]
) -> Dict[Tuple[str, int], Dict]:
    """``{(instance name, prefix depth): reference summary}``."""
    missing = [f"{instance.name}:{depth}" for instance, depth in wanted
               if not os.path.exists(_path(root, instance.name, depth))]
    if missing:
        subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "reference.py")]
            + missing, cwd=root, check=True,
        )
    results = {}
    for instance, depth in wanted:
        with open(_path(root, instance.name, depth), encoding="utf-8") as f:
            results[(instance.name, depth)] = json.load(f)
    return results


def main(targets: Sequence[str]) -> None:
    """Compute ``name:depth`` reference results into the cache."""
    from tests.analysis.reference_explore import reference_explore_protocol

    os.makedirs(os.path.join(ROOT, CACHE_DIR), exist_ok=True)
    for target in targets:
        name, depth = target.rsplit(":", 1)
        instance = ALL_EXPLORE[name]
        report = reference_explore_protocol(
            instance.protocol(), list(instance.inputs), instance.task(),
            max_configs=instance.max_configs, max_steps=instance.max_steps,
            prefix_depth=int(depth),
        )
        path = _path(ROOT, name, int(depth))
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(reference_summary(report), handle)
        os.replace(path + ".tmp", path)


if __name__ == "__main__":
    main(sys.argv[1:])
