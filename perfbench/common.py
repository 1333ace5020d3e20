"""Shared plumbing of the benchmark: paths, artifacts, statistics, results.

Everything here uses the standard library and numpy only.  The program under
test is imported from ``src/`` of the checkout the benchmark runs in.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Build outputs (trained checkpoint, generated chip); never committed.
CACHE_ROOT = ROOT / ".bench_build" / "perfbench"

#: Files whose content defines the cached artifacts besides ``src/``.
_RECIPE_FILES = ("build_artifacts.py", "inputs.py")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed build)."""


def require_program() -> None:
    """Put ``src/`` first on ``sys.path`` and check the program is there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def source_digest() -> str:
    """Digest of the program source plus the artifact recipe.

    Cached artifacts are reused only while this digest is unchanged.
    """
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [BENCH_DIR / name for name in _RECIPE_FILES]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def artifact_dir() -> pathlib.Path:
    """The directory holding this source tree's checkpoint and chip.

    Builds them in a child process on first use, so the build's memory and
    warm state never reach a measured process.
    """
    directory = CACHE_ROOT / source_digest()
    if (directory / "DONE").is_file():
        return directory
    directory.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "build_artifacts.py"), str(directory)],
        cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=840)
    if result.returncode != 0 or not (directory / "DONE").is_file():
        raise BenchError("artifact build failed:\n" + result.stdout[-4000:])
    log(f"built artifacts in {time.perf_counter() - started:.1f}s -> {directory}")
    return directory


def trace_path(workload: str, seed: int) -> pathlib.Path:
    """Where a traced run writes its spans (Chrome trace-event JSON)."""
    directory = CACHE_ROOT / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{workload}-seed{seed}.json"


def log(message: str) -> None:
    """Progress output goes to stderr; stdout ends with the result line."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """High-water resident set size of another live process, in MiB."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def time_setup(setup) -> float:
    """Wall time of one ``setup()`` call, started on a collected heap.

    The set-up's product is dropped before the next sample, so every sample
    starts from the same heap.
    """
    gc.collect()
    started = time.perf_counter()
    setup()
    return time.perf_counter() - started


# --------------------------------------------------------------------------- #
# Result line
# --------------------------------------------------------------------------- #
def _declared_metrics() -> tuple[dict[str, str], list[tuple[str, str]]]:
    """End-to-end units by name and per-layer ``(name, unit)`` in order, as
    ``BENCHMARK.json`` at the checkout root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


#: The metrics a run reports: every end-to-end one with ``--trace 0``, every
#: per-layer one with ``--trace 1``.
UNITS, PER_LAYER = _declared_metrics()


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The JSON object the benchmark prints last."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def end_to_end(**values: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics with their fixed units."""
    return {name: (value, UNITS[name]) for name, value in values.items()}
