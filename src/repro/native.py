"""Build-on-first-use loader for the suite's compiled C cores.

Three optimized tiers run a small C core through :mod:`ctypes`: the
``array`` tier's A* (``search/_astar.c``), pfl's ``vectorized`` ray
caster (``geometry/_raycast.c``) and srec's ``vectorized`` kd-tree
(``geometry/_nn.c``).  :func:`load_function` compiles a
core's source with ``$CC`` (default ``cc``) on first use into the
cache dir (``.rtrbench_cache/``, or ``RTRBENCH_CACHE_DIR``), so the
package runs from a source checkout with no build step.  ``reference``
tiers never come here and need no compiler.

* The library name carries a digest of the source, the flags and the
  split ``$CC`` command, so an edited core never loads a stale build and
  a core built by one compiler is never served under another.
* The compiler writes to a process-unique temp name that is renamed into
  place, so a concurrent cold build never loads a half-written library.
* Loaded functions are memoized per process; a failed build is not, so
  the next call retries it.
* ``-ffp-contract=off`` forbids fused multiply-adds, so every float the
  cores compute rounds exactly as the same expression does in Python.
* ``-pthread`` links the threads the ray caster starts within a call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import tempfile
from typing import Callable, List, Tuple

_CFLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")


def _compiler() -> List[str]:
    """The split ``$CC`` command (default ``cc``)."""
    return shlex.split(os.environ.get("CC") or "cc")


def _library_path(source: str, cache_dir: str) -> str:
    """Path of the library for the current ``source``, flags and ``$CC``."""
    with open(source, "rb") as fh:
        text = fh.read()
    command = "\0".join([*_compiler(), *_CFLAGS])
    digest = hashlib.sha256(text + command.encode())
    stem = os.path.splitext(os.path.basename(source))[0]
    return os.path.join(cache_dir, f"{stem}-{digest.hexdigest()[:16]}.so")


def _compile(source: str, path: str) -> None:
    """Compile ``source`` to ``path`` with ``$CC`` (default ``cc``)."""
    compiler = _compiler()
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # Compile to a process-unique name and rename it into place, so a
    # concurrent cold build never loads a half-written library.
    stem = os.path.splitext(os.path.basename(source))[0]
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f"{stem}-{os.getpid()}-", suffix=".tmp"
    )
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*compiler, *_CFLAGS, "-o", tmp, source],
                capture_output=True, text=True,
            )
        except OSError as exc:
            raise RuntimeError(
                f"this backend runs a compiled core and needs a C compiler: "
                f"cannot run {compiler[0]!r} to build {source} ({exc}); "
                f"set CC, or use backend='reference'"
            ) from exc
        if proc.returncode != 0:
            raise RuntimeError(
                f"{compiler[0]!r} failed to build {source} "
                f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.lru_cache(maxsize=None)
def load_function(
    source: str, symbol: str, restype, argtypes: Tuple
) -> Callable:
    """``symbol`` from the core built from ``source``, typed for ctypes.

    Builds the library into the cache dir on first use.  A
    harness that times a single cold call loads the function first, to
    keep the one-time compile out of its measurement.
    """
    from repro.envs.cache import default_cache

    path = _library_path(source, default_cache().cache_dir)
    if not os.path.exists(path):
        _compile(source, path)
    fn = getattr(ctypes.CDLL(path), symbol)
    fn.argtypes = list(argtypes)
    fn.restype = restype
    return fn
