"""Build-on-first-use loader for the compiled kernels in ``native.c``.

Fast mode runs the trace pipeline's per-request loops as C: the
FR-FCFS controller, burst expansion and per-kind byte totals included
(:class:`~repro.mem.controller.ControllerSession`), and both trace
rewriters (:class:`~repro.protection.trace_rewriter.GuardNNTraceRewriter`
and :class:`~repro.protection.trace_rewriter.MeeTraceRewriter` with its
metadata cache). Nothing is installed: the first fast-mode call in a
process compiles ``native.c`` with the system ``cc`` into
``$XDG_CACHE_HOME/repro/kernels/<key>/`` (default
``~/.cache/repro/kernels/``), where ``<key>`` is the SHA-256 of the
source and the compiler flags, and loads it with :mod:`ctypes`. Later
processes load that build; deleting the directory forces a rebuild.

* A build goes through a temporary file and ``os.replace``, so
  processes that compile at the same time each load a whole library.
* If the cache directory cannot be written, the build goes to a
  per-process temporary directory instead.
* If no library can be built (no ``cc``, or a compile error), fast mode
  runs the Python oracles the kernels port, several times slower, and
  one warning per process says so on stderr.

Importing this module builds nothing; :func:`kernels` does, once.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from typing import Optional

import numpy as _np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
_FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_LIBRARY = "native.so"

_lock = threading.Lock()
_loaded = False
_library: Optional[ctypes.CDLL] = None


class KernelBuildError(Exception):
    """``native.c`` could not be compiled."""


def kernels() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, built on the first call in this
    process, or ``None`` when none can be built (the callers then run
    their Python oracles)."""
    global _loaded, _library
    if _loaded:
        return _library
    with _lock:
        if not _loaded:
            try:
                _library = _load()
            except (KernelBuildError, OSError) as error:
                print(f"repro: cannot build the compiled kernels ({error}); "
                      "fast mode runs the Python reference loops instead, "
                      "several times slower", file=sys.stderr)
            _loaded = True
    return _library


# the modules only a build needs are imported by the functions that use
# them, so that importing the simulator (the benchmark's set-up probe)
# does not pay for them


def kernel_dir() -> str:
    """Where this source's build lives (it may not exist yet)."""
    import hashlib

    with open(_SOURCE, "rb") as f:
        source = f.read()
    key = hashlib.sha256(source + "\0".join(_FLAGS).encode()).hexdigest()
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(home, "repro", "kernels", key)


def _compiler() -> Optional[str]:
    import shutil

    return shutil.which("cc")


def _compile(destination: str) -> None:
    import subprocess

    compiler = _compiler()
    if compiler is None:
        raise KernelBuildError("no C compiler: cc is not on PATH")
    try:
        done = subprocess.run([compiler, *_FLAGS, "-o", destination, _SOURCE],
                              capture_output=True, text=True)
    except OSError as error:
        raise KernelBuildError(f"{compiler}: {error}") from None
    if done.returncode:
        raise KernelBuildError(f"{compiler} exited {done.returncode}: "
                               f"{done.stderr.strip()[-500:]}")


def _load() -> ctypes.CDLL:
    """Load this source's cached build, compiling it first if there is
    none; build in a temporary directory if the cache is unwritable."""
    import tempfile

    directory = kernel_dir()
    path = os.path.join(directory, _LIBRARY)
    if not os.path.exists(path):
        try:
            os.makedirs(directory, exist_ok=True)
            fd, scratch = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except OSError:
            with tempfile.TemporaryDirectory(prefix="repro-kernels-") as temp:
                path = os.path.join(temp, _LIBRARY)
                _compile(path)
                # a loaded library outlives its file
                return _declare(ctypes.CDLL(path))
        os.close(fd)
        try:
            _compile(scratch)
            os.replace(scratch, path)
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
    return _declare(ctypes.CDLL(path))


def _declare(library: ctypes.CDLL) -> ctypes.CDLL:
    """Give each kernel its signature: arrays go in as addresses
    (``c_void_p``), which the callers take once for the buffers they
    own (:func:`address_of`) and check for a batch's columns
    (:func:`batch_arguments`). A negative return (an output array too
    short, or an input a kernel cannot index) raises ``RuntimeError``."""
    p, n = ctypes.c_void_p, ctypes.c_int64
    batch = [p, p, p, p, n]  # a RequestBatch's columns, its length
    out = [p, p, p, p, n]  # output columns, their length
    signatures = {
        "repro_schedule": [*batch, n, ctypes.c_int32, n, p, p, n, p, p, p, p,
                           p, n],
        "repro_guardnn_rewrite": [*batch, p, p, *out],
        "repro_mee_rewrite": [*batch, p, p, p, p, p, p, *out],
    }
    for name, argtypes in signatures.items():
        kernel = getattr(library, name)
        kernel.argtypes = argtypes
        kernel.restype = ctypes.c_int64
        kernel.errcheck = _check
    return library


def _check(result, kernel, args):
    """``errcheck`` of every kernel: its negative codes as errors."""
    if result < 0:
        raise RuntimeError(f"{kernel.__name__}: "
                           + ("an output array is too short" if result == -1
                              else "an input is out of range"))
    return result


def address_of(array: _np.ndarray) -> int:
    """The address of a C-contiguous array's first element, as a kernel
    argument. The caller keeps ``array`` alive while the address is in
    use, and takes it again if it replaces the array."""
    if not array.flags.c_contiguous:
        raise ValueError("kernel arrays must be C-contiguous")
    return array.ctypes.data


_BATCH_DTYPES = (_np.dtype(_np.int64), _np.dtype(_np.int64),
                 _np.dtype(_np.int8), _np.dtype(_np.int8))


def batch_arguments(batch) -> tuple:
    """A :class:`~repro.mem.batch.RequestBatch`'s four column addresses
    and its length, the kernels' first five arguments. ``RequestBatch``
    trusts the columns it is given, so each is checked here for its
    dtype, contiguity and length before its address goes in."""
    columns = batch.columns()
    n = len(columns[0])
    for column, dtype in zip(columns, _BATCH_DTYPES):
        if (column.dtype != dtype or not column.flags.c_contiguous
                or len(column) != n):
            raise ValueError("a batch's columns must be C-contiguous int64 "
                             "address and size and int8 is_write and kind "
                             "columns of one length")
    return (*(column.ctypes.data for column in columns), n)


def shift_of(divisor: int) -> int:
    """The right shift that divides by ``divisor`` when it is a power of
    two, else -1: the kernels take both for each runtime divisor."""
    return divisor.bit_length() - 1 if divisor & (divisor - 1) == 0 else -1
