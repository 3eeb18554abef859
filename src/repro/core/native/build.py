"""Lazy on-demand build and ctypes loader for the native kernel tier.

The native backend ships a single C source file (``_kernels.c``) and no
build system: the first run compiles it with whatever system compiler is on
``PATH`` (``cc``/``gcc``/``clang``, overridable via ``ARE_NATIVE_CC``) using
``-O3 -fPIC -shared`` plus ``-fopenmp`` when the compiler supports it, and
loads the shared object through :mod:`ctypes`.  Build products are cached
under a content hash of the C source, the flags and the compiler version —
so rebuilds happen exactly when the C (or the toolchain) changes, and a
stale cache can never serve an old kernel for new source.

Everything degrades, nothing raises at import time: a machine without a C
compiler gets :func:`load_kernels` raising :class:`NativeBuildError`, which
the backend turns into a NumPy fallback with a one-time warning.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

__all__ = [
    "NativeBuildError",
    "NativeKernels",
    "find_compiler",
    "compiler_version",
    "openmp_flags",
    "cache_dir",
    "library_path",
    "ensure_built",
    "load_kernels",
    "native_status",
]

#: The C source compiled into the kernel library.
SOURCE_PATH = Path(__file__).resolve().with_name("_kernels.c")

#: Environment variable overriding compiler discovery (a name or a path).
CC_ENV = "ARE_NATIVE_CC"

#: Environment variable overriding the build-cache directory.
CACHE_ENV = "ARE_NATIVE_CACHE"

#: Compilers tried, in order, when ``ARE_NATIVE_CC`` is not set.
COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: Flags every build uses.  -O3 without -ffast-math preserves the FP
#: evaluation order the kernel's bit-identity contract depends on.
BASE_FLAGS = ("-O3", "-fPIC", "-shared", "-std=c11")

OPENMP_FLAG = "-fopenmp"

#: Must match ARE_NATIVE_ABI_VERSION in _kernels.c.
ABI_VERSION = 1


class NativeBuildError(RuntimeError):
    """The native kernel library could not be built or loaded."""


def find_compiler() -> str | None:
    """Absolute path of the C compiler to use, or ``None`` when absent.

    ``ARE_NATIVE_CC`` (a name or path) takes precedence; when it does not
    resolve, discovery reports *no* compiler rather than silently falling
    back to a different toolchain than the one the user asked for.
    """
    override = os.environ.get(CC_ENV)
    if override:
        return shutil.which(override)
    for candidate in COMPILER_CANDIDATES:
        path = shutil.which(candidate)
        if path:
            return path
    return None


#: Per-toolchain probe results, keyed by ``(probe, compiler path)``.
_toolchain_probes: Dict[tuple[str, str], Any] = {}
_toolchain_lock = threading.Lock()


def _memoised_probe(kind: str, cc: str, probe: Callable[[str], Any]) -> Any:
    """``probe(cc)``, run once per compiler path for the life of the process."""
    key = (kind, cc)
    with _toolchain_lock:
        if key in _toolchain_probes:
            return _toolchain_probes[key]
    value = probe(cc)
    with _toolchain_lock:
        return _toolchain_probes.setdefault(key, value)


def compiler_version(cc: str) -> str:
    """First line of ``cc --version`` (used in the build signature); memoised."""
    return _memoised_probe("version", cc, _probe_version)


def _probe_version(cc: str) -> str:
    try:
        probe = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, check=False, timeout=30
        )
    except OSError as exc:  # pragma: no cover - racing PATH changes
        return f"unavailable ({exc})"
    lines = (probe.stdout or probe.stderr).splitlines()
    return lines[0].strip() if lines else "unknown"


_OPENMP_PROBE_SOURCE = (
    "#include <omp.h>\n"
    "int are_openmp_probe(void) { return omp_get_max_threads(); }\n"
)


def openmp_flags(cc: str) -> tuple[str, ...]:
    """``("-fopenmp",)`` when the compiler can build with it, else ``()``.

    Probed once per compiler path by test-compiling a one-function shared
    object; memoised for the life of the process.
    """
    return (OPENMP_FLAG,) if _memoised_probe("openmp", cc, _probe_openmp) else ()


def _probe_openmp(cc: str) -> bool:
    with tempfile.TemporaryDirectory(prefix="are-native-probe-") as tmp:
        source = Path(tmp) / "probe.c"
        source.write_text(_OPENMP_PROBE_SOURCE)
        out = Path(tmp) / "probe.so"
        command = [cc, *BASE_FLAGS, OPENMP_FLAG, str(source), "-o", str(out)]
        try:
            result = subprocess.run(command, capture_output=True, check=False, timeout=120)
        except OSError:  # pragma: no cover - racing PATH changes
            return False
        return result.returncode == 0 and out.exists()


def cache_dir() -> Path:
    """Directory the compiled libraries are cached in (created on demand)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        base = Path(override)
    else:
        base = Path.home() / ".cache" / "are_native"
    base.mkdir(parents=True, exist_ok=True)
    return base


def _build_signature(cc: str, flags: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    digest.update(SOURCE_PATH.read_bytes())
    digest.update("\x1f".join(flags).encode())
    digest.update(compiler_version(cc).encode())
    return digest.hexdigest()[:16]


def library_path(cc: str, flags: tuple[str, ...]) -> Path:
    """Cache path of the library built from the current source with ``cc``."""
    return cache_dir() / f"are_kernels-{_build_signature(cc, flags)}.so"


def ensure_built(force: bool = False) -> Path:
    """Compile the kernel library if its cached build is missing or stale.

    The cache key embeds the source content, the flags and the compiler
    version, so editing ``_kernels.c`` (or switching toolchains) lands on a
    new path and triggers a rebuild automatically; ``force`` rebuilds even a
    fresh cache entry.
    """
    cc = find_compiler()
    if cc is None:
        override = os.environ.get(CC_ENV)
        hint = (
            f"{CC_ENV}={override!r} does not resolve to an executable"
            if override
            else f"no C compiler on PATH (tried {', '.join(COMPILER_CANDIDATES)})"
        )
        raise NativeBuildError(
            f"cannot build the native kernels: {hint}; the native backend "
            "will fall back to the vectorized NumPy path"
        )
    flags = BASE_FLAGS + openmp_flags(cc)
    target = library_path(cc, flags)
    if target.exists() and not force:
        return target

    # Build into a unique temporary name and publish atomically, so
    # concurrent first builds (several engines, several processes) race
    # benignly instead of loading a half-written object.
    fd, staging = tempfile.mkstemp(
        prefix=target.stem + "-", suffix=".so.tmp", dir=target.parent
    )
    os.close(fd)
    command = [cc, *flags, str(SOURCE_PATH), "-o", staging]
    try:
        result = subprocess.run(command, capture_output=True, text=True, check=False)
        if result.returncode != 0:
            raise NativeBuildError(
                "native kernel compilation failed "
                f"({' '.join(command)}):\n{result.stderr.strip()}"
            )
        os.replace(staging, target)
    finally:
        if os.path.exists(staging):
            os.unlink(staging)
    return target


class NativeKernels:
    """A loaded kernel library with its ABI declared and wrapped.

    Thread-safe: the underlying ``are_fused_rows`` writes only to the output
    arrays passed per call, and ctypes releases the GIL for the duration of
    the call — which is what lets the serving layer price concurrent
    requests through one loaded library.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self._lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise NativeBuildError(f"cannot load native kernels from {path}: {exc}")

        self._lib.are_abi_version.restype = ctypes.c_int64
        self._lib.are_abi_version.argtypes = []
        self._lib.are_openmp_enabled.restype = ctypes.c_int32
        self._lib.are_openmp_enabled.argtypes = []
        self._lib.are_max_threads.restype = ctypes.c_int32
        self._lib.are_max_threads.argtypes = []
        self._lib.are_fused_rows.restype = ctypes.c_int32
        self._lib.are_fused_rows.argtypes = [
            ctypes.c_void_p,  # stack
            ctypes.c_int64,   # n_stack_rows
            ctypes.c_int64,   # catalog_size
            ctypes.c_int32,   # stack_is_f32
            ctypes.c_void_p,  # row_map (or NULL)
            ctypes.c_int64,   # n_rows
            ctypes.c_void_p,  # event_ids
            ctypes.c_int64,   # n_events
            ctypes.c_void_p,  # offsets
            ctypes.c_int64,   # n_trials
            ctypes.c_void_p,  # occ_retentions
            ctypes.c_void_p,  # occ_limits
            ctypes.c_void_p,  # agg_retentions
            ctypes.c_void_p,  # agg_limits
            ctypes.c_void_p,  # year_losses out
            ctypes.c_void_p,  # max_occ out (or NULL)
            ctypes.c_int32,   # n_threads
        ]

        abi = int(self._lib.are_abi_version())
        if abi != ABI_VERSION:
            raise NativeBuildError(
                f"native kernel ABI mismatch: library reports {abi}, "
                f"loader expects {ABI_VERSION} (stale {path}?)"
            )
        self.openmp = bool(self._lib.are_openmp_enabled())

    def max_threads(self) -> int:
        """OpenMP's default thread count for this process (1 without OpenMP)."""
        return int(self._lib.are_max_threads())

    def fused_rows(
        self,
        stack: np.ndarray,
        event_ids: np.ndarray,
        offsets: np.ndarray,
        occ_retentions: np.ndarray,
        occ_limits: np.ndarray,
        agg_retentions: np.ndarray,
        agg_limits: np.ndarray,
        row_map: np.ndarray | None = None,
        record_max_occurrence: bool = True,
        n_threads: int = 0,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One fused pass: year losses (and optional maxima) for every row.

        Mirrors :func:`repro.core.kernels.layer_trial_losses_batch` with
        ``use_shortcut=True`` bit for bit (for a float32 ``stack``, bit for
        bit against the float64 pipeline on the f32-quantised stack).
        """
        if stack.ndim != 2:
            raise ValueError(f"stack must be 2-D, got shape {stack.shape}")
        if stack.dtype == np.float32:
            is_f32 = 1
        elif stack.dtype == np.float64:
            is_f32 = 0
        else:
            raise ValueError(f"stack dtype must be float32/float64, got {stack.dtype}")
        stack = np.ascontiguousarray(stack)
        ids = np.ascontiguousarray(event_ids, dtype=np.int64)
        offs = np.ascontiguousarray(offsets, dtype=np.int64)
        if offs.ndim != 1 or offs.size < 1:
            raise ValueError("offsets must be a non-empty 1-D array")
        n_trials = offs.size - 1
        if offs[0] != 0 or offs[-1] != ids.size:
            raise ValueError(
                f"offsets must run 0..{ids.size}, got [{offs[0]}, {offs[-1]}]"
            )
        # Same catalog-range validation as the NumPy kernel: the C side
        # gathers unchecked, so out-of-range ids must fail loudly here.
        if ids.size and (ids.min() < 0 or ids.max() >= stack.shape[1]):
            raise IndexError("event ids out of range of the catalog")

        occ_ret = np.ascontiguousarray(occ_retentions, dtype=np.float64)
        occ_lim = np.ascontiguousarray(occ_limits, dtype=np.float64)
        agg_ret = np.ascontiguousarray(agg_retentions, dtype=np.float64)
        agg_lim = np.ascontiguousarray(agg_limits, dtype=np.float64)
        n_rows = occ_ret.size
        if not (occ_lim.size == agg_ret.size == agg_lim.size == n_rows):
            raise ValueError("term vectors must all have one entry per row")

        if row_map is not None:
            row_map = np.ascontiguousarray(row_map, dtype=np.int64)
            if row_map.shape != (n_rows,):
                raise ValueError(
                    f"row_map must have one entry per row ({n_rows}), "
                    f"got shape {row_map.shape}"
                )
            if row_map.size and (row_map.min() < 0 or row_map.max() >= stack.shape[0]):
                raise IndexError("row_map indices out of range of the stack")
        elif stack.shape[0] < n_rows:
            raise ValueError(
                f"stack has {stack.shape[0]} rows but terms describe {n_rows}"
            )

        year_losses = np.empty((n_rows, n_trials), dtype=np.float64)
        max_occ = (
            np.empty((n_rows, n_trials), dtype=np.float64)
            if record_max_occurrence
            else None
        )

        status = self._lib.are_fused_rows(
            stack.ctypes.data,
            stack.shape[0],
            stack.shape[1],
            is_f32,
            row_map.ctypes.data if row_map is not None else None,
            n_rows,
            ids.ctypes.data if ids.size else None,
            ids.size,
            offs.ctypes.data,
            n_trials,
            occ_ret.ctypes.data,
            occ_lim.ctypes.data,
            agg_ret.ctypes.data,
            agg_lim.ctypes.data,
            year_losses.ctypes.data,
            max_occ.ctypes.data if max_occ is not None else None,
            int(n_threads),
        )
        if status != 0:
            raise RuntimeError(f"are_fused_rows rejected its arguments (code {status})")
        return year_losses, max_occ


_loaded: Dict[Path, NativeKernels] = {}
_load_lock = threading.Lock()


def load_kernels(force_rebuild: bool = False) -> NativeKernels:
    """Build (if needed) and load the kernel library, memoised per build.

    The memo is keyed by the content-hashed library path, so callers can
    invoke this per run: an unchanged source is a dictionary hit, and an
    edited source resolves to a new path and gets compiled + loaded fresh.

    Raises :class:`NativeBuildError` when no compiler is available or the
    build fails.
    """
    path = ensure_built(force=force_rebuild)
    with _load_lock:
        kernels = _loaded.get(path)
        if kernels is None or force_rebuild:
            kernels = NativeKernels(path)
            _loaded[path] = kernels
    return kernels


def native_status() -> Dict[str, Any]:
    """Availability probe for ``are backends``: what the native tier would do.

    Never raises and never compiles; reports the compiler (path + version),
    OpenMP support, whether a current cached build exists, and — when the
    tier is unavailable — the reason the backend would fall back.
    """
    status: Dict[str, Any] = {
        "available": False,
        "compiler": None,
        "compiler_version": None,
        "openmp": None,
        "cached_library": None,
        "cache_dir": str(cache_dir()),
        "reason": None,
    }
    cc = find_compiler()
    if cc is None:
        override = os.environ.get(CC_ENV)
        status["reason"] = (
            f"{CC_ENV}={override!r} does not resolve to an executable"
            if override
            else f"no C compiler on PATH (tried {', '.join(COMPILER_CANDIDATES)})"
        )
        return status
    status["available"] = True
    status["compiler"] = cc
    status["compiler_version"] = compiler_version(cc)
    flags = BASE_FLAGS + openmp_flags(cc)
    status["openmp"] = OPENMP_FLAG in flags
    target = library_path(cc, flags)
    status["cached_library"] = str(target) if target.exists() else None
    status["platform"] = platform.platform()
    return status
