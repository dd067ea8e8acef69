"""The package's compiled kernel library: every C source beside this module (flight.c: the flights,
the grey-box return and the crossing search; mlp.c: the surrogate), built once and called through ctypes."""

import ctypes
import hashlib
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

# The kernel's build: no -ffast-math and no -march, and no contraction into fused
# multiply-adds, which would change the last bits on hosts that have them; -pthread
# for the training epoch's helper thread (mlp.c).
CC_COMMAND = ("cc", "-O3", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
DOUBLES, INT64S = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)


def load_kernel() -> ctypes.CDLL:
    """The kernel library, compiled by CC_COMMAND into one library once per sources and command.

    The library is cached beside the sources as __pycache__/kernel-<sha256 of the
    sorted sources and the command>.so, built under a temporary name and moved into
    place, and loaded with the argtypes and restype of every entry declared; every
    array is a raw pointer, which its caller checks where it builds the array. A
    build that fails raises ImportError with the command and the compiler's stderr.
    """
    sources = sorted(Path(__file__).parent.glob("*.c"))
    digest = hashlib.sha256(b"\0".join(s.name.encode() + b"\0" + s.read_bytes() for s in sources)
                            + "\0".join(CC_COMMAND).encode()).hexdigest()
    library = sources[0].parent / "__pycache__" / f"kernel-{digest}.so"
    if not library.exists():
        import subprocess  # only a build needs it, and it costs about 0.5 MB of memory

        library.parent.mkdir(exist_ok=True)
        partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
        command = [*CC_COMMAND, "-o", str(partial), *map(str, sources), "-lm"]
        try:
            built = subprocess.run(command, capture_output=True, text=True, errors="replace")
        except OSError as exc:
            raise ImportError(f"cannot build the kernel library: {' '.join(command)}: {exc}") from exc
        if built.returncode != 0:
            partial.unlink(missing_ok=True)
            raise ImportError(f"cannot build the kernel library: {' '.join(command)}\n{built.stderr}")
        os.replace(partial, library)
    kernel = ctypes.CDLL(str(library))
    doubles, c_double, c_int64, int64s = DOUBLES, ctypes.c_double, ctypes.c_int64, INT64S
    kernel.ttr_flight.argtypes = (doubles, c_double, c_double, c_int64, c_double, c_double, doubles, c_double,
                                  c_double, doubles, c_int64, int64s, doubles)
    kernel.ttr_flight.restype = c_int64
    kernel.ttr_return.argtypes = (doubles, c_double, c_double, doubles, c_int64, c_int64, doubles, doubles)
    kernel.ttr_return.restype = c_int64
    kernel.ttr_returns.argtypes = (c_int64, doubles, doubles, doubles, c_int64, doubles, doubles, int64s)
    kernel.ttr_returns.restype = c_int64
    kernel.ttr_crossings.argtypes = (c_int64, doubles, doubles, c_int64, doubles, doubles)
    kernel.ttr_crossings.restype = None
    kernel.ttr_mlp.argtypes = (doubles, int64s, c_int64, doubles, doubles, doubles, doubles)
    kernel.ttr_mlp.restype = None
    kernel.ttr_adam_epoch.argtypes = (doubles, doubles, doubles, int64s, int64s, c_int64, doubles, doubles, doubles,
                                      c_int64, c_int64, int64s, c_int64, doubles)
    kernel.ttr_adam_epoch.restype = None
    return kernel


@lru_cache(maxsize=16)
def constants(array_type, *values: float) -> ctypes.Array:
    """A ctypes array of the kernel's constants, which the kernel only reads, made once per array
    type and values (values equal as floats, such as 0.0 and -0.0, share one array)."""
    return array_type(*values)


def pointer(array: np.ndarray, dtype=np.float64):
    """The kernel's raw pointer (double *, or int64_t * for dtype int64) to the numpy `array`,
    which keeps it alive: ValueError unless it is a C-contiguous writable array of `dtype`."""
    if not (array.dtype == dtype and array.flags.c_contiguous and array.flags.writeable):
        raise ValueError(f"the kernel reads a C-contiguous writable {np.dtype(dtype)} array")
    return array.ctypes.data_as(INT64S if dtype == np.int64 else DOUBLES)


KERNEL = load_kernel()
