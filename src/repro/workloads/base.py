"""Workload abstractions shared by the benchmark suites."""

from dataclasses import dataclass, field

import numpy as np
# not lazily in rng(): a worker forked amid another thread's first
# import of numpy.random inherits its held lock and deadlocks in rng()
import numpy.random  # noqa: F401


@dataclass
class WorkloadInstance:
    """A concrete, runnable instance of a workload.

    ``setup(memory)`` writes generated inputs; ``verify(memory)``
    checks kernel outputs against the numpy reference and returns True
    on success. ``params`` records the instantiated problem size.
    """

    name: str
    program: object
    setup: object
    verify: object
    params: dict = field(default_factory=dict)
    simt: bool = False
    threads: int = 1


class Workload:
    """Base class: subclasses define NAME/SUITE/CATEGORY and build()."""

    #: registry key
    NAME = None
    #: 'rodinia' or 'spec'
    SUITE = None
    #: dominant behaviour: 'compute', 'memory', 'control', or 'mixed'
    CATEGORY = "mixed"
    #: whether a simt_s/simt_e-annotated variant exists
    SIMT_CAPABLE = False
    #: whether the kernel partitions across SPMD threads
    MT_CAPABLE = True

    def build(self, scale=1.0, threads=1, simt=False, seed=1234):
        """Return a :class:`WorkloadInstance`.

        ``scale`` multiplies the default problem size; ``simt`` selects
        the simt-annotated variant when SIMT_CAPABLE.
        """
        raise NotImplementedError

    @classmethod
    def rng(cls, seed):
        return np.random.default_rng(seed)


def write_f32(memory, addr, array):
    """Write a float32 numpy array into simulator memory."""
    memory.write_bytes(addr, np.asarray(array, dtype="<f4").tobytes())


def write_i32(memory, addr, array):
    """Write an int32/uint32 numpy array into simulator memory."""
    memory.write_bytes(addr, np.asarray(array, dtype="<i4").tobytes())


def write_u8(memory, addr, array):
    """Write a uint8 numpy array into simulator memory."""
    memory.write_bytes(addr, np.asarray(array, dtype=np.uint8).tobytes())


def read_f32(memory, addr, count):
    """Read ``count`` float32 values from simulator memory."""
    return np.frombuffer(memory.read_bytes(addr, 4 * count), dtype="<f4")


def read_i32(memory, addr, count):
    """Read ``count`` int32 values from simulator memory."""
    return np.frombuffer(memory.read_bytes(addr, 4 * count), dtype="<i4")


def f32_close(got, expected, rtol=1e-4, atol=1e-5):
    """Tolerant float32 comparison for kernel outputs."""
    return np.allclose(got, expected, rtol=rtol, atol=atol)
