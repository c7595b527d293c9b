"""Top-level DiAG processor: dataflow rings + shared memory hierarchy.

Paper Section 5.1: a DiAG processor is organized as dataflow rings
(each the analogue of a CPU core), each containing processing clusters
of PEs. Multi-threaded runs allocate one ring per software thread (the
"16-by-2 format" of Section 7.2.1: each thread gets a ring with
``num_clusters`` clusters to alternate between); all rings share the
banked L1D / L2 hierarchy, so inter-thread memory contention is
modelled through the shared bank/bus timing state. The rings run in
lockstep as one :class:`repro.core.group.EngineGroup`.
"""

from repro.core.group import EngineGroup
from repro.core.ring import RingEngine
from repro.memory.hierarchy import MemoryHierarchy


class DiAGProcessor(EngineGroup):
    """A DiAG processor instance executing one program: one ring per
    thread over one hierarchy (``hierarchy``, or a fresh one built
    from the config)."""

    def __init__(self, config, program, num_threads=1, thread_regs=None,
                 hierarchy=None, tracer=None):
        self.hierarchy = hierarchy if hierarchy is not None \
            else MemoryHierarchy(config.hierarchy_config())
        super().__init__(config, program, [self.hierarchy] * num_threads,
                         thread_regs=thread_regs, tracer=tracer)

    def _engine(self, tid, hierarchy, arch):
        return RingEngine(self.config, hierarchy, self.program, arch=arch,
                          ring_id=tid)

    @property
    def rings(self):
        return self.engines


def run_program(program, config, num_threads=1, thread_regs=None,
                max_cycles=None):
    """Convenience wrapper: build a processor, run, return the result.

    The result also exposes the processor (``result.processor``) so
    callers can inspect memory and cache statistics.
    """
    processor = DiAGProcessor(config, program, num_threads=num_threads,
                              thread_regs=thread_regs)
    result = processor.run(max_cycles=max_cycles)
    result.processor = processor
    return result
