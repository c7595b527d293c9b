"""Multicore wrapper: N out-of-order cores with private L1s, shared L2.

The paper's baseline is a 12-core 8-issue out-of-order CPU with 64 KB
L1s and a 4-8 MB unified L2 (Section 7.1). Cores run in lockstep as one
:class:`repro.core.group.EngineGroup` (the same SPMD convention and
loop as DiAG rings); the shared L2 and DRAM path carry cross-core
contention.
"""

from repro.baseline.ooo import OoOConfig, OoOCore
from repro.core.group import EngineGroup
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.main_memory import MainMemory


def build_shared_hierarchies(config, num_cores):
    """Per-core hierarchies with private L1I/L1D over one shared L2:
    the first hierarchy's own L2 (a ``NullCache`` when the config has
    none), so :class:`MemoryHierarchy` is the one place it is built."""
    memory = MainMemory()
    hcfg = config.hierarchy_config()
    hierarchies = [MemoryHierarchy(hcfg, memory=memory)
                   for __ in range(num_cores)]
    for hier in hierarchies[1:]:
        hier.l2 = hierarchies[0].l2
        hier.l1i.lower = hier.l2
        hier.l1d.lower = hier.l2
    return hierarchies


class MulticoreCPU(EngineGroup):
    """N lockstep out-of-order cores sharing L2 and main memory."""

    def __init__(self, config, program, num_cores, thread_regs=None,
                 tracer=None):
        super().__init__(config, program,
                         build_shared_hierarchies(config, num_cores),
                         thread_regs=thread_regs, tracer=tracer)

    def _engine(self, tid, hierarchy, arch):
        return OoOCore(self.config, self.program, hierarchy=hierarchy,
                       arch=arch, core_id=tid, load_image=False)

    @property
    def cores(self):
        return self.engines


def run_multicore(program, num_cores, config=None, thread_regs=None,
                  max_cycles=None):
    """Run ``program`` SPMD-style on ``num_cores`` baseline cores."""
    cpu = MulticoreCPU(config or OoOConfig(), program, num_cores,
                       thread_regs=thread_regs)
    result = cpu.run(max_cycles=max_cycles)
    result.cpu = cpu
    return result
