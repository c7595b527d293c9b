"""Deterministic single-bit transient-fault injection.

A :class:`FaultInjector` is attached to an engine (``fault_hook`` on
:class:`repro.core.ring.RingEngine` / :class:`repro.baseline.ooo.OoOCore`
and on the L1D :class:`repro.memory.cache.Cache`). Every value-producing
event is counted per *site*; when the running count at the site named by
the :class:`FaultSpec` reaches the spec's index, one bit of that value
is flipped — exactly once per run.

Sites:

========  =======  ====================================================
site      machine  what gets corrupted
========  =======  ====================================================
pe        diag     a PE's result as it lands on its output lane
lane      diag     a committed register-lane latch (architectural write)
cache     both     the memory word behind an L1D line on a demand access
rob       ooo      a ROB entry's result value at writeback
regfile   ooo      an architectural register-file write at commit
========  =======  ====================================================

Injection is purely count-based (no wall clock, no global RNG), so the
same (program, spec) pair always corrupts the same dynamic value — the
property the campaign runner's reproducibility guarantee rests on.
"""

from dataclasses import dataclass

MASK32 = 0xFFFFFFFF

#: every value site; a machine's own (the cache site is shared) are
#: the ``sites`` of its ``repro.machines.MACHINES`` entry
ALL_SITES = ("pe", "lane", "rob", "regfile", "cache")


@dataclass(frozen=True)
class FaultSpec:
    """One planned injection: flip ``bit`` of dynamic event ``index``
    at ``site``."""

    site: str
    index: int
    bit: int

    def __post_init__(self):
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if not 0 <= self.bit < 32:
            raise ValueError(f"bit {self.bit} out of range")


@dataclass
class InjectionEvent:
    """Record of the one flip an injector performed."""

    site: str
    index: int
    bit: int
    before: int
    after: int
    addr: int = None  # backing word address (cache site only)


class FaultInjector:
    """Counts dynamic events per site; flips one bit at the planned one.

    With ``spec=None`` the injector only profiles (the campaign runner's
    first pass uses this to learn each site's event population).
    ``memory`` must be set before the cache site can fire — it is the
    :class:`repro.memory.main_memory.MainMemory` holding the functional
    data the timing-only caches front.
    """

    def __init__(self, spec=None, memory=None):
        self.spec = spec
        self.memory = memory
        self.counts = {}
        #: the InjectionEvent once the flip happened (None = not yet)
        self.event = None

    def _hit(self, site):
        n = self.counts.get(site, 0)
        self.counts[site] = n + 1
        spec = self.spec
        return (spec is not None and self.event is None
                and site == spec.site and n == spec.index)

    def value(self, site, value):
        """Hook for value-producing sites; returns the (possibly
        corrupted) value."""
        if not self._hit(site) or value is None:
            return value
        flipped = (value ^ (1 << self.spec.bit)) & MASK32
        self.event = InjectionEvent(site, self.spec.index, self.spec.bit,
                                    value & MASK32, flipped)
        return flipped

    def cache_access(self, addr, is_write=False):
        """Hook for L1D demand accesses (``Cache.fault_hook``): flips a
        bit in the backing memory word so every later read of the line
        observes the corruption."""
        if not self._hit("cache") or self.memory is None:
            return
        word_addr = addr & ~0x3
        before = self.memory.read_word(word_addr)
        after = (before ^ (1 << self.spec.bit)) & MASK32
        self.memory.store(word_addr, after, 4)
        self.event = InjectionEvent("cache", self.spec.index,
                                    self.spec.bit, before, after,
                                    addr=word_addr)

    def attach(self, engine, hierarchy):
        """Wire this injector into one engine + its memory hierarchy."""
        engine.fault_hook = self
        self.memory = hierarchy.memory
        hierarchy.l1d.fault_hook = self.cache_access
