"""The machine table: the one place DiAG and the OoO baseline differ.

The paper compares two machines on the same workloads (Figs. 9, 10
and 12). :data:`MACHINES` maps each name to a frozen entry holding
everything a caller would otherwise branch on; no other module tests
a machine's name, so a new machine is one entry (docs/INTERNALS.md §7).
"""

from dataclasses import asdict, dataclass
from typing import NamedTuple

from repro.baseline import BaselinePowerModel, MulticoreCPU, OoOConfig, OoOCore
from repro.core import CONFIG_PRESETS, DiAGConfig, DiAGProcessor, EnergyModel
from repro.core.ring import RingEngine


class Built(NamedTuple):
    """A machine built around one program: ``sim.run`` runs it, with
    one ring or core per thread in ``engines``."""

    sim: object
    engines: list
    memory: object
    hierarchies: list


@dataclass(frozen=True)
class Machine:
    """One table entry. Each subclass supplies its engine's
    ``config``, ``build``, ``recorder``, ``warm``, ``energy``,
    ``collect``, ``extra`` and ``run_key``."""

    name: str
    #: the config a run that names none runs on
    default_config: str
    #: the config names a run spec may give
    presets: tuple
    #: takes ``config_overrides`` / ``num_clusters`` (DiAGConfig knobs)
    overridable: bool
    #: runs ``simt_s``..``simt_e`` regions as pipelined SIMT
    simt: bool
    #: the reference machine speed-ups and energy ratios divide by
    baseline: bool
    #: the fault-injection sites (repro.faults.injector.ALL_SITES)
    sites: tuple
    #: Chrome-trace process id and per-thread track label
    pid: int
    track: str


class _DiAG(Machine):

    def config(self, config=None, overrides=None):
        """A :class:`DiAGConfig`: a Table 2 preset name (None: the
        default) or a config object, with ``overrides`` applied."""
        cfg = config if isinstance(config, DiAGConfig) \
            else CONFIG_PRESETS[config or self.default_config]
        return cfg.with_overrides(**overrides) if overrides else cfg

    def build(self, cfg, program, threads=1, tracer=None):
        proc = DiAGProcessor(cfg, program, num_threads=threads,
                             tracer=tracer)
        return Built(proc, proc.rings, proc.memory, [proc.hierarchy])

    def recorder(self, bound, line_bytes):
        """Functional warming keeps the data lines only: the ring has
        no dynamic branch predictor (backward branches are statically
        predicted taken, paper Section 4.3)."""
        from repro.sampling import LineTrace

        return LineTrace(bound, line_bytes)

    def warm(self, cfg, program, hierarchy, arch, pc, trace):
        return RingEngine(cfg, hierarchy, program, entry_pc=pc, arch=arch)

    def energy(self, cfg, result, hierarchies, threads=1):
        return EnergyModel(cfg).energy_report(result, hierarchies[0])

    def collect(self, result, hierarchies):
        from repro.obs.bridge import collect_diag

        return collect_diag(result, hierarchies)

    def extra(self, stats):
        return {"reuse_hits": stats.reuse_hits,
                "lines_fetched": stats.lines_fetched,
                "mispredicts": stats.mispredicts,
                "simt_regions": stats.simt_regions,
                "simt_threads": stats.simt_threads}

    def run_key(self, workload, config, cfg, scale, threads, simt,
                max_cycles, overrides, digest):
        """The run-store identity (CACHE_SCHEMA 3): the preset name
        plus the overrides applied to it."""
        return (self.name, workload, config, scale, threads, simt,
                max_cycles, overrides, digest)


class _OoO(Machine):

    def config(self, config=None, overrides=None):
        """An :class:`OoOConfig` as given; a name (or None) means the
        one default configuration. Knob overrides raise."""
        if overrides:
            raise ValueError("config_overrides apply to diag presets "
                             "only; pass an OoOConfig field instead")
        return config if isinstance(config, OoOConfig) else OoOConfig()

    def build(self, cfg, program, threads=1, tracer=None):
        cpu = MulticoreCPU(cfg, program, threads, tracer=tracer)
        return Built(cpu, cpu.cores, cpu.memory,
                     [core.hierarchy for core in cpu.cores])

    def recorder(self, bound, line_bytes):
        """Functional warming keeps the data lines and trains the
        gshare predictor, BTB and RAS that :meth:`warm` copies."""
        from repro.sampling import WarmTrace

        return WarmTrace(bound, line_bytes)

    def warm(self, cfg, program, hierarchy, arch, pc, trace):
        """Also copies ``trace``'s trained predictor, BTB and RAS."""
        core = OoOCore(cfg, program, hierarchy=hierarchy, arch=arch,
                       load_image=False, entry_pc=pc)
        if trace is not None:
            core.predictor = trace.predictor_copy()
            core.btb = dict(trace.btb)
            core.ras = list(trace.ras)
        return core

    def energy(self, cfg, result, hierarchies, threads=1):
        return BaselinePowerModel(cfg, num_cores=threads).energy_report(
            result, hierarchies)

    def collect(self, result, hierarchies):
        from repro.obs.bridge import collect_ooo

        return collect_ooo(result, hierarchies)

    def extra(self, stats):
        return {"mispredicts": stats.mispredicts}

    def run_key(self, workload, config, cfg, scale, threads, simt,
                max_cycles, overrides, digest):
        """The run-store identity (CACHE_SCHEMA 3): the full config
        contents, so a customized OoOConfig never aliases the
        default's slot."""
        return (self.name, workload, scale, threads, max_cycles,
                tuple(sorted(asdict(cfg).items())), digest)


#: name -> entry, in the order ``verify --machine both`` and the
#: torture matrix visit them (``repro run`` puts the baseline first)
MACHINES = {
    "diag": _DiAG(name="diag", default_config="F4C32",
                  presets=tuple(CONFIG_PRESETS), overridable=True,
                  simt=True, baseline=False,
                  sites=("pe", "lane", "cache"), pid=0, track="ring"),
    "ooo": _OoO(name="ooo", default_config=OoOConfig.name,
                presets=(OoOConfig.name,), overridable=False,
                simt=False, baseline=True,
                sites=("rob", "regfile", "cache"), pid=1, track="core"),
}


def machine(name):
    """The table entry for ``name``; ``ValueError`` for anything that
    names no machine."""
    entry = MACHINES.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValueError(f"unknown machine {name!r}")
    return entry
