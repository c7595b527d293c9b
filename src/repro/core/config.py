"""DiAG hardware configurations (paper Table 2) and model parameters."""

from dataclasses import dataclass, field, replace

from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy, MemTimings

#: bytes per RV32 instruction (no compressed extension)
INSTRUCTION_BYTES = 4


@dataclass
class DiAGConfig:
    """Parameters of a DiAG processor instance.

    The four named presets below reproduce Table 2. Fields beyond the
    table encode the microarchitectural details fixed in the paper's
    text (Sections 4-6), each annotated with its source.
    """

    name: str = "F4C32"
    isa: str = "RV32IMF"
    pes_per_cluster: int = 16       # Table 2 / Section 5.1.1
    num_clusters: int = 32          # Table 2 (per processor)
    freq_ghz: float = 2.0           # Table 2, simulation frequency
    line_bytes: int = 64            # Section 5.1.1

    # Register-lane timing (Section 6.1.2): lanes buffered every 8 PEs;
    # crossing a segment or cluster boundary costs one extra cycle.
    lane_buffer_every: int = 8
    inter_cluster_delay: int = 1

    # Control unit (Section 5.1.3): decoding takes one cycle after a
    # line is assigned; the shared 512-bit bus moves one I-line or one
    # partial register file per transaction; non-adjacent register-file
    # transports take two cycles.
    decode_latency: int = 1
    bus_occupancy: int = 1
    reuse_adjacent_delay: int = 1
    reuse_bus_delay: int = 2

    # Memory subsystem (Section 5.2)
    lsu_queue_depth: int = 8
    memory_lane_capacity: int = 16
    cluster_buffer_latency: int = 1

    # Static branch handling: backward branches whose target line is
    # resident are predicted taken (the "reused datapath" fast path,
    # Section 4.3.2); forward branches predicted not-taken. A taken
    # branch that must reload a line wastes >= 3 cycles (Section 7.3.2).
    predict_backward_taken: bool = True
    flush_penalty: int = 3

    # SIMT thread pipelining (Sections 4.4 / 5.4)
    enable_simt: bool = True
    simt_fill_cost_per_stage: int = 2
    # Pipelining only pays off when the pipeline can be replicated;
    # below this replication factor the ring's control unit keeps the
    # sequential (dataflow-overlap) execution of the loop instead.
    simt_min_copies: int = 2

    # Optional / future-work features (Sections 5.2, 7.3.2, 7.5)
    # Speculative dual-path construction (7.3.2: "penalties due to
    # unpredictable control flow changes can potentially be ameliorated
    # by simultaneously constructing multiple speculative datapaths
    # since DiAG's hardware resources are abundant but usually sparsely
    # enabled"): when a conditional branch is dispatched, the control
    # unit also loads the not-followed path's line into a free cluster
    # so a mispredict re-arms instead of refetching.
    enable_dual_path: bool = False
    enable_reuse: bool = True
    enable_memory_lanes: bool = True
    enable_prefetch: bool = False
    prefetch_degree: int = 1
    fu_share_factor: int = 1  # PEs per shared FU group (1 = dedicated)

    # Cache hierarchy (Table 2)
    l1i_size: int = 32 * 1024
    l1d_size: int = 128 * 1024
    l2_size: int = 4 * 1024 * 1024
    mem_timings: MemTimings = field(default_factory=MemTimings)

    max_cycles: int = 50_000_000
    # Liveness watchdog: raise SimulationHang after this many cycles
    # without a retirement (0 disables). See repro.core.watchdog.
    watchdog_window: int = 200_000
    # Event-driven cycle skipping: when the ring is quiescent (no state
    # change possible before a known future cycle), jump the clock there
    # and batch-account the span. Cycle-exact — stats are byte-identical
    # to ticked execution (docs/PERFORMANCE.md). Forced off per-run by
    # event tracing, fault injection, or watchdog_window == 0.
    fast_forward: bool = True

    @property
    def total_pes(self):
        return self.pes_per_cluster * self.num_clusters

    @property
    def has_fp(self):
        return "F" in self.isa.replace("RV32", "")

    def hierarchy_config(self):
        return HierarchyConfig(
            l1i_size=self.l1i_size,
            l1d_size=self.l1d_size,
            l2_size=self.l2_size,
            line_bytes=self.line_bytes,
            timings=self.mem_timings,
        )

    def check_geometry(self):
        """Raise ``ValueError`` for a geometry no run can use: a cache
        that is not a whole number of sets (building the hierarchy,
        whose caches are made on first touch, runs each cache's own
        check), or a cluster with fewer PEs than one I-cache line has
        instructions (Section 5.1.1: a cluster takes one line, 16 PEs
        for 64 B of 4 B instructions; a smaller one never finishes its
        line and hangs)."""
        MemoryHierarchy(self.hierarchy_config())
        if self.pes_per_cluster * INSTRUCTION_BYTES < self.line_bytes:
            raise ValueError(
                f"{self.pes_per_cluster} PEs per cluster cannot hold a "
                f"{self.line_bytes}B line of {INSTRUCTION_BYTES}B "
                f"instructions")

    def with_overrides(self, **kwargs):
        """A copy of this config with fields replaced."""
        return replace(self, **kwargs)


# Table 2 presets. Frequencies are the simulation frequencies; the
# synthesis frequencies (1.0 GHz / 100 MHz) only matter to the energy
# model, which works per-cycle.
I4C2 = DiAGConfig(name="I4C2", isa="RV32I", num_clusters=2, freq_ghz=0.1,
                  l1d_size=32 * 1024, l2_size=0, enable_simt=False)
F4C2 = DiAGConfig(name="F4C2", isa="RV32IMF", num_clusters=2,
                  l1d_size=64 * 1024)
F4C16 = DiAGConfig(name="F4C16", isa="RV32IMF", num_clusters=16,
                   l1d_size=128 * 1024)
F4C32 = DiAGConfig(name="F4C32", isa="RV32IMF", num_clusters=32,
                   l1d_size=128 * 1024)

CONFIG_PRESETS = {cfg.name: cfg for cfg in (I4C2, F4C2, F4C16, F4C32)}
