"""Area and energy model seeded with the paper's Table 3 numbers.

The paper's methodology (Sections 6.1.3 and 7.1): per-component power
comes from 45 nm synthesis (Table 3); during simulation, component
utilization is recorded each cycle, disabled PEs/FPUs are clock-gated,
and total energy is the per-cycle census of active components times
their per-cycle energy, plus always-on power for register lanes
(including integer ALUs), memory, and control. We reproduce exactly
that accounting; the per-component constants below are Table 3 values
converted to energy-per-cycle at the 1 GHz synthesis frequency.
"""

from dataclasses import dataclass, field

# ---- Table 3 constants (45 nm synthesis) -------------------------------
# Areas in um^2, power in mW at 1.0 GHz.
PE_AREA_UM2 = 97_014.0
PE_POWER_MW = 120.4
REGLANE_AREA_UM2 = 15_731.0
REGLANE_POWER_MW = 3.063
INT_ALU_AREA_UM2 = 1_375.4
INT_ALU_POWER_MW = 0.774
FPU_AREA_UM2 = 66_592.0
FPU_POWER_MW = 105.2
DECODER_AREA_UM2 = 244.6
DECODER_POWER_MW = 0.019
PCLUSTER_AREA_MM2 = 2.208
PCLUSTER_POWER_W = 2.104
F4C32_TOP_AREA_MM2 = 93.07
F4C32_TOP_POWER_W = 74.30

_SYNTH_FREQ_HZ = 1.0e9
_MW_TO_PJ_PER_CYCLE = 1.0e-3 / _SYNTH_FREQ_HZ * 1.0e12  # mW -> pJ/cycle

# Derived per-cycle energies (pJ)
E_FPU_ACTIVE = FPU_POWER_MW * _MW_TO_PJ_PER_CYCLE
E_PE_NONFP_ACTIVE = (PE_POWER_MW - FPU_POWER_MW) * _MW_TO_PJ_PER_CYCLE
E_LANE_PER_PE = (REGLANE_POWER_MW + INT_ALU_POWER_MW) * _MW_TO_PJ_PER_CYCLE
FPU_LEAKAGE_FRACTION = 0.005  # clock-gated FPUs leak very little

# CACTI-style cache access energies (pJ) and static power (mW). The
# paper models caches with CACTI-P (Section 6.1) but does not publish
# the numbers; these are representative 45 nm values.
E_L1_ACCESS = 60.0
E_L2_ACCESS = 350.0
E_DRAM_ACCESS = 2_000.0
E_MEMLANE_ACCESS = 18.0   # per load/store through memory lanes + LSU
# Static power of the memory system (L1 banks + the 4 MB L2 dominate;
# CACTI-P 45 nm class). Shared with the baseline model for fairness.
MEM_STATIC_MW = 450.0

# Control: ring control unit + scheduling table + shared bus.
CONTROL_STATIC_MW_PER_RING = 25.0
E_LINE_FETCH = 45.0       # pJ per I-line load into a cluster
E_BUS_TRANSACTION = 22.0  # pJ per 512-bit bus transfer


@dataclass
class AreaReport:
    """Hierarchical area breakdown reproducing Table 3's area column."""

    config_name: str
    pe_um2: float
    reglane_um2: float
    int_alu_um2: float
    fpu_um2: float
    decoder_um2: float
    cluster_mm2: float
    top_mm2: float

    def rows(self):
        """(component, value-with-unit) rows in Table 3 order."""
        return [
            (f"{self.config_name} (TOP)", f"{self.top_mm2:.2f} mm^2"),
            ("PCLUSTER", f"{self.cluster_mm2:.3f} mm^2"),
            ("PE (w/ FPU)", f"{self.pe_um2:.0f} um^2"),
            ("REGLANE", f"{self.reglane_um2:.0f} um^2"),
            ("INT ALU", f"{self.int_alu_um2:.1f} um^2"),
            ("FPU (MUL / DIV)", f"{self.fpu_um2:.0f} um^2"),
            ("RV_DECODER", f"{self.decoder_um2:.1f} um^2"),
        ]


@dataclass
class EnergyReport:
    """Energy (joules) by component category (paper Figure 11)."""

    cycles: int
    fpu_j: float = 0.0
    lanes_j: float = 0.0   # register lanes + integer ALUs
    memory_j: float = 0.0  # LSUs + caches + DRAM
    control_j: float = 0.0

    @property
    def total_j(self):
        return self.fpu_j + self.lanes_j + self.memory_j + self.control_j

    def breakdown(self):
        """{category: fraction of total energy} (Figure 11 bars)."""
        total = self.total_j
        if total <= 0:
            return {}
        return {
            "fp_units": self.fpu_j / total,
            "register_lanes": self.lanes_j / total,
            "memory": self.memory_j / total,
            "control": self.control_j / total,
        }

    @property
    def efficiency(self):
        """Energy efficiency = inverse of total energy (Section 7.4)."""
        return 1.0 / self.total_j if self.total_j > 0 else 0.0


class EnergyModel:
    """Area and energy accounting for one DiAG configuration."""

    def __init__(self, config):
        self.config = config

    # --------------------------------------------------------------- area

    def area_report(self):
        """Compose the hierarchy bottom-up like the synthesis report.

        A cluster is 16 PEs + 16 lane segments plus LSU/control
        overhead; the top level adds the ring control units, the shared
        bus, and inter-cluster buffering (the paper marks both the
        cluster and TOP rows as partly estimated).
        """
        cfg = self.config
        per_pe = PE_AREA_UM2 + REGLANE_AREA_UM2
        cluster_overhead_mm2 = PCLUSTER_AREA_MM2 \
            - 16 * per_pe / 1e6  # LSU + memory lanes + cluster control
        cluster_mm2 = (cfg.pes_per_cluster * per_pe / 1e6
                       + cluster_overhead_mm2 * cfg.pes_per_cluster / 16)
        uncore_mm2 = F4C32_TOP_AREA_MM2 - 32 * PCLUSTER_AREA_MM2
        top_mm2 = (cfg.num_clusters * cluster_mm2
                   + uncore_mm2 * cfg.num_clusters / 32)
        if not cfg.has_fp:
            fp_share = FPU_AREA_UM2 / 1e6 * cfg.pes_per_cluster
            cluster_mm2 -= fp_share
            top_mm2 -= fp_share * cfg.num_clusters
        return AreaReport(
            config_name=cfg.name,
            pe_um2=PE_AREA_UM2 if cfg.has_fp
            else PE_AREA_UM2 - FPU_AREA_UM2,
            reglane_um2=REGLANE_AREA_UM2,
            int_alu_um2=INT_ALU_AREA_UM2,
            fpu_um2=FPU_AREA_UM2 if cfg.has_fp else 0.0,
            decoder_um2=DECODER_AREA_UM2,
            cluster_mm2=cluster_mm2,
            top_mm2=top_mm2,
        )

    def area_64bit_estimate(self, multiplexed=True):
        """Area projection for a 64-bit ISA port (paper Section 6.1.1).

        "Direct scaling to 64 register lanes would notably increase
        hardware area. However ... a cluster with 16 instructions can
        at most access 32 different registers. Hence, the original 32
        register lane design can still be used with some
        modifications." Returns a dict with the naive and multiplexed
        cluster-area estimates (mm^2).

        Naive: 64 lanes x 64-bit  -> 4x the lane area per PE.
        Multiplexed: 32 lanes x 64-bit (2x lane area) + a per-cluster
        operand-mux/rename table (~one decoder-class structure per PE).
        """
        cfg = self.config
        base = self.area_report().cluster_mm2
        lane_mm2 = cfg.pes_per_cluster * REGLANE_AREA_UM2 / 1e6
        naive = base + 3 * lane_mm2              # 4x lanes total
        mux_overhead = cfg.pes_per_cluster * 40 * DECODER_AREA_UM2 / 1e6
        multiplexed_mm2 = base + lane_mm2 + mux_overhead  # 2x lanes
        chosen = multiplexed_mm2 if multiplexed else naive
        return {
            "cluster_32bit_mm2": base,
            "cluster_64bit_naive_mm2": naive,
            "cluster_64bit_multiplexed_mm2": multiplexed_mm2,
            "cluster_64bit_mm2": chosen,
            "processor_64bit_mm2": chosen * cfg.num_clusters
            + (F4C32_TOP_AREA_MM2 - 32 * PCLUSTER_AREA_MM2)
            * cfg.num_clusters / 32,
        }

    def peak_power_w(self):
        """All-PEs-on power (the Table 3 'assumes all PEs powered')."""
        scale = (self.config.num_clusters * self.config.pes_per_cluster) \
            / (32 * 16)
        return F4C32_TOP_POWER_W * scale

    # ------------------------------------------------------------- energy

    def energy_report(self, result, hierarchy):
        """Energy for a finished DiAG run (a
        :class:`repro.core.group.RunResult`)."""
        stats = result.stats
        cycles = max(1, result.cycles)
        freq = self.config.freq_ghz * 1e9
        pj = 1e-12
        sec = cycles / freq

        report = EnergyReport(cycles=cycles)

        # FP units: dynamic when active, leakage otherwise (7.3.1).
        total_fpu_sites = stats.resident_cluster_cycles \
            * self.config.pes_per_cluster
        if self.config.has_fp:
            report.fpu_j = stats.fpu_active_cycles * E_FPU_ACTIVE * pj
            idle_fpu_cycles = max(0, total_fpu_sites
                                  - stats.fpu_active_cycles)
            report.fpu_j += (idle_fpu_cycles * E_FPU_ACTIVE
                             * FPU_LEAKAGE_FRACTION * pj)

        # Register lanes + integer ALUs: always powered while the
        # cluster is resident; plus PE non-FP dynamic energy.
        report.lanes_j = (total_fpu_sites * E_LANE_PER_PE * pj
                          + stats.pe_active_cycles
                          * E_PE_NONFP_ACTIVE * pj)

        # Memory: per-access + static.
        l1 = hierarchy.l1d.stats
        l2 = hierarchy.l2.stats
        l1i = hierarchy.l1i.stats
        accesses_j = ((l1.accesses + l1i.accesses) * E_L1_ACCESS
                      + l2.accesses * E_L2_ACCESS
                      + l2.misses * E_DRAM_ACCESS
                      + (stats.loads + stats.stores)
                      * E_MEMLANE_ACCESS) * pj
        report.memory_j = accesses_j + MEM_STATIC_MW * 1e-3 * sec

        # Control: ring control units + line fetches + bus traffic.
        rings = max(1, len(result.thread_stats))
        report.control_j = (CONTROL_STATIC_MW_PER_RING * 1e-3 * rings * sec
                            + stats.lines_fetched
                            * (E_LINE_FETCH + E_BUS_TRANSACTION) * pj)
        return report
