"""DiAG ring engine: co-simulation vs ISS, reuse, squash, stalls."""

import pytest

from repro.asm import assemble
from repro.core import DiAGProcessor, F4C2, F4C16, StallReason
from repro.core.pe import DisabledRun, PEState
from repro.iss import ISS


def cosim(src, config=F4C2, max_cycles=500_000):
    """Run on ISS and DiAG; assert identical registers + halt."""
    program = assemble(src)
    iss = ISS(program)
    iss.run()
    proc = DiAGProcessor(config, program)
    result = proc.run(max_cycles=max_cycles)
    assert result.halted, "DiAG did not halt"
    ring = proc.rings[0]
    assert ring.arch.x[1:] == iss.x[1:], "integer registers diverge"
    assert ring.arch.f == iss.f, "fp registers diverge"
    return proc, result, iss


class TestCosimulation:
    def test_straightline_arithmetic(self):
        cosim("""
        li t0, 10
        li t1, 3
        add t2, t0, t1
        sub t3, t0, t1
        mul t4, t0, t1
        div t5, t0, t1
        ebreak
        """)

    def test_loop(self):
        cosim("""
        li t0, 0
        li t1, 50
        loop:
            addi t0, t0, 1
            blt t0, t1, loop
        ebreak
        """)

    def test_memory_ops(self):
        cosim("""
        la s0, data
        lw t0, 0(s0)
        lw t1, 4(s0)
        add t2, t0, t1
        sw t2, 8(s0)
        lw t3, 8(s0)
        ebreak
        .data
        data: .word 11, 22, 0
        """)

    def test_store_load_forwarding_chain(self):
        proc, result, __ = cosim("""
        la s0, data
        li t0, 1
        sw t0, 0(s0)
        lw t1, 0(s0)
        addi t1, t1, 1
        sw t1, 0(s0)
        lw t2, 0(s0)
        ebreak
        .data
        data: .word 0
        """)
        assert proc.rings[0].arch.x[7] == 2
        assert result.stats.store_forwards >= 1

    def test_partial_overlap_store_load(self):
        cosim("""
        la s0, data
        li t0, 0x11223344
        sw t0, 0(s0)
        lb t1, 1(s0)
        lhu t2, 2(s0)
        ebreak
        .data
        data: .word 0
        """)

    def test_function_calls(self):
        cosim("""
        main:
            li a0, 4
            call square
            mv s1, a0
            li a0, 7
            call square
            add s1, s1, a0
            ebreak
        square:
            mul a0, a0, a0
            ret
        """)

    def test_fp_program(self):
        cosim("""
        la s0, data
        flw ft0, 0(s0)
        flw ft1, 4(s0)
        fadd.s ft2, ft0, ft1
        fmul.s ft3, ft0, ft1
        fdiv.s ft4, ft1, ft0
        fsqrt.s ft5, ft1
        fmadd.s ft6, ft0, ft1, ft2
        fcvt.w.s t0, ft6
        fsw ft6, 8(s0)
        ebreak
        .data
        data: .float 2.0, 8.0, 0.0
        """)

    def test_branch_dense_code(self):
        cosim("""
        li s0, 0
        li s1, 0
        li s2, 20
        loop:
            andi t0, s1, 1
            beqz t0, even
            addi s0, s0, 3
            j next
        even:
            addi s0, s0, 1
        next:
            addi s1, s1, 1
            blt s1, s2, loop
        ebreak
        """)

    def test_nested_loops(self):
        cosim("""
        li s0, 0
        li s1, 0
        outer:
            li s2, 0
        inner:
            add s0, s0, s2
            addi s2, s2, 1
            li t0, 5
            blt s2, t0, inner
            addi s1, s1, 1
            li t0, 4
            blt s1, t0, outer
        ebreak
        """)


class TestReuse:
    LOOP = """
    li t0, 0
    li t1, 200
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
    ebreak
    """

    def test_loop_reuses_datapath(self):
        program = assemble(self.LOOP)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        assert result.stats.reuse_hits > 100
        # instruction lines fetched stay tiny despite 200 iterations
        assert result.stats.lines_fetched < 10

    def test_reuse_disabled_refetches(self):
        program = assemble(self.LOOP)
        cfg = F4C2.with_overrides(enable_reuse=False)
        proc = DiAGProcessor(cfg, program)
        result = proc.run()
        assert result.halted
        assert result.stats.reuse_hits == 0
        assert result.stats.lines_fetched > 100

    def test_reuse_is_faster(self):
        program = assemble(self.LOOP)
        with_reuse = DiAGProcessor(F4C2, program).run()
        without = DiAGProcessor(
            F4C2.with_overrides(enable_reuse=False), program).run()
        assert with_reuse.cycles < without.cycles


class TestControlHandling:
    def test_disabled_slots_counted(self):
        # a taken forward branch leaves shadow PEs disabled
        program = assemble("""
        li t0, 1
        bnez t0, target
        addi t1, t1, 1
        addi t1, t1, 1
        target:
        ebreak
        """)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        assert result.halted
        assert proc.rings[0].arch.x[6] == 0

    def test_forward_branch_mispredict_squashes(self):
        # forward branches predict not-taken; a taken one must squash
        proc, result, __ = cosim("""
        li t0, 1
        li s0, 0
        beqz x0, skip
        addi s0, s0, 100
        skip:
        addi s0, s0, 1
        ebreak
        """)
        assert proc.rings[0].arch.x[8] == 1

    def test_indirect_jump_table(self):
        cosim("""
        la t0, handler
        jr t0
        addi s0, s0, 99
        handler:
        li s0, 5
        ebreak
        """)

    def test_mispredict_counted(self):
        # data-dependent alternating branch defeats static prediction
        program = assemble("""
        li s0, 0
        li s1, 0
        li s2, 16
        loop:
            andi t0, s1, 1
            beqz t0, even
            addi s0, s0, 2
        even:
            addi s1, s1, 1
            blt s1, s2, loop
        ebreak
        """)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        assert result.halted
        assert result.stats.mispredicts > 0
        assert result.stats.squashed > 0


class TestStallAccounting:
    def test_memory_stalls_dominate_pointer_chase(self):
        # build a worst-case chain of dependent loads
        words = ", ".join(str(4 * (i + 1)) for i in range(63)) + ", 0"
        program = assemble(f"""
        la s0, chain
        mv t0, s0
        li s1, 0
        li s2, 60
        loop:
            lw t1, 0(t0)
            add t0, s0, t1
            addi s1, s1, 1
            blt s1, s2, loop
        ebreak
        .data
        chain: .word {words}
        """)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        assert result.halted
        fractions = result.stats.stall_fractions()
        assert fractions.get(StallReason.MEMORY, 0) > 0.3

    def test_stall_fractions_sum_to_one(self):
        program = assemble("""
        li t0, 0
        li t1, 30
        loop: addi t0, t0, 1
        blt t0, t1, loop
        ebreak
        """)
        proc = DiAGProcessor(F4C2, program)
        result = proc.run()
        fractions = result.stats.stall_fractions()
        if fractions:
            assert abs(sum(fractions.values()) - 1.0) < 1e-9


class TestScaling:
    def test_more_clusters_never_slower_much(self):
        src = """
        li s0, 0
        li s1, 0
        li s2, 64
        loop:
            mul t0, s1, s1
            add s0, s0, t0
            xor t1, s0, s1
            and t2, t1, s0
            or  t3, t2, t1
            addi s1, s1, 1
            blt s1, s2, loop
        ebreak
        """
        program = assemble(src)
        small = DiAGProcessor(F4C2, program).run()
        large = DiAGProcessor(F4C16, program).run()
        assert large.cycles <= small.cycles * 1.05

    def test_ipc_reported(self):
        program = assemble("nop\nnop\nnop\nebreak\n")
        result = DiAGProcessor(F4C2, program).run()
        assert 0 < result.ipc <= 16


class TestDisabledRuns:
    """A loop that enters a line at its last PE and leaves the next
    line at PE 1: every activation carries a long run of PC-mismatch
    PEs, and those runs meet a retire budget already part spent by the
    live PEs ahead of them."""

    SOURCE = "\n".join([
        "_start:",
        "    la s0, data",
        "    li t0, 0",
        "    li t1, 48",
        "    j head",
        *["    nop"] * 10,
        "head:",                    # PE 15 of the first line
        "    addi t0, t0, 1",
        "    lw t2, 0(s0)",         # PE 0 of the next line
        "    blt t0, t1, head",     # PE 1: taken back to PE 15
        "    add t3, t2, t0",
        "    sw t3, 4(s0)",
        "    ebreak",
        "    .data",
        "data: .word 7, 0",
    ])

    #: recorded before runs of disabled PEs became one window object;
    #: the outcome must not move
    GOLDEN = {"cycles": 453, "instructions": 152,
              "stats_sha256": "787e5086af7c5f32a65a8b14fca934ea"
                              "e730713b8d13ea56e29a46fa74ba887e"}

    def test_layout(self):
        program = assemble(self.SOURCE)
        assert program.symbol("head") % F4C2.line_bytes \
            == F4C2.line_bytes - 4

    def test_outcome_matches_golden(self):
        import hashlib
        import json

        from repro.obs import deterministic_view
        from repro.obs.bridge import collect_diag

        proc, result, __ = cosim(self.SOURCE)
        assert result.stats.disabled_slots > 1000
        view = deterministic_view(
            collect_diag(result, [proc.hierarchy]).as_dict())
        digest = hashlib.sha256(
            json.dumps(view, sort_keys=True).encode()).hexdigest()
        assert {"cycles": result.cycles,
                "instructions": result.stats.retired,
                "stats_sha256": digest} == self.GOLDEN

    def test_runs_are_maximal_and_cover_every_slot(self):
        program = assemble(self.SOURCE)
        proc = DiAGProcessor(F4C2, program)
        ring = proc.rings[0]
        seen = 0
        while not ring.halted:
            ring.step()
            for activation in {id(e.activation): e.activation
                               for e in ring.window}.values():
                entries = [e for e in ring.window
                           if e.activation is activation]
                for left, right in zip(entries, entries[1:]):
                    assert not (isinstance(left, DisabledRun)
                                and isinstance(right, DisabledRun))
                    assert right.pe_index >= left.pe_index + left.count
                runs = [e for e in entries if isinstance(e, DisabledRun)]
                seen += sum(run.count == 15 for run in runs)
        assert seen, "no activation entered at its last PE"

    def test_interrupt_behind_a_disabled_head_saves_the_live_pc(self):
        """mepc is the oldest live instruction even when a partly
        retired run of disabled slots heads the window."""
        program = assemble(self.SOURCE)
        ring = DiAGProcessor(F4C2, program).rings[0]
        while ring.cycle < 286:
            ring.step()
        assert isinstance(ring.window[0], DisabledRun)
        assert ring.window[0].addr == program.entry
        ring.post_interrupt(0x4000)
        ring.step()
        assert ring.csrs[0x341] == program.symbol("head") == 0x103C

    def test_head_run_longer_than_budget_pops_in_part(self):
        ring = DiAGProcessor(F4C2, assemble("nop\nebreak\n")).rings[0]
        limit = F4C2.pes_per_cluster
        # slots 6..15 of one activation, then slots 0..11 of the next
        first = DisabledRun(100, None, 6)
        first.count = 10
        second = DisabledRun(110, None, 0)
        second.count = 12
        ring.window = [first, second]
        ring._retire()
        assert 22 - sum(e.count for e in ring.window) == limit
        assert ring.window == [second]
        assert (second.seq, second.pe_index, second.count) \
            == (110 + limit - 10, limit - 10, 22 - limit)
        assert ring.stats.retired == 0
        ring._retire()
        assert ring.window == []


def test_interrupt_in_a_flush_penalty_saves_the_redirect_pc():
    """Between a mispredict's last surviving retirement and its
    redirect the window is empty and nothing is armed: mepc is the
    redirect target, not 0."""
    program = assemble("""
        li t0, 0
        li t1, 5
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
    exit:
        addi t2, t0, 7
        ebreak
    """)
    ring = DiAGProcessor(F4C2, program).rings[0]
    while ring.window or ring._redirect_at is None:
        assert not ring.halted
        ring.step()
    ring.post_interrupt(0x4000)
    ring.step()
    assert ring.csrs[0x341] == program.symbol("exit")


class TestLiveCounts:
    """The ring keeps two counts instead of scanning for them: each
    cluster's unfinished entries (``Cluster.live``, what makes a
    cluster busy) and the executing entries the energy census charges.
    Both must equal a census of the entries after every cycle, through
    mispredict squashes of executing FP work and an interrupt."""

    SOURCE = """
        li t0, 0
        li t1, 30
        li t2, 3
        fcvt.s.w f1, t2
        fcvt.s.w f2, t1
    loop:
        fdiv.s f3, f2, f1
        fadd.s f4, f4, f3
        andi t3, t0, 1
        bnez t3, odd
        fmul.s f5, f3, f3
        fdiv.s f6, f5, f1
    odd:
        addi t0, t0, 1
        blt t0, t1, loop
        ebreak
    trap:
        ebreak
    """

    @staticmethod
    def assert_counts_match(ring):
        unfinished = (PEState.WAITING, PEState.EXECUTING)
        for group in ring.clusters.values():
            for cluster in group:
                assert cluster.live == sum(
                    e.state in unfinished for e in ring.window
                    if e.activation.cluster is cluster)
        executing = [e for e in ring.window
                     if e.state is PEState.EXECUTING]
        assert ring._executing_pes == len(executing)
        assert ring._executing_fpus == sum(
            e.facts.is_fp for e in executing)

    @pytest.mark.parametrize("interrupt_at", (None, 150))
    def test_counts_equal_a_census_every_cycle(self, interrupt_at):
        program = assemble(self.SOURCE)
        ring = DiAGProcessor(F4C2, program).rings[0]
        fp_busy = squashed = 0
        while not ring.halted:
            if ring.cycle == interrupt_at:
                ring.post_interrupt(program.symbol("trap"))
            ring.step()
            self.assert_counts_match(ring)
            fp_busy += ring._executing_fpus > 0
        assert fp_busy and ring.stats.mispredicts and ring.stats.squashed
        if interrupt_at is not None:
            assert ring.csrs[0x341] != 0

