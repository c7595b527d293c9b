"""Pipeline viewer + 64-bit area projection (paper Section 6.1.1)."""

import pytest

from repro.asm import assemble
from repro.core import DiAGProcessor, EnergyModel, F4C2, F4C32
from repro.harness.pipeview import PipeTracer
from repro.obs import EventTracer


class TestPipeTracer:
    def _traced_run(self, src):
        program = assemble(src)
        proc = DiAGProcessor(F4C2, program)
        tracer = PipeTracer.attach(proc.rings[0])
        result = proc.run()
        assert result.halted
        return tracer

    def test_records_lifetimes(self):
        tracer = self._traced_run("""
        li t0, 1
        li t1, 2
        add t2, t0, t1
        mul t3, t2, t2
        ebreak
        """)
        assert len(tracer.lives) >= 5
        lives = sorted(tracer.lives.values(), key=lambda l: l.seq)
        add = next(l for l in lives if "add" in l.label)
        assert add.dispatch >= 0
        assert add.final_state == "retired"

    def test_render_contains_marks(self):
        tracer = self._traced_run("""
        li t0, 0
        li t1, 8
        loop:
        addi t0, t0, 1
        blt t0, t1, loop
        ebreak
        """)
        chart = tracer.render(limit=20)
        assert "cycles" in chart
        assert "addi" in chart
        assert "R" in chart  # at least one retirement marked

    def test_render_empty(self):
        program = assemble("ebreak\n")
        proc = DiAGProcessor(F4C2, program)
        tracer = PipeTracer(ring=proc.rings[0])
        assert "no instructions" in tracer.render()

    def test_squash_rendered(self):
        # forward taken branch leaves squashed/disabled shadows
        tracer = self._traced_run("""
        li t0, 1
        bnez t0, over
        addi t1, t1, 1
        addi t1, t1, 2
        over:
        ebreak
        """)
        chart = tracer.render(limit=30)
        assert "x" in chart or "d" in chart

    def test_limit_respected(self):
        tracer = self._traced_run("""
        li t0, 0
        li t1, 64
        loop:
        addi t0, t0, 1
        blt t0, t1, loop
        ebreak
        """)
        chart = tracer.render(limit=5)
        # header + at most 5 rows
        assert len(chart.splitlines()) <= 6

    LOOP_SRC = """
    li t0, 0
    li t1, 64
    loop:
    addi t0, t0, 1
    blt t0, t1, loop
    ebreak
    """

    def test_overflow_renders_dropped_marker(self):
        program = assemble(self.LOOP_SRC)
        proc = DiAGProcessor(F4C2, program)
        tracer = PipeTracer.attach(proc.rings[0], max_entries=4)
        assert proc.run().halted
        assert len(tracer.lives) == 4
        assert tracer.dropped > 0
        assert f"... {tracer.dropped} entries dropped" \
            in tracer.render()

    def test_dropped_counts_each_entry_once(self):
        program = assemble(self.LOOP_SRC)
        proc = DiAGProcessor(F4C2, program)
        tracer = PipeTracer.attach(proc.rings[0], max_entries=1)
        assert proc.run().halted
        # each untraced entry counts once, however often the chart is
        # read: re-reading must not inflate it
        before = tracer.dropped
        assert tracer.dropped == before
        tracer.render()
        tracer.render()
        assert tracer.dropped == before

    def test_no_marker_without_drops(self):
        tracer = self._traced_run("""
        li t0, 1
        ebreak
        """)
        assert tracer.dropped == 0
        assert "dropped" not in tracer.render()

    def test_reattach_replaces_instead_of_stacking(self):
        program = assemble(self.LOOP_SRC)
        proc = DiAGProcessor(F4C2, program)
        ring = proc.rings[0]
        own = EventTracer()
        ring.tracer = own
        first = PipeTracer.attach(ring)
        second = PipeTracer.attach(ring)
        assert ring.tracer is own  # both views reuse the ring's tracer
        assert proc.run().halted
        # the replaced tracer stopped recording; the live one records
        assert not first.lives
        assert len(second.lives) >= 5
        second.detach()
        assert ring.tracer is own
        # with no tracer on the ring, detach puts None back
        third = PipeTracer.attach(ring)
        third.detach()
        assert ring.tracer is own
        ring.tracer = None
        fourth = PipeTracer.attach(ring)
        assert ring.tracer is fourth.tracer
        fourth.detach()
        assert ring.tracer is None

    def test_detach_stops_sampling(self):
        program = assemble(self.LOOP_SRC)
        proc = DiAGProcessor(F4C2, program)
        tracer = PipeTracer.attach(proc.rings[0])
        tracer.detach()
        assert proc.run().halted
        assert not tracer.lives
        # double-detach is harmless
        tracer.detach()


class TestChartIsExact:
    """Every state change is an event, so the chart's lives count what
    the ring's stats count (paper Section 5.1, Figure 6)."""

    # even iterations skip the middle addi: mispredicts squash lives
    SKIP_LOOP = """
    li t0, 0
    li t1, 40
    loop:
    andi t2, t0, 1
    beqz t2, skip
    addi t3, t3, 1
    skip:
    addi t0, t0, 1
    blt t0, t1, loop
    ebreak
    """

    TRAP_LOOP = """
    li t0, 0
    li t1, 1000
    loop:
    addi t0, t0, 1
    andi t2, t0, 1
    beqz t2, skip
    addi t3, t3, 1
    skip:
    blt t0, t1, loop
    ebreak
    trap:
    addi t4, t4, 1
    ebreak
    """

    @staticmethod
    def final_states(tracer):
        counts = {"retired": 0, "squashed": 0, "disabled": 0}
        for life in tracer.lives.values():
            counts[life.final_state] = counts.get(life.final_state, 0) + 1
        return counts

    def check_exact(self, ring, tracer):
        assert tracer.dropped == 0
        stats = ring.stats
        counts = self.final_states(tracer)
        assert counts["retired"] == stats.retired
        assert counts["squashed"] == stats.squashed
        assert counts["disabled"] == stats.disabled_slots
        for life in tracer.lives.values():
            if life.start is not None:
                assert life.done is not None, life
                assert life.dispatch <= life.start <= life.done, life
            if life.retire is not None:
                assert (life.done or life.dispatch) <= life.retire, life

    def test_mispredicting_loop(self):
        proc = DiAGProcessor(F4C2, assemble(self.SKIP_LOOP))
        ring = proc.rings[0]
        tracer = PipeTracer.attach(ring, max_entries=100_000)
        assert proc.run().halted
        assert ring.stats.squashed > 0 and ring.stats.disabled_slots > 0
        self.check_exact(ring, tracer)
        assert "x" in tracer.render()

    def test_interrupt_mid_window(self):
        program = assemble(self.TRAP_LOOP)
        proc = DiAGProcessor(F4C2, program)
        ring = proc.rings[0]
        tracer = PipeTracer.attach(ring, max_entries=100_000)
        for __ in range(150):
            ring.step()
        live = sum(1 for e in ring.window
                   if e.state.value in ("waiting", "executing", "done"))
        assert live, "expected live entries in flight"
        squashed = ring.stats.squashed
        ring.post_interrupt(program.symbol("trap"))
        assert proc.run().halted
        assert ring.stats.squashed >= squashed + live
        self.check_exact(ring, tracer)

    def test_straight_line_lives_all_complete(self):
        proc = DiAGProcessor(F4C2, assemble("""
        li t0, 1
        li t1, 2
        add t2, t0, t1
        mul t3, t2, t2
        ebreak
        """))
        tracer = PipeTracer.attach(proc.rings[0])
        assert proc.run().halted
        retired = [l for l in tracer.lives.values()
                   if l.final_state == "retired"]
        assert len(retired) == 5
        assert all(l.done is not None for l in retired)

    def test_event_buffer_drops_are_marked(self):
        program = assemble(TestPipeTracer.LOOP_SRC)
        proc = DiAGProcessor(F4C2, program)
        ring = proc.rings[0]
        ring.tracer = EventTracer(max_events=50)
        tracer = PipeTracer.attach(ring)
        assert proc.run().halted
        lost = ring.tracer.dropped
        assert lost > 0
        assert f"... {lost} events dropped by the event tracer" \
            in tracer.render()


class TestArea64Bit:
    def test_naive_scaling_is_expensive(self):
        est = EnergyModel(F4C32).area_64bit_estimate()
        assert est["cluster_64bit_naive_mm2"] \
            > est["cluster_64bit_multiplexed_mm2"] \
            > est["cluster_32bit_mm2"]

    def test_multiplexed_saves_most_of_the_growth(self):
        est = EnergyModel(F4C32).area_64bit_estimate()
        naive_growth = est["cluster_64bit_naive_mm2"] \
            - est["cluster_32bit_mm2"]
        mux_growth = est["cluster_64bit_multiplexed_mm2"] \
            - est["cluster_32bit_mm2"]
        assert mux_growth < 0.6 * naive_growth

    def test_processor_total_scales(self):
        est = EnergyModel(F4C32).area_64bit_estimate()
        assert est["processor_64bit_mm2"] > 93.07  # bigger than 32-bit
        assert est["processor_64bit_mm2"] < 2 * 93.07

    def test_flag_selects_variant(self):
        model = EnergyModel(F4C32)
        assert model.area_64bit_estimate(multiplexed=False)[
            "cluster_64bit_mm2"] == pytest.approx(
            model.area_64bit_estimate()["cluster_64bit_naive_mm2"])
