"""Text pipeline viewer: per-cycle PE occupancy of a DiAG ring.

A debugging/teaching aid in the spirit of gem5's pipeview: attach a
:class:`PipeTracer` to a ring, run, and render a per-instruction
lifetime chart (dispatch -> waiting -> executing -> done -> retired).

    from repro.harness.pipeview import PipeTracer
    tracer = PipeTracer.attach(processor.rings[0])
    processor.run()
    print(tracer.render(limit=40))

Legend: ``.`` waiting on lanes, ``=`` executing, ``-`` done (waiting
to retire), ``R`` retired, ``x`` squashed, ``d`` disabled slot.

The ring keeps a run of disabled PEs as one window object
(:class:`repro.core.pe.DisabledRun`); the tracer expands it into one
life per PE slot, each labelled from its cluster's decoded line.
"""

from dataclasses import dataclass, field

from repro.core.pe import DisabledRun, PEState


def _slots(window):
    """(seq, addr, instr, entry) for every PE slot in a ring window."""
    for entry in window:
        if not isinstance(entry, DisabledRun):
            yield entry.seq, entry.addr, entry.instr, entry
            continue
        plan = entry.activation.cluster.plan
        for k in range(entry.count):
            addr, instr = plan[entry.pe_index + k][:2]
            yield entry.seq + k, addr, instr, entry


@dataclass
class _Life:
    seq: int
    label: str
    dispatch: int
    start: int = None
    done: int = None
    retire: int = None
    final_state: str = ""


@dataclass
class PipeTracer:
    """Records PE-entry lifetimes by sampling a ring each cycle."""

    ring: object
    lives: dict = field(default_factory=dict)
    max_entries: int = 2000
    #: instructions NOT recorded because the buffer was full — rendered
    #: as an explicit marker, never silently swallowed
    dropped: int = 0
    _dropped_seqs: set = field(default_factory=set)

    @classmethod
    def attach(cls, ring, max_entries=2000):
        """Wrap ``ring.step`` to sample entry states each cycle.

        Re-attaching to an already-traced ring first detaches the
        previous tracer, so repeated ``attach`` calls never stack
        wrappers (each stacked wrapper would re-sample the same cycle).
        """
        previous = getattr(ring, "_pipetracer", None)
        if previous is not None:
            previous.detach()
        tracer = cls(ring=ring, max_entries=max_entries)
        tracer._original_step = ring.step

        def traced_step():
            tracer._original_step()
            tracer.sample()

        ring.step = traced_step
        ring._pipetracer = tracer
        return tracer

    def detach(self):
        """Restore the ring's unwrapped ``step``; sampling stops."""
        original = getattr(self, "_original_step", None)
        if original is not None and \
                getattr(self.ring, "_pipetracer", None) is self:
            self.ring.step = original
            self.ring._pipetracer = None
        self._original_step = None

    def _drop(self, seq):
        # sample() revisits live entries every cycle, so count each
        # overflowing instruction once, not once per cycle it lingers
        if seq not in self._dropped_seqs:
            self._dropped_seqs.add(seq)
            self.dropped += 1

    def sample(self):
        ring = self.ring
        cycle = ring.cycle
        slots = list(_slots(ring.window))
        for seq, addr, instr, entry in slots:
            life = self.lives.get(seq)
            if life is None:
                if len(self.lives) >= self.max_entries:
                    self._drop(seq)
                    continue
                life = _Life(seq=seq,
                             label=f"{addr:#06x} "
                                   f"{instr.mnemonic if instr else '??'}",
                             dispatch=cycle)
                self.lives[seq] = life
            state = entry.state
            if state is PEState.EXECUTING and life.start is None:
                life.start = entry.start_cycle
            if state is PEState.DONE and life.done is None:
                life.done = entry.done_cycle
            life.final_state = state.value
        # retirement is observed by disappearance from the window
        present = {slot[0] for slot in slots}
        for seq, life in self.lives.items():
            if life.retire is None and seq not in present \
                    and life.dispatch < cycle:
                life.retire = cycle
                if life.final_state not in ("squashed", "disabled"):
                    life.final_state = "retired"

    def render(self, limit=40, width=80):
        """An ASCII chart of the first ``limit`` instruction lifetimes."""
        lives = sorted(self.lives.values(), key=lambda l: l.seq)[:limit]
        if not lives:
            if self.dropped:
                return f"... {self.dropped} entries dropped"
            return "(no instructions traced)"
        t0 = min(l.dispatch for l in lives)
        t1 = max((l.retire or l.dispatch) for l in lives)
        span = max(1, t1 - t0)
        scale = min(1.0, (width - 28) / span)
        lines = [f"cycles {t0}..{t1} "
                 f"(1 column ~ {max(1, round(1 / scale))} cycles)"]
        for life in lives:
            row = [" "] * (width - 28)

            def mark(begin, end, char):
                if begin is None:
                    return
                stop = end if end is not None else t1
                a = int((begin - t0) * scale)
                b = max(a + 1, int((stop - t0) * scale))
                for i in range(a, min(b, len(row))):
                    row[i] = char

            mark(life.dispatch, life.start or life.done or life.retire,
                 ".")
            mark(life.start, life.done, "=")
            mark(life.done, life.retire, "-")
            if life.final_state == "retired" and life.retire is not None:
                index = min(len(row) - 1,
                            int((life.retire - t0) * scale))
                row[index] = "R"
            elif life.final_state == "squashed":
                row = [c if c == " " else "x" for c in row]
            elif life.final_state == "disabled":
                row = ["d" if c != " " else c for c in row]
            lines.append(f"{life.label:24s} |{''.join(row)}|")
        if self.dropped:
            lines.append(f"... {self.dropped} entries dropped "
                         f"(buffer holds {self.max_entries})")
        return "\n".join(lines)
