"""Text pipeline viewer: the per-PE lifetime chart of a DiAG ring.

A debugging/teaching aid in the spirit of gem5's pipeview. It renders
the :class:`repro.obs.EventTracer` stream a ring emits as one lifetime
per PE entry (paper Section 5.1, Figure 6):

    from repro.harness.pipeview import PipeTracer
    tracer = PipeTracer.attach(processor.rings[0])
    processor.run()
    print(tracer.render(limit=40))

Legend: ``.`` waiting on lanes, ``=`` executing, ``-`` done (waiting
to retire), ``R`` retired, ``x`` squashed, ``d`` disabled slot.

The lives are a fold over the ring's ``dispatch``, ``execute``,
``retire`` and ``squash`` events by ``seq`` (docs/OBSERVABILITY.md §2),
one per slot of a disabled run, so their final states count exactly
the ring's ``retired``, ``squashed`` and ``disabled_slots``.
"""

import weakref
from dataclasses import dataclass

from repro.obs import EventTracer

#: ring -> its attached PipeTracer, so a re-attach replaces it
_ATTACHED = weakref.WeakKeyDictionary()


@dataclass
class _Life:
    seq: int
    label: str
    dispatch: int
    start: int = None
    done: int = None
    retire: int = None
    final_state: str = "waiting"


class PipeTracer:
    """The lives of one ring's entries in ``tracer`` (pid 0, tid
    ``ring_id``); ``max_entries`` caps the lives kept, lowest ``seq``
    first."""

    def __init__(self, ring, tracer=None, max_entries=2000):
        self.ring, self.tracer, self.max_entries = ring, tracer, max_entries
        self._previous = None
        self._start, self._stop = 0, None  # emission indices viewed

    @classmethod
    def attach(cls, ring, max_entries=2000):
        """Set ``ring.tracer``, reusing an event tracer already there,
        and view what it records from now on. Re-attaching detaches
        the ring's previous PipeTracer."""
        if ring in _ATTACHED:
            _ATTACHED[ring].detach()
        tracer = ring.tracer  # an empty EventTracer is falsy
        view = cls(ring, EventTracer() if tracer is None else tracer,
                   max_entries)
        view._previous, view._start = tracer, view.tracer.emitted
        ring.tracer = view.tracer
        _ATTACHED[ring] = view
        return view

    def detach(self):
        """Restore the ring's previous tracer and view no later event;
        detaching twice is harmless."""
        if _ATTACHED.get(self.ring) is self:
            del _ATTACHED[self.ring]
            self.ring.tracer = self._previous
            self._stop = self.tracer.emitted

    #: ``{seq: life}`` of the lives kept
    lives = property(lambda self: self._fold()[0])
    #: lives NOT kept because ``max_entries`` was reached — rendered
    #: as an explicit marker, never silently swallowed
    dropped = property(lambda self: self._fold()[1])

    def _fold(self):
        """``(lives, dropped, lost)``; ``lost`` counts viewed events the
        tracer's own buffer dropped, whose lives are missing."""
        lives, in_flight, dropped = {}, {}, 0
        if self.tracer is None:
            return lives, dropped, 0
        events = self.tracer.events()
        first = self.tracer.emitted - len(events)  # emission index of [0]
        stop = self.tracer.emitted if self._stop is None else self._stop
        for event in events[max(0, self._start - first):
                            max(0, stop - first)]:
            if event["pid"] != 0 or event["tid"] != self.ring.ring_id:
                continue
            cat, ts, args = event.get("cat"), event["ts"], event.get("args")
            if cat == "dispatch":
                seq, pc, count = args["seq"], args["pc"], args.get("count")
                for k in range(count or 1):
                    if len(lives) >= self.max_entries:
                        dropped += 1
                        continue
                    op = args.get("op")
                    if op is None:  # a disabled slot: read the program
                        instr = self.ring.program.instruction_at(pc + 4 * k)
                        op = instr.mnemonic if instr is not None else "??"
                    life = _Life(seq + k, f"{pc + 4 * k:#06x} {op}", ts)
                    if count is not None:
                        life.final_state = "disabled"
                    lives[life.seq] = in_flight[life.seq] = life
            elif cat == "execute" and args["seq"] in in_flight:
                life = in_flight[args["seq"]]
                life.start, life.done = ts, ts + event["dur"]
                life.final_state = "executing"
            elif cat in ("retire", "squash"):
                seq = args["seq"]
                ended = range(seq, seq + args.get("count", 1)) \
                    if cat == "retire" else [s for s in in_flight if s >= seq]
                for life in (in_flight.pop(s, None) for s in ended):
                    if life is None:
                        continue
                    life.retire = ts
                    if life.done is not None and life.done > ts:
                        life.done = ts  # squashed mid-execution
                    if life.final_state != "disabled":
                        life.final_state = "retired" if cat == "retire" \
                            else "squashed"
        return lives, dropped, max(0, min(first, stop) - self._start)

    def render(self, limit=40, width=80):
        """An ASCII chart of the first ``limit`` instruction lifetimes."""
        all_lives, dropped, lost = self._fold()
        markers = []
        if dropped:
            markers.append(f"... {dropped} entries dropped "
                           f"(buffer holds {self.max_entries})")
        if lost:
            markers.append(f"... {lost} events dropped by the event "
                           f"tracer (it holds {self.tracer.max_events})")
        lives = sorted(all_lives.values(), key=lambda l: l.seq)[:limit]
        if not lives:
            return "\n".join(markers) or "(no instructions traced)"
        t0 = min(l.dispatch for l in lives)
        t1 = max((l.retire or l.dispatch) for l in lives)
        scale = min(1.0, (width - 28) / max(1, t1 - t0))
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
            if life.final_state == "retired":
                row[min(len(row) - 1, int((life.retire - t0) * scale))] = "R"
            elif life.final_state == "squashed":
                row = [c if c == " " else "x" for c in row]
            elif life.final_state == "disabled":
                row = ["d" if c != " " else c for c in row]
            lines.append(f"{life.label:24s} |{''.join(row)}|")
        return "\n".join(lines + markers)
