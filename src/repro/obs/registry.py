"""Hierarchical counter/metrics registry (the gem5 ``stats`` analogue).

Every simulator component registers its counters here under a dotted
naming scheme (``diag.ring0.stall.memory``, ``ooo.rob.occupancy_avg``,
``mem.l1d.misses``) so one run produces *one* machine-readable stats
document regardless of which engine executed it. Three stat kinds:

* :class:`Counter` — monotonically increasing event count
* :class:`Gauge`   — a point-in-time scalar (IPC, miss rate, seconds)
* :class:`Histogram` — a distribution (count/sum/min/max/mean plus
  fixed-bucket p50/p95/p99 quantile estimates)

The registry dumps as a flat ``{name: value}`` dict (histograms expand
to ``name.count`` / ``name.mean`` / ``name.p50`` / ...), as JSON, as
OpenMetrics/Prometheus exposition text (:meth:`to_openmetrics`), or as
gem5-style ``stats.txt`` text (``name  value  # description``). Both
engines must
emit the *shared core namespace* — ``core.*`` and ``mem.*`` — with
identical names; engine-specific detail lives under ``diag.*`` /
``ooo.*`` / ``iss.*`` / ``sim.*``. See docs/OBSERVABILITY.md.

Registries and their flat dumps are *mergeable*: pool workers each
return a full stats document, and :func:`merge_flat` folds any number
of them into one aggregate deterministically (counters sum, min/max
combine, derived ratios recompute from the merged totals), so a sweep
reports bit-identical numbers whether its runs executed serially or
across processes. :func:`deterministic_view` strips the wall-clock
(``host.*`` / ``sim.host.*``) gauges that legitimately differ between
hosts — it is the byte-comparable projection of a stats document; see
docs/PARALLEL.md for the contract.
"""

import json
import re
from bisect import bisect_left

#: stats that legitimately differ run-to-run — wall-clock
#: self-profiling, plus the harness resilience counters (retries,
#: requeues, checkpoint I/O; see repro.obs.resilience) whose values
#: depend on host behaviour, not on what the simulation computed —
#: and are therefore excluded from byte-identity comparisons
HOST_STAT_PREFIXES = ("host.", "sim.host.", "iss.host.", "harness.",
                      "ckpt.")

#: the HTTP ``Content-Type`` of an OpenMetrics text exposition
#: (:meth:`StatsRegistry.to_openmetrics`, :func:`openmetrics_flat`)
OPENMETRICS_CONTENT_TYPE = ("application/openmetrics-text; "
                            "version=1.0.0; charset=utf-8")

#: flat stats merged by min()/max() rather than summed
_MIN_STATS = frozenset(("sim.halted",))
_MAX_STATS = frozenset(("sim.timed_out",))

#: gauges merged as a core.cycles-weighted mean of the input documents
_CYCLE_WEIGHTED = frozenset(("ooo.rob.occupancy_avg",))

#: quantile legs histograms expand into flat dumps (suffix, q)
_QUANTILES = ((".p50", 0.50), (".p95", 0.95), (".p99", 0.99))
_QUANTILE_SUFFIXES = tuple(suffix for suffix, __ in _QUANTILES)


def _bucket_bounds():
    """Fixed 1-2-5 log-decade upper bounds, 1e-6 .. 5e9 plus 0/+inf.

    The grid is shared by every histogram so bucket tallies from any
    two documents line up leg-for-leg — that is what makes quantile
    estimates survive :func:`merge_flat` exactly (buckets sum, then
    quantiles recompute from the merged tallies, which is the same
    arithmetic a single combined histogram would have done)."""
    bounds = [0.0]
    for exponent in range(-6, 10):
        for mantissa in (1.0, 2.0, 5.0):
            bounds.append(mantissa * 10.0 ** exponent)
    bounds.append(float("inf"))
    return tuple(bounds)


BUCKET_BOUNDS = _bucket_bounds()


def _format_bound(bound):
    """Deterministic flat-dump rendering of a bucket upper bound."""
    if bound == float("inf"):
        return "inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _bucket_quantile(pairs, count, q, lo, hi):
    """Estimate quantile ``q`` from sorted ``(bound, tally)`` pairs.

    Returns the upper bound of the bucket holding the q-th sample,
    clamped to the exact observed [lo, hi] range (so single-sample and
    degenerate distributions report exact values, and the +inf bucket
    never leaks into the estimate)."""
    if not count:
        return 0.0
    target = q * count
    cumulative = 0
    value = hi
    for bound, tally in pairs:
        cumulative += tally
        if cumulative >= target:
            value = bound
            break
    return float(min(hi, max(lo, value)))


class Stat:
    """Base class: a named, described statistic."""

    __slots__ = ("name", "desc")

    def __init__(self, name, desc=""):
        self.name = name
        self.desc = desc

    def value_dict(self):
        """{suffix: scalar} contribution to the flat dump ('' = self)."""
        raise NotImplementedError


class Counter(Stat):
    """A monotonically increasing event counter."""

    __slots__ = ("value",)

    def __init__(self, name, desc=""):
        super().__init__(name, desc)
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def value_dict(self):
        return {"": self.value}


class Gauge(Stat):
    """A point-in-time scalar (rates, ratios, wall-clock seconds)."""

    __slots__ = ("value",)

    def __init__(self, name, desc=""):
        super().__init__(name, desc)
        self.value = 0.0

    def set(self, value):
        self.value = value

    def value_dict(self):
        return {"": self.value}


class Histogram(Stat):
    """A streaming distribution: count / sum / min / max / mean plus
    fixed-bucket p50/p95/p99 estimates on the shared 1-2-5 grid."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self, name, desc=""):
        super().__init__(name, desc)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}  # bound index -> tally (sparse)

    def sample(self, value, n=1):
        self.count += n
        self.total += value * n
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = bisect_left(BUCKET_BOUNDS, value)
        if index >= len(BUCKET_BOUNDS):
            index = len(BUCKET_BOUNDS) - 1
        self.buckets[index] = self.buckets.get(index, 0) + n

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Bucket-resolution quantile estimate (exact at bucket
        bounds; clamped to the observed min/max)."""
        pairs = [(BUCKET_BOUNDS[i], self.buckets[i])
                 for i in sorted(self.buckets)]
        return _bucket_quantile(pairs, self.count, q,
                                self.min if self.min is not None else 0,
                                self.max if self.max is not None else 0)

    def value_dict(self):
        flat = {".count": self.count, ".sum": self.total,
                ".min": self.min if self.min is not None else 0,
                ".max": self.max if self.max is not None else 0,
                ".mean": self.mean}
        for suffix, q in _QUANTILES:
            flat[suffix] = self.quantile(q)
        for index in sorted(self.buckets):
            bound = _format_bound(BUCKET_BOUNDS[index])
            flat[f".bucket.{bound}"] = self.buckets[index]
        return flat

    def combine(self, other):
        """Fold another histogram's samples into this one."""
        self.count += other.count
        self.total += other.total
        for bound, pick in (("min", min), ("max", max)):
            theirs = getattr(other, bound)
            if theirs is None:
                continue
            ours = getattr(self, bound)
            setattr(self, bound,
                    theirs if ours is None else pick(ours, theirs))
        for index, tally in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + tally


class StatsRegistry:
    """A flat namespace of dotted stat names (insertion-ordered).

    ``counter()`` / ``gauge()`` / ``histogram()`` get-or-create, so a
    component can re-register idempotently; asking for an existing name
    with a different kind raises ``TypeError`` (one name, one meaning).
    """

    def __init__(self):
        self._stats = {}

    # ------------------------------------------------------ registration

    def _get_or_create(self, cls, name, desc):
        stat = self._stats.get(name)
        if stat is None:
            stat = cls(name, desc)
            self._stats[name] = stat
        elif type(stat) is not cls:
            raise TypeError(
                f"stat {name!r} already registered as "
                f"{type(stat).__name__}, not {cls.__name__}")
        elif desc and not stat.desc:
            stat.desc = desc
        return stat

    def counter(self, name, desc=""):
        return self._get_or_create(Counter, name, desc)

    def gauge(self, name, desc=""):
        return self._get_or_create(Gauge, name, desc)

    def histogram(self, name, desc=""):
        return self._get_or_create(Histogram, name, desc)

    # ------------------------------------------------------- convenience

    def inc(self, name, n=1, desc=""):
        self.counter(name, desc).inc(n)

    def set(self, name, value, desc=""):
        self.gauge(name, desc).set(value)

    def group(self, prefix):
        """A namespaced view: ``group('diag.ring0').inc('retired')``."""
        return _Group(self, prefix)

    # ------------------------------------------------------------ access

    def __contains__(self, name):
        return name in self._stats

    def __iter__(self):
        return iter(self._stats.values())

    def __len__(self):
        return len(self._stats)

    def get(self, name):
        """The registered Stat object, or None."""
        return self._stats.get(name)

    def __getitem__(self, name):
        """Scalar value of a flat-dump entry (accepts histogram
        suffixes like ``lat.mean``)."""
        flat = self.as_dict()
        if name not in flat:
            raise KeyError(name)
        return flat[name]

    def names(self, prefix=""):
        """Flat-dump names, optionally filtered by dotted prefix."""
        return [n for n in self.as_dict()
                if not prefix or n == prefix
                or n.startswith(prefix + ".")]

    # ------------------------------------------------------------- merge

    def merge(self, other):
        """Fold another registry into this one, kind-aware.

        Counters sum, histograms combine their moments, gauges take the
        incoming value (except the min/max-merged outcome flags) — the
        same rules :func:`merge_flat` applies to flat documents. Merging
        is associative over a fixed input order, which is all the
        cross-process determinism contract needs (workers are always
        folded in submission order).
        """
        for theirs in other:
            if isinstance(theirs, Counter):
                self.counter(theirs.name, theirs.desc).inc(theirs.value)
            elif isinstance(theirs, Histogram):
                self.histogram(theirs.name, theirs.desc).combine(theirs)
            else:
                mine = self.gauge(theirs.name, theirs.desc)
                if theirs.name in _MIN_STATS:
                    mine.set(min(mine.value, theirs.value))
                elif theirs.name in _MAX_STATS:
                    mine.set(max(mine.value, theirs.value))
                else:
                    mine.set(theirs.value)
        return self

    # ------------------------------------------------------------- dumps

    def as_dict(self):
        """Flat ``{dotted-name: scalar}`` (histograms expanded)."""
        flat = {}
        for stat in self._stats.values():
            for suffix, value in stat.value_dict().items():
                flat[stat.name + suffix] = value
        return flat

    def to_json(self, indent=2):
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_openmetrics(self, prefix="repro"):
        """OpenMetrics/Prometheus text exposition of the registry.

        Counters become ``<name>_total`` counter families, gauges
        become gauges, histograms become summaries (count / sum /
        quantile samples) with ``_min``/``_max`` gauge companions.
        Dotted stat names are sanitised to the metric-name grammar
        (``[a-zA-Z_:][a-zA-Z0-9_:]*``); the document ends with the
        mandatory ``# EOF`` terminator."""
        lines = []
        for stat in self._stats.values():
            base = _om_name(prefix, stat.name)
            if isinstance(stat, Counter):
                _om_family(lines, base, "counter", stat.desc)
                lines.append(f"{base}_total {_om_value(stat.value)}")
            elif isinstance(stat, Histogram):
                _om_family(lines, base, "summary", stat.desc)
                for suffix, q in _QUANTILES:
                    lines.append(f'{base}{{quantile="{q}"}} '
                                 f"{_om_value(stat.quantile(q))}")
                lines.append(f"{base}_count {_om_value(stat.count)}")
                lines.append(f"{base}_sum {_om_value(stat.total)}")
                for leg, value in (("min", stat.min), ("max", stat.max)):
                    _om_family(lines, f"{base}_{leg}", "gauge", "")
                    lines.append(f"{base}_{leg} "
                                 f"{_om_value(value or 0)}")
            else:
                _om_family(lines, base, "gauge", stat.desc)
                lines.append(f"{base} {_om_value(stat.value)}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def format_text(self):
        """gem5-style ``stats.txt``: aligned name/value/# description."""
        flat = []
        for stat in self._stats.values():
            for suffix, value in stat.value_dict().items():
                flat.append((stat.name + suffix, value,
                             stat.desc if not suffix else ""))
        if not flat:
            return "(no statistics registered)"
        width = max(len(name) for name, __, __ in flat)
        lines = ["---------- Begin Simulation Statistics ----------"]
        for name, value, desc in flat:
            if isinstance(value, float):
                rendered = f"{value:14.6f}"
            else:
                rendered = f"{value:14d}"
            line = f"{name:{width}s}  {rendered}"
            if desc:
                line += f"  # {desc}"
            lines.append(line)
        lines.append("---------- End Simulation Statistics   ----------")
        return "\n".join(lines)


def format_flat(flat):
    """gem5-style ``stats.txt`` text for an already-flattened
    ``{name: value}`` dump (e.g. ``RunRecord.stats``), which no longer
    carries per-stat descriptions."""
    if not flat:
        return "(no statistics registered)"
    width = max(len(name) for name in flat)
    lines = ["---------- Begin Simulation Statistics ----------"]
    for name, value in flat.items():
        if isinstance(value, float):
            rendered = f"{value:14.6f}"
        else:
            rendered = f"{int(value):14d}"
        lines.append(f"{name:{width}s}  {rendered}")
    lines.append("---------- End Simulation Statistics   ----------")
    return "\n".join(lines)


def _om_name(prefix, name):
    """Sanitise a dotted stat name to the OpenMetrics grammar."""
    return re.sub(r"[^a-zA-Z0-9_:]", "_",
                  f"{prefix}_{name}" if prefix else name)


def _om_value(value):
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _om_family(lines, name, kind, desc):
    lines.append(f"# TYPE {name} {kind}")
    if desc:
        escaped = desc.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {name} {escaped}")


def openmetrics_flat(flat, prefix="repro"):
    """OpenMetrics text exposition for an already-flattened
    ``{name: value}`` document (e.g. ``RunRecord.stats``).

    Histogram expansions are re-grouped into summary families — a base
    name carrying ``.count``/``.sum``/``.p50`` legs emits quantile
    samples and labelled ``_bucket`` gauges; every other entry is a
    plain gauge (flat documents carry no kind information, and gauge
    is the only kind that is always grammatically valid for them)."""
    flat = dict(flat)
    families = {}  # histogram base name -> legs
    for name in flat:
        if name.endswith(".count"):
            base = name[:-len(".count")]
            if base + ".sum" in flat and base + ".p50" in flat:
                families[base] = {}
    lines = []
    emitted = set()
    for name, value in flat.items():
        base = next((b for b in families
                     if name.startswith(b + ".")), None)
        if base is None:
            _om_family(lines, _om_name(prefix, name), "gauge", "")
            lines.append(f"{_om_name(prefix, name)} {_om_value(value)}")
            continue
        if base in emitted:
            continue
        emitted.add(base)
        om = _om_name(prefix, base)
        _om_family(lines, om, "summary", "")
        for suffix, q in _QUANTILES:
            if base + suffix in flat:
                lines.append(f'{om}{{quantile="{q}"}} '
                             f"{_om_value(flat[base + suffix])}")
        lines.append(f"{om}_count {_om_value(flat[base + '.count'])}")
        lines.append(f"{om}_sum {_om_value(flat[base + '.sum'])}")
        for leg in ("min", "max", "mean"):
            if base + "." + leg in flat:
                _om_family(lines, f"{om}_{leg}", "gauge", "")
                lines.append(f"{om}_{leg} "
                             f"{_om_value(flat[base + '.' + leg])}")
        bucket_prefix = base + ".bucket."
        tallies = [(key[len(bucket_prefix):], flat[key])
                   for key in flat if key.startswith(bucket_prefix)]
        if tallies:
            _om_family(lines, f"{om}_bucket", "gauge", "")
            for bound, tally in tallies:
                lines.append(f'{om}_bucket{{le="{bound}"}} '
                             f"{_om_value(tally)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def deterministic_view(flat):
    """The byte-comparable projection of a flat stats document: every
    stat except the wall-clock self-profiling gauges (``host.*`` /
    ``sim.host.*``), which legitimately vary run-to-run. Two runs of
    the same (workload, config, seed) must produce identical views
    regardless of host, process count or cache state — the determinism
    contract serial-vs-parallel equivalence tests enforce."""
    return {name: value for name, value in flat.items()
            if not name.startswith(HOST_STAT_PREFIXES)}


def merge_flat(docs):
    """Deterministically merge flat per-run stats documents.

    A pure fold in document order: counters and wall-clock seconds sum,
    ``sim.halted`` takes the min (all runs halted) and ``sim.timed_out``
    the max, histogram ``.min``/``.max`` legs combine, and derived
    ratios (IPC, miss rates, histogram means, host throughput) are
    recomputed from the merged totals rather than averaged — so the
    aggregate of N single-run documents equals the document one
    N-times-longer run would have produced, and equals itself however
    the runs were scheduled across processes.
    """
    docs = [doc for doc in docs if doc]
    out = {}
    weighted = {}
    for doc in docs:
        cycles = doc.get("core.cycles", 0)
        for name, value in doc.items():
            if name in _CYCLE_WEIGHTED:
                acc, weight = weighted.get(name, (0.0, 0))
                weighted[name] = (acc + value * cycles, weight + cycles)
            elif name not in out:
                out[name] = value
            elif name in _MIN_STATS or name.endswith(".min"):
                out[name] = min(out[name], value)
            elif name in _MAX_STATS or name.endswith(".max"):
                out[name] = max(out[name], value)
            elif name.endswith(".mean") or \
                    name.endswith(_QUANTILE_SUFFIXES):
                pass  # recomputed from .sum/.count/.bucket.* below
            else:
                out[name] = out[name] + value
    for name, (acc, weight) in weighted.items():
        out[name] = acc / weight if weight else 0.0
    _recompute_derived(out)
    return out


def _recompute_derived(out):
    def ratio(num, den):
        return num / den if den else 0.0

    for name in list(out):
        if name.endswith(".mean"):
            base = name[:-len(".mean")]
            if base + ".sum" in out and base + ".count" in out:
                out[name] = ratio(out[base + ".sum"],
                                  out[base + ".count"])
        elif name.endswith(_QUANTILE_SUFFIXES):
            base = name[:-len(".p50")]
            prefix = base + ".bucket."
            pairs = sorted(
                (float(key[len(prefix):]), out[key])
                for key in out if key.startswith(prefix))
            q = dict((s[1:], q) for s, q in _QUANTILES)[name[-3:]]
            out[name] = _bucket_quantile(
                pairs, out.get(base + ".count", 0), q,
                out.get(base + ".min", 0), out.get(base + ".max", 0))
    cycles = out.get("core.cycles", 0)
    if "core.ipc" in out:
        out["core.ipc"] = ratio(out.get("core.instructions", 0), cycles)
    for level in ("l1i", "l1d", "l2"):
        rate = f"mem.{level}.miss_rate"
        if rate in out:
            misses = out.get(f"mem.{level}.misses", 0)
            out[rate] = ratio(
                misses, out.get(f"mem.{level}.hits", 0) + misses)
    seconds = out.get("sim.host.run_seconds", 0.0)
    for name, total in (("sim.host.cycles_per_sec", cycles),
                        ("sim.host.instructions_per_sec",
                         out.get("core.instructions", 0))):
        if name in out:
            out[name] = ratio(total, seconds)


class _Group:
    """Prefix view over a registry (shares the underlying stats)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry, prefix):
        self._registry = registry
        self._prefix = prefix.rstrip(".")

    def _name(self, name):
        return f"{self._prefix}.{name}" if self._prefix else name

    def counter(self, name, desc=""):
        return self._registry.counter(self._name(name), desc)

    def gauge(self, name, desc=""):
        return self._registry.gauge(self._name(name), desc)

    def histogram(self, name, desc=""):
        return self._registry.histogram(self._name(name), desc)

    def inc(self, name, n=1, desc=""):
        self._registry.inc(self._name(name), n, desc)

    def set(self, name, value, desc=""):
        self._registry.set(self._name(name), value, desc)

    def group(self, prefix):
        return _Group(self._registry, self._name(prefix))
