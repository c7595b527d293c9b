"""``service``: closed-loop clients against ``serve_in_thread``.

Why: hits exercise ``service`` admission and the ``diskcache`` read
path; misses exercise the persistent pool and the engines. Spellings
that mean the same run but hash to different keys (``"scale": 1`` vs
``1.0``, ``config`` omitted vs ``"F4C32"``) are misses today and would
become hits once specs are canonicalised, so that gain shows only here.

The load comes from this one process: ``nproc`` client threads, each
sending its next request only after the previous response has been
read to the end (closed loop), against a service with ``nproc`` pool
workers and an empty disk cache in a fresh temporary directory. The
seeded request stream mixes:

* ``popular`` -- repeats of a small popular set (hits after the first
  touch);
* ``alias`` -- the ``config``-omitted spelling of a DiAG F4C32 run whose
  canonical spelling is already in the service's cache (a miss today);
* ``fresh`` -- a small cell not requested before (a miss).

Each alias's canonical twin is run in this process just before its
round and written into the service's cache directory, as a replica
sharing that directory would have done. A pool worker keeps an
in-memory run memo in which both spellings are one run, so a twin that
had run in one of the workers would make its alias nearly free on that
worker and a full simulation on the other, and the round's work would
depend on scheduling. No worker ever runs a twin, so every alias is a
full simulation today, and a hit once specs are canonical. The other
alias spelling, ``"scale": 1`` for ``1.0``, exists only at whole
scales, whose cells cost many times a round's other cells, so it is
left out.

The stream is cut into rounds of ROUND requests. A round ends at a
barrier with no request in flight, where the calibration sample is
taken; its calibrated duration is one pass. ``sim_kips`` counts the
instructions of fresh simulations only, as on the other workloads: a
hit delivers a run without simulating it.
"""

import math
import os
import random
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from common import (Phase, engine_record, measure, nproc, record_phases,
                    run_passes)

#: canonical spellings of the popular set
POPULAR = (
    {"machine": "diag", "workload": "nn", "config": "F4C32",
     "scale": 0.2},
    {"machine": "ooo", "workload": "nn", "scale": 0.2},
    {"machine": "diag", "workload": "srad", "config": "F4C32",
     "scale": 1.0},
    {"machine": "ooo", "workload": "hotspot", "scale": 1.0},
    {"machine": "diag", "workload": "lud", "config": "F4C32",
     "scale": 0.3},
    {"machine": "ooo", "workload": "pathfinder", "scale": 0.2},
)

#: fresh cells: each kernel here on both machines at scales 0.2500 to
#: 0.2800 in steps of 0.0005. Across this band a cell costs about the
#: same (15-90 ms on the reference host, by kernel), and many programs
#: are identical, but the service and the workers key a run by its
#: scale, so every cell is a full simulation. Listed by decreasing cost.
FRESH_KERNELS = ("backprop", "nn", "cfd", "xz", "pathfinder", "imagick",
                 "lud", "srad", "hotspot")
FRESH_SCALES = tuple(round(0.25 + 0.0005 * i, 4) for i in range(61))

#: alias twins: DiAG F4C32 cells of the cheapest kernels (they are
#: also run here, between rounds) at scales halfway between the fresh
#: ones, so no twin is ever a fresh cell
ALIAS_KERNELS = ("pathfinder", "imagick", "lud", "srad", "hotspot")
ALIAS_SCALES = tuple(round(s + 0.00025, 5) for s in FRESH_SCALES)

#: one round: one fresh cell of every fresh kernel on each machine and
#: one alias of every alias kernel, heaviest kernel first so that the
#: two workers finish together, then each popular spec POPULAR_REPEATS
#: times, shuffled. Every round asks for the same work, and it ends on
#: cheap hits, so the clients reach the barrier together; the menu
#: lasts len(FRESH_SCALES) rounds.
POPULAR_REPEATS = 3
ROUND = (len(POPULAR) * POPULAR_REPEATS + len(ALIAS_KERNELS)
         + 2 * len(FRESH_KERNELS))

#: rounds whose served records are kept for the correctness checks and
#: the simulated totals (every run has at least three passes)
CHECKED = 3

#: specs that warm the pool in set-up; outside the traffic
WARM = ({"machine": "diag", "workload": "nn", "config": "F4C32",
         "scale": 0.05},
        {"machine": "ooo", "workload": "nn", "scale": 0.05},
        {"machine": "diag", "workload": "srad", "config": "F4C32",
         "scale": 0.05},
        {"machine": "ooo", "workload": "srad", "scale": 0.05})


def make_stream(seed):
    """``[(kind, spec doc)]`` in rounds of ROUND, a pure function of
    ``seed``: each cell of a round meets every scale of its band once
    over the stream, in a seeded order."""
    rng = random.Random(seed)
    count = len(FRESH_SCALES)
    cells = [("fresh", k, m, FRESH_SCALES) for k in FRESH_KERNELS
             for m in ("diag", "ooo")]
    cells += [("alias", k, "diag", ALIAS_SCALES) for k in ALIAS_KERNELS]
    cells.sort(key=lambda cell: FRESH_KERNELS.index(cell[1]))
    orders = [rng.sample(range(count), count) for _ in cells]
    stream = []
    for round_ in range(count):
        for (kind, kernel, machine, scales), order in zip(cells, orders):
            doc = {"machine": machine, "workload": kernel,
                   "scale": scales[order[round_]]}
            if kind == "fresh" and machine == "diag":
                doc["config"] = "F4C32"
            stream.append((kind, doc))
        popular = [("popular", dict(doc)) for doc in POPULAR
                   for _ in range(POPULAR_REPEATS)]
        rng.shuffle(popular)
        stream.extend(popular)
    return stream


def seed_twins(phase, cache, requests):
    """Run the canonical twin of every alias in ``requests`` here and
    write its record into the service's cache under the key the service
    looks it up by. Returns ``{request index: (cycles, deterministic
    stats)}`` of the twins, to check the served aliases against."""
    from repro.harness import RunSpec, clear_cache, run_specs
    from repro.harness.journal import spec_key

    picked = [(i, RunSpec.from_dict(dict(doc, config="F4C32")))
              for i, (kind, doc) in requests if kind == "alias"]
    records = run_specs([spec for _, spec in picked], jobs=1)
    clear_cache()
    out = {}
    for (index, spec), record in zip(picked, records):
        if record.status != "ok" or not record.verified:
            phase.fail(f"local twin {spec}: status={record.status} "
                       f"verified={record.verified}")
            continue
        cache.put(spec_key(spec), record)
        out[index] = local_view(record.cycles, record.stats)
    return out


def local_view(cycles, stats):
    """What a served record must share with a local run of its spec."""
    import json

    from repro.obs import deterministic_view

    return cycles, json.dumps(deterministic_view(stats), sort_keys=True)


def setup(seed, tmp):
    """Workload assembly (the request stream) and a started service
    whose pool has one live worker per CPU."""
    from repro.harness.diskcache import DiskCache
    from repro.service.app import serve_in_thread
    from repro.service.client import ServiceClient

    workers = nproc()
    root = tempfile.mkdtemp(prefix="service-", dir=tmp)
    cache = os.path.join(root, "cache")
    handle = serve_in_thread(
        workers=workers, cache=cache,
        telemetry_path=os.path.join(root, "telemetry.jsonl"))
    client = ServiceClient(handle.url, timeout=120.0)
    clients = ThreadPoolExecutor(max_workers=workers,
                                 thread_name_prefix="bench-client")
    state = {"stream": make_stream(seed), "handle": handle,
             "client": client, "clients": clients, "workers": workers,
             "cache": DiskCache(cache), "rng": random.Random(seed + 1)}
    for future in [clients.submit(client.run, doc) for doc in WARM]:
        outcome = future.result()
        if outcome.status != "ok":
            raise RuntimeError(f"warm-up run failed: {outcome.status}")
    state["metrics0"] = scrape(client)
    return state


def scrape(client):
    """``{name: value}`` from ``GET /metrics``."""
    out = {}
    for line in client.metrics().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            pass
    return out


def run(state, cal, seconds, tracer):
    from repro.service.client import ServiceError

    phase = Phase()
    client, clients = state["client"], state["clients"]
    stream = state["stream"]
    detail = phase.detail
    detail.update(requests=[], records=[], cell_ms=[], exec_s=0.0,
                  replays={})
    cursor = [0]
    seen = set()

    def request(index, kind, doc, root):
        span = None if root is None else tracer.open(
            "service.request", root, req=index)
        first = []
        start = time.perf_counter()
        try:
            outcome = client.run(doc, on_event=lambda event: first or
                                 first.append(time.perf_counter()))
            error = None
        except (ServiceError, OSError) as exc:
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if span is not None:
            tracer.close(span, end)
        return {"index": index, "kind": kind, "doc": doc,
                "outcome": outcome, "error": error, "span": span,
                "latency": end - start,
                "admit": (first[0] - start) if first else None}

    def one_round(requests, root):
        futures = [clients.submit(request, i, kind, doc, root)
                   for i, (kind, doc) in requests]
        return [f.result() for f in futures]

    def one_pass(index):
        requests = list(enumerate(stream[cursor[0]:cursor[0] + ROUND],
                                  cursor[0]))
        cursor[0] += ROUND
        twins = seed_twins(phase, state["cache"], requests)
        cal.last = None   # the next sample follows the twin runs
        results, raw, factor = measure(
            cal, tracer, lambda root: one_round(requests, root))
        simulated = 0
        for res in results:
            res["latency"] *= factor
            if res["admit"] is not None:
                res["admit"] *= factor
            record = judge(phase, res, factor, seen)
            outcome = res.pop("outcome")
            span = res.pop("span")
            if record is not None:
                simulated += record["instructions"]
                if span is not None:
                    tracer.derive(span, record_phases(
                        record.get("stats", {}), record["machine"]),
                        req=res["index"])
            if res["index"] in twins and outcome is not None \
                    and outcome.status == "ok" and local_view(
                        outcome.record["cycles"],
                        outcome.record.get("stats", {})) \
                    != twins[res["index"]]:
                phase.fail(f"served alias {res['doc']} differs from a "
                           f"local run_specs run of its twin")
            # keep whole records only from the first CHECKED rounds
            # (every run has them), so memory does not grow with speed
            res["status"] = outcome.status if outcome else None
            res["path"] = outcome.outcome if outcome else None
            if outcome is not None and res["index"] < CHECKED * ROUND:
                res["key"], res["record"] = outcome.key, outcome.record
            detail["requests"].append(res)
        phase.add_pass(raw * factor, raw, simulated)

    # the run's clock counts only the rounds, not the twin runs between
    # them; a round needs a full batch of fresh cells, so stop early
    # rather than repeat them (a faster program can exhaust the menu)
    run_passes(math.inf, one_pass,
               more=lambda: sum(phase.raw) < seconds
               and cursor[0] + ROUND <= len(stream))
    detail["capacity_s"] = state["workers"] * sum(phase.passes)
    metrics = scrape(client)
    detail["metrics"] = {k: v - state["metrics0"].get(k, 0.0)
                         for k, v in metrics.items()}
    check_against_local(phase, state["rng"])
    return phase


def judge(phase, res, factor, seen):
    """Count one response: ok only when the stream ended in a result
    whose record ran to completion and verified. Returns the record if
    the response was a fresh simulation, else None.

    A pool worker keeps its own in-memory run memo, so a miss on a key
    the service has not seen can be answered from that memo without
    simulating: the record then carries the host timings of the run
    that made it. Such replays are recognised by a ``wall_seconds``
    already seen for the same machine, kernel and scale; they are
    counted by request kind and are neither engine work nor simulated
    instructions."""
    phase.attempted += 1
    outcome = res["outcome"]
    problem = res["error"]
    fresh = None
    if problem is None:
        events = outcome.events
        record = outcome.record or {}
        if not events or events[-1].get("event") != "result":
            problem = "response did not end in a result"
        elif outcome.status != "ok" or not record.get("verified"):
            problem = (f"status={outcome.status} "
                       f"verified={record.get('verified')}")
        elif outcome.outcome == "scheduled":
            doc = res["doc"]
            wall = record.get("wall_seconds")
            run = (doc["machine"], doc["workload"], float(doc["scale"]),
                   wall)
            if run in seen:
                replays = phase.detail["replays"]
                replays[res["kind"]] = replays.get(res["kind"], 0) + 1
            else:
                seen.add(run)
                fresh = record
                phase.detail["cell_ms"].append(wall * factor * 1e3)
                phase.detail["exec_s"] += wall * factor
                phase.detail["records"].append(engine_record(
                    record["machine"], record["cycles"],
                    record["instructions"], record.get("stats", {}),
                    factor))
    if problem is not None:
        phase.failed += 1
        phase.fail(f"request {res['index']} {res['doc']}: {problem}")
    return fresh


def check_against_local(phase, rng, sample=6):
    """A seeded sample of served records must match a local
    ``run_specs`` run of the same spec in ``deterministic_view``."""
    from repro.harness import RunSpec, clear_cache, run_specs

    served = {}
    for res in phase.detail["requests"]:
        if res.get("record") and res["status"] == "ok":
            served.setdefault(res["key"], (res["doc"], res["record"]))
    keys = sorted(served)
    picks = rng.sample(keys, min(sample, len(keys)))
    clear_cache()
    for key in picks:
        doc, record = served[key]
        local = run_specs([RunSpec.from_dict(doc)], jobs=1)[0]
        if local_view(record["cycles"], record["stats"]) \
                != local_view(local.cycles, local.stats):
            phase.fail(f"served record for {doc} differs from a local "
                       f"run_specs run")
    clear_cache()
    sims = {key: (record["cycles"], record["instructions"])
            for key, (_, record) in served.items()}
    phase.sim = {"distinct_runs": len(sims),
                 "cycles": sum(c for c, _ in sims.values()),
                 "instructions": sum(i for _, i in sims.values())}


def properties(state, phase):
    """The stream's kind shares, and per kind the share of responses
    that a worker answered from its run memo instead of simulating
    (0 by design; a non-zero share means the round's work depended on
    which worker served it)."""
    served = phase.detail["requests"]
    replays = phase.detail["replays"]
    kinds = {}
    for res in served:
        kinds[res["kind"]] = kinds.get(res["kind"], 0) + 1
    total = max(1, len(served))
    out = {f"stream.{k}": v / total for k, v in sorted(kinds.items())}
    out.update({f"replayed.{k}": replays.get(k, 0) / v
                for k, v in sorted(kinds.items())})
    return out


def layers(out, phase, passes):
    from common import percentile

    detail = phase.detail
    requests = detail["requests"]
    metrics = detail["metrics"]
    ok = [r for r in requests if r["status"] == "ok"]
    hits = [r["latency"] * 1e3 for r in ok if r["path"] == "cached"]
    misses = [r["latency"] * 1e3 for r in ok if r["path"] == "scheduled"]
    executions = metrics.get("repro_service_executions", 0.0)
    out["service.requests"] = len(requests) / passes
    out["service.executions"] = executions / passes
    out["service.exec_per_request"] = executions / max(1, len(ok))
    out["service.dedup_shared"] = \
        metrics.get("repro_service_dedup_shared", 0.0) / passes
    out["service.rejected"] = (
        metrics.get("repro_service_rejected_rate", 0.0)
        + metrics.get("repro_service_rejected_depth", 0.0)) / passes
    out["service.admit_p50_ms"] = percentile(
        [r["admit"] * 1e3 for r in requests if r["admit"] is not None],
        0.5) or 0.0
    out["service.hit_p50_ms"] = percentile(hits, 0.5) or 0.0
    out["service.miss_p50_ms"] = percentile(misses, 0.5) or 0.0
    out["service.req_p95_ms"] = percentile(
        [r["latency"] * 1e3 for r in requests], 0.95) or 0.0
    out["service.throughput_rps"] = len(requests) / sum(phase.passes)
    out["service.alias_share"] = \
        sum(r["kind"] == "alias" for r in requests) / len(requests)
    out["service.hit_share"] = len(hits) / len(requests)
    for name in ("hits", "misses", "writes"):
        out[f"diskcache.{name}"] = \
            metrics.get(f"repro_service_cache_{name}", 0.0) / passes
    print(f"service latency samples: requests={len(requests)} "
          f"hits={len(hits)} misses={len(misses)}", flush=True)


def teardown(state):
    from repro.obs import telemetry

    state["clients"].shutdown(wait=True)
    state["handle"].close()
    telemetry.reset()
