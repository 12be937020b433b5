#!/usr/bin/env python3
"""Validate, render and diff everything run_experiments writes.

Three file kinds, told apart by the schema string each one carries:

  BENCH_<suite>.json   results document ("pdp-bench-results/v1|v2"):
                       per-job results, epoch telemetry, service SLOs
  TRACE_<suite>.jsonl  event stream ("pdp-bench-trace/v1" on the first
                       non-blank line): PD changes, request-lifecycle
                       spans, SLO burn crossings, one event per line
  FLIGHT_<job>.json    fault flight-recorder dump ("pdp-flight/v1")

Subcommands:

  report.py check FILE... [--max-drift B]
      Validate each file; exit 1 on any malformed one.  --max-drift
      additionally fails when a service tenant's mean quota-vs-occupancy
      drift in a BENCH file exceeds B (or the file has no service jobs).
  report.py show FILE... [--job S] [--limit N]
      Validate, then render: PD over time, the interval hit-rate
      sparkline, event counts and per-tenant SLO tables for BENCH; span
      waterfalls (at most N), the burn-rate timeline and event counts for
      TRACE; a summary for FLIGHT.  --job keeps jobs whose key contains S.
  report.py diff OLD NEW [--tolerance X]
      Per-job metric diff of two BENCH files; exit 1 when a metric moved
      by more than X (relative) or a job disappeared.

Only the Python standard library is used.
"""

import argparse
import json
import sys

RESULTS_SCHEMAS = {"pdp-bench-results/v1": 1, "pdp-bench-results/v2": 2}
TRACE_SCHEMA = "pdp-bench-trace/v1"
FLIGHT_SCHEMA = "pdp-flight/v1"

# The request-lifecycle stages a span:arrival root fans out into, in path
# order (telemetry/span_tracer.cc).  One sampled request emits the root
# plus exactly one of these paths.
SPAN_PATHS = [
    ("l2_hit",),
    ("l2_miss", "llc_probe", "llc_hit"),
    ("l2_miss", "llc_probe", "llc_bypass", "mem_fill"),
    ("l2_miss", "llc_probe", "llc_victim", "mem_fill"),
]
SPAN_STAGES = {stage for path in SPAN_PATHS for stage in path}
SPAN_FIELDS = ("trace_id", "span_id", "parent", "tenant", "slot",
               "request", "cycles_begin", "cycles_end")
BURN_TYPES = ("slo_burn", "slo_recovered")
BURN_FIELDS = ("tenant", "slot", "burn_rate", "violations", "window")
FLIGHT_REASONS = ("check_failure", "job_failed", "soft_timeout")
NUMBER = (int, float)
SPARK = " .:-=+*#%@"
BAR_WIDTH = 40
MAX_PROBLEMS = 50


class Malformed(Exception):
    pass


def need(obj, key, kinds, where):
    if key not in obj:
        raise Malformed("%s: missing '%s'" % (where, key))
    if not isinstance(obj[key], kinds):
        raise Malformed("%s: '%s' has the wrong type" % (where, key))
    return obj[key]


def check_event(event, where, with_job=False):
    """The one event rule, shared by BENCH, TRACE and FLIGHT: an object
    with a string type, an integer access count and a fields object
    (and, in a TRACE stream, the string key of its job)."""
    if not isinstance(event, dict):
        raise Malformed("%s: event is not an object" % where)
    for key, kinds in ((("job", str),) if with_job else ()) + (
            ("type", str), ("access", int), ("fields", dict)):
        need(event, key, kinds, where)


# ---------------------------------------------------------------------------
# Loading: one loader for all three kinds.


def load(path):
    """Return (kind, doc) for a BENCH, TRACE or FLIGHT file.

    A TRACE doc is {"header": ..., "events": [...]}.  Raises Malformed
    on anything that is not one of the three kinds or whose lines do not
    parse; check_doc() does the per-kind validation.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise Malformed(str(err))
    try:
        doc, error = json.loads(text), None
    except ValueError as err:
        doc, error = None, err
    if isinstance(doc, dict):
        schema = doc.get("schema")
        if schema in RESULTS_SCHEMAS:
            return "bench", doc
        if schema == FLIGHT_SCHEMA:
            return "flight", doc
        if schema != TRACE_SCHEMA:  # else a header-only TRACE stream
            raise Malformed("unknown schema %r" % schema)
    elif doc is not None:
        raise Malformed("not a BENCH, TRACE or FLIGHT document")
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if not lines:
        raise Malformed("empty file (no schema)")
    header, events = None, []
    for lineno, line in lines:
        try:
            record = json.loads(line)
        except ValueError as err:
            raise Malformed("line %d: not JSON: %s" %
                            (lineno, err if header else error))
        if header is None:
            if not isinstance(record, dict) or \
                    record.get("schema") != TRACE_SCHEMA:
                raise Malformed("line %d: expected a header with schema "
                                "'%s'" % (lineno, TRACE_SCHEMA))
            header = record
        else:
            check_event(record, "line %d" % lineno, with_job=True)
            events.append(record)
    return "trace", {"header": header, "events": events}


# ---------------------------------------------------------------------------
# Validation: one validator per kind; check_doc() dispatches.


def check_bench(doc):
    version = RESULTS_SCHEMAS[doc["schema"]]
    need(doc, "experiment", str, "document")
    jobs = need(doc, "jobs", list, "document")
    if doc.get("job_count") != len(jobs):
        raise Malformed("job_count disagrees with the jobs array")
    groups = doc.get("groups", {})
    if not isinstance(groups, dict) or (groups and version < 2):
        raise Malformed("groups is not a v2 object")
    grouped = {}
    for job in jobs:
        if not isinstance(job, dict):
            raise Malformed("job is not an object")
        key = need(job, "key", str, "job")
        need(job, "seed", int, key)
        need(job, "status", str, key)
        if "group" in job:
            group = need(job, "group", str, key)
            if group not in groups:
                raise Malformed("%s: group '%s' is not in the groups "
                                "section" % (key, group))
            if "seconds" in job:
                raise Malformed("%s: a grouped record carries 'seconds'; "
                                "the group's time is in the groups "
                                "section" % key)
            grouped[group] = grouped.get(group, 0) + 1
        for section, check in (("telemetry", check_telemetry),
                               ("service", check_service)):
            if section in job:
                if version < 2:
                    raise Malformed("%s: %s section in a v1 document" %
                                    (key, section))
                check(job[section], key)
    for name, group in groups.items():
        where = "group " + name
        if not isinstance(group, dict):
            raise Malformed("%s: not an object" % where)
        need(group, "seconds", NUMBER, where)
        if need(group, "records", int, where) != grouped.get(name, 0):
            raise Malformed("%s: 'records' disagrees with the jobs that "
                            "name it" % where)


def check_service(svc, key):
    if not isinstance(svc, dict):
        raise Malformed("%s: service is not an object" % key)
    need(svc, "policy", str, key)
    need(svc, "tenant_aware", bool, key)
    for counter in ("joins", "leaves", "reallocs"):
        need(svc, counter, int, key)
    tenants = need(svc, "tenants", list, key)
    if not tenants:
        raise Malformed("%s: service has no tenants" % key)
    for tenant in tenants:
        if not isinstance(tenant, dict):
            raise Malformed("%s: tenant is not an object" % key)
        where = "%s/%s" % (key, need(tenant, "name", str, key))
        for field in ("hit_rate", "mean_quota", "mean_occupancy",
                      "occupancy_drift"):
            if not 0.0 <= need(tenant, field, NUMBER, where) <= 1.0:
                raise Malformed("%s: '%s' is outside [0, 1]" %
                                (where, field))
        need(tenant, "p99_miss_cycles", NUMBER, where)
        need(tenant, "requests", int, where)


def check_telemetry(tel, key):
    if not isinstance(tel, dict):
        raise Malformed("%s: telemetry is not an object" % key)
    need(tel, "interval", int, key)
    last_access = -1
    for epoch in need(tel, "epochs", list, key):
        if not isinstance(epoch, dict):
            raise Malformed("%s: epoch is not an object" % key)
        access = need(epoch, "access", int, key)
        if access <= last_access:
            raise Malformed("%s: epoch access counts are not increasing" %
                            key)
        last_access = access
        need(epoch, "policy", dict, key)
        for counter in ("accesses", "hits", "misses", "bypasses"):
            need(epoch, counter, int, key)
        if epoch["hits"] + epoch["misses"] != epoch["accesses"]:
            raise Malformed("%s: epoch at access %d: hits + misses != "
                            "accesses" % (key, access))
    for event in tel.get("events", []):
        check_event(event, key)


def span_groups(events):
    """Span events grouped by (job, trace_id), in file order."""
    groups = {}
    for event in events:
        if event["type"].startswith("span:"):
            key = (event["job"], event["fields"].get("trace_id"))
            groups.setdefault(key, []).append(event)
    return groups


def check_span_group(key, spans):
    """Validate one request's span group; returns (problems, truncated).

    A group without its span:arrival root is not necessarily corrupt:
    the event ring drops oldest on overflow, and a request's root is the
    oldest event of its group, so head-truncation leaves a rootless
    *suffix* of a valid lifecycle.  Such groups are validated as
    suffixes and counted as truncated.
    """
    where = "%s trace %#x" % (key[0], int(key[1] or 0))
    roots = [s for s in spans if s["type"] == "span:arrival"]
    if len(roots) > 1:
        return ["%s: %d span:arrival roots (want at most 1)" %
                (where, len(roots))], False
    root = roots[0] if roots else None
    children = [s for s in spans if s is not root]
    stages = tuple(s["type"][len("span:"):] for s in children)
    problems = []
    for span in spans:
        f = span["fields"]
        problems += ["%s: %s missing field %r" % (where, span["type"], name)
                     for name in SPAN_FIELDS if name not in f]
        if f.get("cycles_end", 0) < f.get("cycles_begin", 0):
            problems.append("%s: %s ends before it begins" %
                            (where, span["type"]))
    problems += ["%s: unknown stage %r" % (where, stage)
                 for stage in stages if stage not in SPAN_STAGES]
    # All children share one parent: the root's span id when the root
    # survived, any single nonzero id otherwise.
    parents = {s["fields"].get("parent") for s in children}
    if root is not None:
        if root["fields"].get("parent") != 0:
            problems.append("%s: root has nonzero parent" % where)
        if parents - {root["fields"].get("span_id")}:
            problems.append("%s: child span not parented to the root" %
                            where)
        if stages not in SPAN_PATHS:
            problems.append("%s: stage path %r is not a valid lifecycle" %
                            (where, list(stages)))
    else:
        if len(parents) > 1 or 0 in parents:
            problems.append("%s: rootless group with inconsistent "
                            "parents" % where)
        if not any(stages == path[len(path) - len(stages):]
                   for path in SPAN_PATHS if len(stages) <= len(path)):
            problems.append("%s: rootless stage path %r is not a "
                            "lifecycle suffix" % (where, list(stages)))
    ids = [s["fields"].get("span_id") for s in spans]
    if len(set(ids)) != len(ids):
        problems.append("%s: duplicate span ids" % where)
    return problems, root is None


def check_trace(doc):
    problems = []
    for key, spans in span_groups(doc["events"]).items():
        problems += check_span_group(key, spans)[0]
    for event in doc["events"]:
        if event["type"] in BURN_TYPES:
            problems += ["%s %s@%s: missing field %r" %
                         (event["job"], event["type"], event["access"], f)
                         for f in BURN_FIELDS if f not in event["fields"]]
    return problems


def check_flight(doc):
    problems = []
    if not doc.get("job"):
        problems.append("missing job key")
    if doc.get("reason") not in FLIGHT_REASONS:
        problems.append("reason %r not in %r" %
                        (doc.get("reason"), list(FLIGHT_REASONS)))
    for section, fields in (("events", None),
                            ("open_spans", ("trace_id", "span_id",
                                            "tenant", "request"))):
        items = doc.get(section)
        if not isinstance(items, list):
            problems.append("%s is not an array" % section)
            continue
        for i, item in enumerate(items):
            where = "%s[%d]" % (section, i)
            try:
                if fields is None:
                    check_event(item, where)
                elif not isinstance(item, dict):
                    raise Malformed("%s: not an object" % where)
                else:
                    for field in fields:
                        need(item, field, NUMBER, where)
            except Malformed as err:
                problems.append(str(err))
                break
    if not isinstance(doc.get("metrics"), dict):
        problems.append("metrics is not an object")
    return problems


def check_doc(kind, doc):
    """Every problem with a loaded file (an empty list when it is valid)."""
    if kind == "trace":
        return check_trace(doc)
    if kind == "flight":
        return check_flight(doc)
    try:
        check_bench(doc)
    except Malformed as err:
        return [str(err)]
    return []


def open_valid(path):
    """load() + check_doc(); prints the problems and returns None when
    the file is malformed, else (kind, doc)."""
    try:
        kind, doc = load(path)
        problems = check_doc(kind, doc)
    except Malformed as err:
        problems = [str(err)]
    for problem in problems[:MAX_PROBLEMS]:
        print("error: %s: %s" % (path, problem), file=sys.stderr)
    if len(problems) > MAX_PROBLEMS:
        print("error: %s: ... and %d more" %
              (path, len(problems) - MAX_PROBLEMS), file=sys.stderr)
    if problems:
        return None
    if kind == "bench":
        warn_dropped_events(doc)
    return kind, doc


def warn_dropped_events(doc):
    """Loudly flag event-ring overflow on stderr.

    The EventTrace ring drops oldest on overflow, so a truncated trace
    silently understates whatever it was recording (span counts, SLO
    burn events, PD changes).  Both signals are checked: the per-job
    ``events_dropped`` field and, in volatile dumps, the process-wide
    ``telemetry.trace_dropped_events`` registry counter.
    """
    dropped = [(job["key"], job["telemetry"]["events_dropped"])
               for job in doc["jobs"]
               if job.get("telemetry", {}).get("events_dropped")]
    registry = doc.get("registry", {}).get(
        "telemetry.trace_dropped_events", 0)
    if not dropped and not registry:
        return
    print("WARNING: EventTrace ring overflowed (drop-oldest): the event "
          "stream is truncated and every event count understates "
          "reality.  Raise TelemetryConfig::traceCapacity or sample "
          "less.", file=sys.stderr)
    for key, count in dropped:
        print("WARNING:   %s: %d event(s) dropped" % (key, count),
              file=sys.stderr)
    if registry:
        print("WARNING:   registry telemetry.trace_dropped_events = %d "
              "(process-wide)" % registry, file=sys.stderr)


# ---------------------------------------------------------------------------
# check


def drift_check(path, doc, bound):
    worst, where_worst, bad = 0.0, None, False
    for job in doc["jobs"]:
        for t in job.get("service", {}).get("tenants", []):
            drift, where = t["occupancy_drift"], job["key"] + "/" + t["name"]
            if where_worst is None or drift > worst:
                worst, where_worst = drift, where
            if drift > bound:
                bad = True
                print("error: %s: occupancy drift %.4f exceeds --max-drift "
                      "%s" % (where, drift, bound), file=sys.stderr)
    if where_worst is None:
        print("error: %s: drift check: no service jobs to check" % path,
              file=sys.stderr)
        return False
    if not bad:
        print("drift check: ok (worst %.4f at %s, bound %s)" %
              (worst, where_worst, bound))
    return not bad


def summary(kind, doc):
    if kind == "bench":
        jobs = doc["jobs"]
        return ("schema v%d, %d job(s), %d with telemetry, %d service%s" %
                (RESULTS_SCHEMAS[doc["schema"]], len(jobs),
                 sum("telemetry" in j for j in jobs),
                 sum("service" in j for j in jobs),
                 ", %d runMany group(s)" % len(doc["groups"])
                 if doc.get("groups") else ""))
    if kind == "flight":
        return ("flight dump of %s, reason %s, %d event(s), %d open "
                "span(s)" % (doc["job"], doc["reason"], len(doc["events"]),
                             len(doc["open_spans"])))
    events = doc["events"]
    groups = span_groups(events)
    truncated = sum(check_span_group(k, s)[1] for k, s in groups.items())
    return ("%d event(s), %d sampled request trace(s)%s, %d slo_burn / %d "
            "slo_recovered" %
            (len(events), len(groups),
             ", %d head-truncated by ring overflow" % truncated
             if truncated else "",
             sum(e["type"] == "slo_burn" for e in events),
             sum(e["type"] == "slo_recovered" for e in events)))


def cmd_check(args):
    ok, benches = True, 0
    for path in args.files:
        loaded = open_valid(path)
        if loaded is None:
            ok = False
            continue
        kind, doc = loaded
        print("%s: ok (%s)" % (path, summary(kind, doc)))
        if kind == "bench" and args.max_drift is not None:
            benches += 1
            ok = drift_check(path, doc, args.max_drift) and ok
    if args.max_drift is not None and not benches and ok:
        print("error: --max-drift: no BENCH file to check",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# show


def sparkline(values):
    """Map values onto a coarse per-character intensity scale."""
    if not values:
        return ""
    lo, span = min(values), max(values) - min(values)
    return "".join(
        SPARK[min(len(SPARK) - 1,
                  int((v - lo) / span * (len(SPARK) - 1)) if span else 0)]
        for v in values)


def print_counts(events, indent):
    counts = {}
    for event in events:
        counts[event["type"]] = counts.get(event["type"], 0) + 1
    for etype in sorted(counts):
        print("%s%6d  %s" % (indent, counts[etype], etype))


def show_telemetry(job):
    tel = job["telemetry"]
    epochs = tel["epochs"]
    print("== %s ==" % job["key"])
    print("   interval: %d accesses, %d epoch(s)%s" %
          (tel["interval"], len(epochs),
           ", %d dropped" % tel["epochs_dropped"]
           if tel.get("epochs_dropped") else ""))
    if not epochs:
        print()
        return
    # PD over time (PDP policies; skipped when the policy has no PD).
    if any("pd" in e["policy"] for e in epochs):
        print("\n   PD over time:")
        print("   epoch   access       PD  hit rate")
        for e in epochs:
            print("   %5s  %8d  %7s  %8.4f" %
                  (e.get("epoch"), e["access"], e["policy"].get("pd", 0),
                   e.get("hit_rate", 0.0)))
    rates = [e.get("hit_rate", 0.0) for e in epochs]
    print("\n   interval hit rate: min %.4f  max %.4f" %
          (min(rates), max(rates)))
    print("   [%s]" % sparkline(rates))
    if tel.get("events"):
        print("\n   events:%s" %
              (" (%d dropped)" % tel["events_dropped"]
               if tel.get("events_dropped") else ""))
        print_counts(tel["events"], "   ")
    print()


def show_service(job):
    svc = job["service"]
    print("== %s (service) ==" % job["key"])
    print("   policy %s (%s)  joins %d  leaves %d  reallocs %d  aggregate "
          "hit rate %.4f" %
          (svc["policy"],
           "tenant-aware" if svc["tenant_aware"] else "unmanaged",
           svc["joins"], svc["leaves"], svc["reallocs"],
           svc.get("aggregate_hit_rate", 0.0)))
    print()
    print("   %-8s %4s %9s %9s %9s %7s %7s %7s  SLO" %
          ("tenant", "slot", "requests", "hit rate", "p99 miss", "quota",
           "occup", "drift"))
    for t in svc["tenants"]:
        slo = (("h" if t.get("slo_hit_rate_met") else "-") +
               ("l" if t.get("slo_latency_met") else "-"))
        print("   %-8s %4s %9d %9.4f %9.0f %7.3f %7.3f %7.3f  %s" %
              (t["name"], t.get("slot", "-"), t["requests"], t["hit_rate"],
               t["p99_miss_cycles"], t["mean_quota"], t["mean_occupancy"],
               t["occupancy_drift"], slo))
    print()


def show_bench(doc, args):
    shown = 0
    for job in doc["jobs"]:
        if args.job not in job["key"]:
            continue
        if "telemetry" in job:
            show_telemetry(job)
            shown += 1
        if "service" in job:
            show_service(job)
            shown += 1
    if not shown:
        print("no jobs with telemetry or service sections%s; run with "
              "--telemetry to record some" %
              (" matching '%s'" % args.job if args.job else ""))


def bar(f, origin, span, char):
    """A span's [cycles_begin, cycles_end) as a bar on the root's scale."""
    if span <= 0:
        return char
    lo = round((f["cycles_begin"] - origin) * BAR_WIDTH / span)
    hi = round((f["cycles_end"] - origin) * BAR_WIDTH / span)
    lo = min(max(lo, 0), BAR_WIDTH - 1)
    return " " * lo + char * max(1, min(hi, BAR_WIDTH) - lo)


def show_waterfall(key, spans):
    root = next((s for s in spans if s["type"] == "span:arrival"), None)
    if root is None:  # head-truncated by ring overflow; nothing to anchor
        return False
    f = root["fields"]
    origin, span = f["cycles_begin"], f["cycles_end"] - f["cycles_begin"]
    print("trace %#014x  %s  tenant %d  request %d  access %d  (%d cycles)"
          % (int(key[1]), key[0], f["tenant"], f["request"],
             root["access"], span))
    for s in spans:
        child = s is not root
        print("  %s%-12s %s" % ("  " if child else "", s["type"][5:],
                                bar(s["fields"], origin, span,
                                    "-" if child else "=")))
    print()
    return True


def show_burns(events):
    by_tenant = {}
    for e in events:
        if e["type"] in BURN_TYPES:
            by_tenant.setdefault((e["job"], int(e["fields"]["tenant"])),
                                 []).append(e)
    if not by_tenant:
        print("no slo_burn / slo_recovered events (all tenants stayed "
              "inside budget)")
        return
    print("burn-rate timeline (access: burn rate at each crossing):")
    for (job, tenant), crossings in sorted(by_tenant.items()):
        print("  %s tenant %d: %s" % (job, tenant, "  ".join(
            "%s@%d burn=%.2f" % ("BURN" if e["type"] == "slo_burn" else "ok",
                                 e["access"], e["fields"]["burn_rate"])
            for e in crossings)))
    print()


def show_trace(path, doc, args):
    events = [e for e in doc["events"] if args.job in e["job"]]
    print("%s: %s (%d event(s))\n" %
          (path, doc["header"].get("experiment", "?"), len(events)))
    groups = span_groups(events)
    shown = 0
    for key, spans in groups.items():
        if shown >= args.limit:
            print("... %d more sampled trace(s) (raise --limit)\n" %
                  (len(groups) - shown))
            break
        shown += show_waterfall(key, spans)
    if not groups:
        print("no span events (run with --obs-sample-rate > 0)\n")
    show_burns(events)
    print("event counts:")
    print_counts(events, "  ")


def show_flight(path, doc):
    print("%s: flight dump" % path)
    print("  job:        %s" % doc["job"])
    print("  reason:     %s%s" %
          (doc["reason"],
           " — " + doc["detail"] if doc.get("detail") else ""))
    print("  events:     %d ring entries%s" %
          (len(doc["events"]),
           ", %d dropped before capture" % doc["events_dropped"]
           if doc.get("events_dropped") else ""))
    print("  open spans: %d" % len(doc["open_spans"]))
    for s in doc["open_spans"]:
        print("    trace %#014x tenant %d request %d (access %d)" %
              (int(s["trace_id"]), int(s["tenant"]), int(s["request"]),
               int(s.get("access", 0))))
    print("  metrics:    %d counter(s)/gauge(s)" % len(doc["metrics"]))


def cmd_show(args):
    status = 0
    for path in args.files:
        loaded = open_valid(path)
        if loaded is None:
            status = 1
        elif loaded[0] == "bench":
            show_bench(loaded[1], args)
        elif loaded[0] == "trace":
            show_trace(path, loaded[1], args)
        else:
            show_flight(path, loaded[1])
    return status


# ---------------------------------------------------------------------------
# diff


def job_scalars(job):
    """Flatten one BENCH job's numeric results to dotted-path scalars."""
    out = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for name, value in node.items():
                walk(prefix + "." + name, value)
        elif isinstance(node, NUMBER) and not isinstance(node, bool):
            out[prefix] = float(node)

    for section in ("metrics", "single", "multi", "service"):
        if section in job:
            walk(section, job[section])
    return out


def cmd_diff(args):
    docs = []
    for path in (args.old, args.new):
        loaded = open_valid(path)
        if loaded is None:
            return 1
        if loaded[0] != "bench":
            print("error: %s: diff compares BENCH files, not %s" %
                  (path, loaded[0].upper()), file=sys.stderr)
            return 1
        docs.append({j["key"]: j for j in loaded[1]["jobs"]})
    old_jobs, new_jobs = docs
    regressions = changes = 0
    for key in sorted(set(old_jobs) & set(new_jobs)):
        old_vals, new_vals = job_scalars(old_jobs[key]), \
            job_scalars(new_jobs[key])
        for name in sorted(set(old_vals) & set(new_vals)):
            a, b = old_vals[name], new_vals[name]
            if a == b:
                continue
            delta = (b - a) / abs(a) if a else float("inf")
            changes += 1
            flag = abs(delta) > args.tolerance
            regressions += flag
            print("%s %s %s: %g -> %g (%+.2f%%)" %
                  ("!" if flag else " ", key, name, a, b, delta * 100))
    only_old = sorted(set(old_jobs) - set(new_jobs))
    for key in only_old:
        print("! %s: missing from %s" % (key, args.new))
    for key in sorted(set(new_jobs) - set(old_jobs)):
        print("  %s: new in %s" % (key, args.new))
    print("\n%d changed metric(s), %d beyond tolerance %.2f%%, %d job(s) "
          "missing" % (changes, regressions, args.tolerance * 100,
                       len(only_old)))
    return 1 if regressions or only_old else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate, render and diff BENCH / TRACE / FLIGHT "
        "files (see the module docstring)")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="validate files; exit 1 if any "
                           "is malformed")
    check.add_argument("files", nargs="+")
    check.add_argument("--max-drift", type=float, metavar="B",
                       help="fail if a service tenant's quota-vs-occupancy "
                       "drift exceeds B, in (0, 1]")
    show = sub.add_parser("show", help="validate and render files")
    show.add_argument("files", nargs="+")
    show.add_argument("--job", default="",
                      help="only jobs whose key contains this substring")
    show.add_argument("--limit", type=int, default=5,
                      help="sampled request traces to draw (default: 5)")
    diff = sub.add_parser("diff", help="per-job metric diff of two BENCH "
                          "files")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.add_argument("--tolerance", type=float, default=0.05,
                      help="relative change beyond which a metric counts "
                      "as a regression (default: 0.05)")
    args = parser.parse_args(argv)
    if args.command == "check":
        if args.max_drift is not None and not 0.0 < args.max_drift <= 1.0:
            parser.error("--max-drift must be in (0, 1]")
        return cmd_check(args)
    return cmd_show(args) if args.command == "show" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
