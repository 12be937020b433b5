#!/usr/bin/env python3
"""Self-test for tools/report.py (stdlib unittest only).

Every fixture is built in the test: a BENCH document with telemetry,
service and runMany-group records, a TRACE stream with spans and SLO
burn crossings, and a FLIGHT dump.  Each rejection rule is exercised by
breaking one thing in an otherwise valid fixture.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import report  # noqa: E402


def epoch(n, access, hits, misses, pd=None):
    return {"epoch": n, "access": access, "accesses": hits + misses,
            "hits": hits, "misses": misses, "bypasses": 0,
            "hit_rate": hits / (hits + misses),
            "policy": {} if pd is None else {"pd": pd}}


def tenant(name, slot, drift):
    return {"name": name, "slot": slot, "requests": 100, "hit_rate": 0.5,
            "p99_miss_cycles": 300.0, "mean_quota": 0.25,
            "mean_occupancy": 0.25 + drift, "occupancy_drift": drift,
            "slo_hit_rate_met": True, "slo_latency_met": False}


def bench():
    """A valid v2 BENCH document: telemetry, service, a runMany group."""
    jobs = [
        {"key": "fig10/gcc/PDP-3", "seed": 7, "status": "ok",
         "seconds": 0.5,
         "telemetry": {
             "interval": 1000,
             "epochs": [epoch(0, 1000, 300, 700, pd=64),
                        epoch(1, 2000, 500, 500, pd=72)],
             "events": [{"type": "pd_change", "access": 2000,
                         "fields": {"from": 64, "to": 72}}],
             "events_dropped": 0}},
        {"key": "service/t2/PDP-3", "seed": 9, "status": "ok",
         "seconds": 0.25,
         "service": {"policy": "PDP-3", "tenant_aware": True, "joins": 2,
                     "leaves": 0, "reallocs": 1,
                     "aggregate_hit_rate": 0.5,
                     "tenants": [tenant("t0", 0, 0.05),
                                 tenant("t1", 1, 0.1)]}},
        {"key": "sweep/gcc/a", "seed": 3, "status": "ok",
         "group": "sweep/gcc/lockstep", "metrics": {"hit_rate": 0.5}},
        {"key": "sweep/gcc/b", "seed": 3, "status": "ok",
         "group": "sweep/gcc/lockstep", "metrics": {"hit_rate": 0.6}},
    ]
    return {"schema": "pdp-bench-results/v2", "experiment": "unit",
            "job_count": len(jobs), "jobs": jobs,
            "groups": {"sweep/gcc/lockstep": {"records": 2,
                                              "seconds": 1.5}}}


def span(stage, parent, span_id, begin=100, end=140, trace_id=0xabc,
         job="service/t2/PDP-3", access=10):
    return {"job": job, "type": "span:" + stage, "access": access,
            "fields": {"trace_id": trace_id, "span_id": span_id,
                       "parent": parent, "tenant": 1, "slot": 1,
                       "request": 5, "cycles_begin": begin,
                       "cycles_end": end}}


def request_spans(trace_id=0xabc, stages=("l2_miss", "llc_probe",
                                          "llc_hit")):
    root = span("arrival", 0, 1, trace_id=trace_id)
    return [root] + [span(s, 1, 2 + i, trace_id=trace_id)
                     for i, s in enumerate(stages)]


def burn(kind="slo_burn", access=20, rate=2.5):
    return {"job": "service/t2/PDP-3", "type": kind, "access": access,
            "fields": {"tenant": 1, "slot": 1, "burn_rate": rate,
                       "violations": 3, "window": 64}}


HEADER = {"schema": "pdp-bench-trace/v1", "experiment": "service",
          "git": "test"}


def trace_events():
    return ([{"job": "fig10/gcc/PDP-3", "type": "pd_change",
              "access": 2000, "fields": {"from": 64, "to": 72}}] +
            request_spans() + [burn(), burn("slo_recovered", 40, 0.5)])


def flight():
    return {"schema": "pdp-flight/v1", "job": "service/t2/PDP-3",
            "reason": "check_failure", "detail": "injected fault",
            "events": [{"type": "span:arrival", "access": 999,
                        "fields": {"trace_id": 1}}],
            "open_spans": [{"trace_id": 0xabc, "span_id": 1, "tenant": 1,
                            "request": 5, "access": 999}],
            "metrics": {"telemetry.span_events": 4}}


class ReportTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        self.count = 0

    def write(self, payload, name=None):
        self.count += 1
        path = os.path.join(self._dir.name, name or "f%d" % self.count)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str)
                     else json.dumps(payload, indent=2))
        return path

    def write_trace(self, events, header=HEADER, prefix=""):
        return self.write(prefix + "\n".join(
            json.dumps(x) for x in [header] + list(events)) + "\n")

    def run_tool(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = report.main(list(argv))
        self.out, self.err = out.getvalue(), err.getvalue()
        return status

    def assertRejected(self, path, command="check", expect=""):
        self.assertEqual(self.run_tool(command, path), 1, self.out)
        self.assertIn("error: " + path, self.err)
        self.assertIn(expect, self.err)

    # -- each kind accepted ------------------------------------------------

    def test_bench_accepted(self):
        path = self.write(bench())
        self.assertEqual(self.run_tool("check", path), 0, self.err)
        self.assertIn("ok (schema v2, 4 job(s), 1 with telemetry, 1 "
                      "service, 1 runMany group(s))", self.out)

    def test_v1_bench_accepted(self):
        doc = {"schema": "pdp-bench-results/v1", "experiment": "old",
               "job_count": 1,
               "jobs": [{"key": "a", "seed": 1, "status": "ok"}]}
        self.assertEqual(self.run_tool("check", self.write(doc)), 0)
        self.assertIn("schema v1", self.out)

    def test_trace_accepted(self):
        path = self.write_trace(trace_events())
        self.assertEqual(self.run_tool("check", path), 0, self.err)
        self.assertIn("ok (7 event(s), 1 sampled request trace(s), "
                      "1 slo_burn / 1 slo_recovered)", self.out)

    def test_header_only_trace_accepted(self):
        self.assertEqual(self.run_tool("check", self.write_trace([])), 0)
        self.assertIn("ok (0 event(s)", self.out)

    def test_flight_accepted(self):
        path = self.write(flight())
        self.assertEqual(self.run_tool("check", path), 0, self.err)
        self.assertIn("reason check_failure", self.out)

    def test_check_takes_every_kind_in_one_call(self):
        paths = [self.write(bench()), self.write_trace(trace_events()),
                 self.write(flight())]
        self.assertEqual(self.run_tool("check", *paths), 0, self.err)
        self.assertEqual(self.out.count(": ok ("), 3)
        # One bad file fails the whole call but the rest are still read.
        paths.insert(1, self.write("not json"))
        self.assertEqual(self.run_tool("check", *paths), 1)
        self.assertEqual(self.out.count(": ok ("), 3)

    def test_old_mode_flags_are_gone(self):
        path = self.write(bench())
        for flag in ("--check", "--flight", "--diff"):
            with contextlib.redirect_stderr(io.StringIO()):
                with self.assertRaises(SystemExit):
                    report.main([flag, path])

    # -- rejections ---------------------------------------------------------

    def test_unknown_files_rejected(self):
        self.assertRejected(self.write("[\n1\n]"),
                            expect="not a BENCH, TRACE or FLIGHT document")
        for payload in ("", "\n\n", "not json", "[1, 2]", "{\"a\": 1}",
                        json.dumps({"schema": "pdp-bench-results/v9"}),
                        json.dumps(dict(flight(), schema="pdp-flight/v2")),
                        "{\n  \"schema\": \"pdp-bench-results/v2\",\n"):
            self.assertRejected(self.write(payload))
        self.assertRejected(os.path.join(self._dir.name, "missing.json"))
        self.assertRejected(self.write(json.dumps(
            {"schema": "pdp-bench-results/v9"})),
            expect="unknown schema 'pdp-bench-results/v9'")
        self.assertRejected(self.write_trace([["not", "an", "event"]]),
                            expect="line 2: event is not an object")

    def test_bench_rejections(self):
        def set_(path, value):
            def mutate(doc):
                node = doc
                for part in path[:-1]:
                    node = node[part]
                if value is KeyError:
                    del node[path[-1]]
                else:
                    node[path[-1]] = value
            return mutate

        tel = ("jobs", 0, "telemetry")
        svc = ("jobs", 1, "service")
        t0 = svc + ("tenants", 0)
        cases = {
            "experiment missing": set_(("experiment",), KeyError),
            "jobs not a list": set_(("jobs",), {}),
            "job_count off": set_(("job_count",), 3),
            "job not an object": set_(("jobs", 0), "job"),
            "key missing": set_(("jobs", 0, "key"), KeyError),
            "seed missing": set_(("jobs", 0, "seed"), KeyError),
            "seed not int": set_(("jobs", 0, "seed"), "7"),
            "status missing": set_(("jobs", 0, "status"), KeyError),
            "telemetry not object": set_(tel, []),
            "interval missing": set_(tel + ("interval",), KeyError),
            "epochs missing": set_(tel + ("epochs",), KeyError),
            "epoch not object": set_(tel + ("epochs", 0), 1),
            "epochs not increasing": set_(tel + ("epochs", 1, "access"),
                                          1000),
            "epoch policy missing": set_(tel + ("epochs", 0, "policy"),
                                         KeyError),
            "epoch bypasses missing": set_(tel + ("epochs", 0,
                                                  "bypasses"), KeyError),
            "hits + misses != accesses": set_(tel + ("epochs", 0, "hits"),
                                              301),
            "event without fields": set_(tel + ("events", 0, "fields"),
                                         KeyError),
            "event access not int": set_(tel + ("events", 0, "access"),
                                         "x"),
            "service not object": set_(svc, 1),
            "service policy missing": set_(svc + ("policy",), KeyError),
            "tenant_aware not bool": set_(svc + ("tenant_aware",), 1),
            "reallocs missing": set_(svc + ("reallocs",), KeyError),
            "no tenants": set_(svc + ("tenants",), []),
            "tenant not object": set_(t0, "t0"),
            "tenant name missing": set_(t0 + ("name",), KeyError),
            "p99 missing": set_(t0 + ("p99_miss_cycles",), KeyError),
            "requests missing": set_(t0 + ("requests",), KeyError),
            "group not in groups": set_(("jobs", 2, "group"), "nope"),
            "grouped record with seconds": set_(("jobs", 2, "seconds"),
                                                1.5),
            "group records off": set_(("groups", "sweep/gcc/lockstep",
                                       "records"), 3),
            "group seconds missing": set_(("groups", "sweep/gcc/lockstep",
                                           "seconds"), KeyError),
            "groups section missing": set_(("groups",), KeyError),
            "groups not an object": set_(("groups",), []),
            "group entry not an object": set_(("groups",
                                               "sweep/gcc/lockstep"), 2),
        }
        for field in ("hit_rate", "mean_quota", "mean_occupancy",
                      "occupancy_drift"):
            cases[field + " > 1"] = set_(t0 + (field,), 1.5)
            cases[field + " < 0"] = set_(t0 + (field,), -0.1)
        # Type guards must name the problem, not trip over it later.
        expect = {
            "job not an object": "job is not an object",
            "telemetry not object": "telemetry is not an object",
            "epoch not object": "epoch is not an object",
            "service not object": "service is not an object",
            "tenant not object": "tenant is not an object",
            "groups not an object": "groups is not a v2 object",
            "group entry not an object": "group sweep/gcc/lockstep: not "
                                         "an object",
            "group not in groups": "sweep/gcc/a: group 'nope' is not in "
                                   "the groups section",
            "hits + misses != accesses": "hits + misses != accesses",
            "grouped record with seconds": "a grouped record carries "
                                           "'seconds'",
        }
        for name, mutate in cases.items():
            with self.subTest(name):
                doc = bench()
                mutate(doc)
                self.assertRejected(self.write(doc),
                                    expect=expect.get(name, ""))
        for section in ("telemetry", "service"):
            with self.subTest(section + " in v1"):
                doc = bench()
                doc["schema"] = "pdp-bench-results/v1"
                del doc["groups"]
                for job in doc["jobs"]:
                    job.pop("group", None)
                    if section not in job:
                        job.pop("telemetry" if section == "service"
                                else "service", None)
                self.assertRejected(self.write(doc))

    def test_trace_rejections(self):
        def broken(**fields):
            events = request_spans()
            events[2]["fields"].update(fields)
            return events

        def without(index, field):
            events = trace_events()
            del events[index][field]
            return events

        truncated = request_spans()[1:]
        # Keyed by the error each broken stream must produce.
        cases = {
            "line 1: expected a header with schema": (
                [burn()], {"schema": "pdp-bench-results/v2"}),
            "line 2: missing 'job'": (without(0, "job"), HEADER),
            "line 2: missing 'type'": (without(0, "type"), HEADER),
            "line 2: missing 'access'": (without(0, "access"), HEADER),
            "line 2: missing 'fields'": (without(0, "fields"), HEADER),
            "2 span:arrival roots": (
                request_spans() + [span("arrival", 0, 9)], HEADER),
            "span:llc_hit missing field 'slot'": ([dict(s, fields={
                k: v for k, v in s["fields"].items() if k != "slot"})
                for s in request_spans()], HEADER),
            "span:llc_probe ends before it begins": (
                broken(cycles_end=50), HEADER),
            "unknown stage 'l3_hit'": (
                request_spans(stages=("l3_hit",)), HEADER),
            "root has nonzero parent": (
                [span("arrival", 4, 1), span("l2_hit", 1, 2)], HEADER),
            "child span not parented to the root": (
                broken(parent=77), HEADER),
            "stage path ['llc_hit'] is not a valid lifecycle": (
                request_spans(stages=("llc_hit",)), HEADER),
            "rootless group with inconsistent parents": (
                [truncated[0], dict(truncated[1], fields=dict(
                    truncated[1]["fields"], parent=8)), truncated[2]],
                HEADER),
            "rootless stage path ['l2_miss', 'llc_probe'] is not a "
            "lifecycle suffix": (truncated[:2], HEADER),
            "duplicate span ids": (broken(span_id=1), HEADER),
            "slo_burn@20: missing field 'window'": ([dict(burn(), fields={
                "tenant": 1, "slot": 1, "burn_rate": 2.0,
                "violations": 1})], HEADER),
        }
        for expect, (events, header) in cases.items():
            with self.subTest(expect):
                self.assertRejected(self.write_trace(events, header),
                                    expect=expect)
        with self.subTest("line not JSON"):
            self.assertRejected(self.write(
                json.dumps(HEADER) + "\n{\"job\": \n"),
                expect="line 2: not JSON")

    def test_flight_rejections(self):
        cases = {
            "missing job key": ("job", None),
            "reason 'bored' not in": ("reason", "bored"),
            "events is not an array": ("events", {}),
            "events[0]: missing 'access'": ("events", [{"type": "x"}]),
            "open_spans is not an array": ("open_spans", 3),
            "open_spans[0]: not an object": ("open_spans", [3]),
            "open_spans[0]: missing 'request'": ("open_spans", [
                {"trace_id": 1, "span_id": 2, "tenant": 0}]),
            "metrics is not an object": ("metrics", []),
        }
        for expect, (key, value) in cases.items():
            with self.subTest(expect):
                doc = flight()
                if value is None:
                    del doc[key]
                else:
                    doc[key] = value
                self.assertRejected(self.write(doc), expect=expect)

    # -- the two rules the old tools disagreed on ---------------------------

    def test_blank_first_line_trace_is_accepted(self):
        path = self.write_trace(trace_events(), prefix="\n")
        self.assertEqual(self.run_tool("check", path), 0, self.err)
        self.assertEqual(self.run_tool("show", path), 0, self.err)

    def test_event_without_fields_is_rejected_by_every_subcommand(self):
        events = trace_events()
        del events[0]["fields"]
        path = self.write_trace(events)
        self.assertRejected(path, "check")
        self.assertIn("line 2: missing 'fields'", self.err)
        self.assertRejected(path, "show")

    # -- --max-drift ---------------------------------------------------------

    def test_max_drift_pass(self):
        path = self.write(bench())
        self.assertEqual(self.run_tool("check", "--max-drift", "0.2", path),
                         0, self.err)
        self.assertIn("drift check: ok (worst 0.1000 at "
                      "service/t2/PDP-3/t1, bound 0.2)", self.out)

    def test_max_drift_fail(self):
        path = self.write(bench())
        self.assertEqual(
            self.run_tool("check", "--max-drift", "0.08", path), 1)
        self.assertIn("service/t2/PDP-3/t1: occupancy drift 0.1000 "
                      "exceeds --max-drift 0.08", self.err)
        self.assertNotIn("t0", self.err)

    def test_max_drift_without_service_jobs_fails(self):
        doc = bench()
        del doc["jobs"][1]
        doc["job_count"] = 3
        path = self.write(doc)
        self.assertEqual(self.run_tool("check", "--max-drift", "0.2", path),
                         1)
        self.assertIn("no service jobs to check", self.err)
        trace = self.write_trace(trace_events())
        self.assertEqual(
            self.run_tool("check", "--max-drift", "0.2", trace), 1)
        self.assertIn("no BENCH file", self.err)

    def test_max_drift_range(self):
        path = self.write(bench())
        for bound in ("0", "1.5"):
            with contextlib.redirect_stderr(io.StringIO()):
                with self.assertRaises(SystemExit):
                    report.main(["check", "--max-drift", bound, path])

    # -- diff -----------------------------------------------------------------

    def test_diff_exit_codes(self):
        old = self.write(bench())
        self.assertEqual(self.run_tool("diff", old, old), 0)
        self.assertIn("0 changed metric(s)", self.out)

        near = bench()
        near["jobs"][2]["metrics"]["hit_rate"] = 0.51  # +2%
        self.assertEqual(self.run_tool("diff", old, self.write(near)), 0)
        self.assertIn("1 changed metric(s), 0 beyond", self.out)

        far = bench()
        far["jobs"][1]["service"]["aggregate_hit_rate"] = 0.6
        self.assertEqual(self.run_tool("diff", old, self.write(far)), 1)
        self.assertIn("! service/t2/PDP-3 service.aggregate_hit_rate: "
                      "0.5 -> 0.6", self.out)
        self.assertEqual(self.run_tool("diff", "--tolerance", "0.5", old,
                                       self.write(far)), 0)

        fewer = bench()
        del fewer["jobs"][0]
        fewer["job_count"] = 3
        fewer_path = self.write(fewer)
        self.assertEqual(self.run_tool("diff", old, fewer_path), 1)
        self.assertIn("! fig10/gcc/PDP-3: missing from", self.out)
        # A job only the new file has is reported but does not fail.
        self.assertEqual(self.run_tool("diff", fewer_path, old), 0)
        self.assertIn("fig10/gcc/PDP-3: new in", self.out)

    def test_diff_rejects_non_bench_input(self):
        old = self.write(bench())
        for other in (self.write(flight()), self.write_trace([])):
            self.assertEqual(self.run_tool("diff", old, other), 1)
            self.assertIn("diff compares BENCH files", self.err)
        self.assertEqual(self.run_tool("diff", self.write("{"), old), 1)

    # -- rendering ------------------------------------------------------------

    def test_show_bench(self):
        doc = bench()
        doc["jobs"][0]["telemetry"]["events_dropped"] = 4
        doc["registry"] = {"telemetry.trace_dropped_events": 4}
        path = self.write(doc)
        self.assertEqual(self.run_tool("show", path), 0, self.err)
        self.assertIn("PD over time:", self.out)
        self.assertIn("       0      1000       64    0.3000", self.out)
        self.assertIn("interval hit rate: min 0.3000  max 0.5000",
                      self.out)
        self.assertIn("[ @]", self.out)
        self.assertIn("events: (4 dropped)", self.out)
        self.assertIn("     1  pd_change", self.out)
        self.assertIn("policy PDP-3 (tenant-aware)  joins 2", self.out)
        self.assertIn("   t1          1       100    0.5000       300   "
                      "0.250   0.350   0.100  h-", self.out)
        self.assertIn("fig10/gcc/PDP-3: 4 event(s) dropped", self.err)
        self.assertIn("registry telemetry.trace_dropped_events = 4",
                      self.err)

        self.assertEqual(self.run_tool("show", path, "--job", "service"), 0)
        self.assertNotIn("PD over time", self.out)
        self.assertIn("(service)", self.out)
        self.assertEqual(self.run_tool("show", path, "--job", "nope"), 0)
        self.assertIn("no jobs with telemetry or service sections "
                      "matching 'nope'", self.out)

    def test_show_trace(self):
        events = trace_events() + request_spans(trace_id=0xdef)
        path = self.write_trace(events)
        self.assertEqual(self.run_tool("show", path, "--limit", "1"), 0,
                         self.err)
        self.assertIn("trace 0x000000000abc  service/t2/PDP-3  tenant 1  "
                      "request 5  access 10  (40 cycles)", self.out)
        self.assertIn("... 1 more sampled trace(s)", self.out)
        self.assertIn("service/t2/PDP-3 tenant 1: BURN@20 burn=2.50  "
                      "ok@40 burn=0.50", self.out)
        self.assertIn("event counts:", self.out)
        self.assertIn("       2  span:arrival", self.out)

        self.assertEqual(self.run_tool("show", path, "--job", "fig10"), 0)
        self.assertIn("(1 event(s))", self.out)
        self.assertIn("no span events", self.out)
        self.assertIn("no slo_burn / slo_recovered events", self.out)

    def test_show_flight(self):
        path = self.write(flight())
        self.assertEqual(self.run_tool("show", path), 0, self.err)
        self.assertIn("reason:     check_failure — injected fault",
                      self.out)
        self.assertIn("trace 0x000000000abc tenant 1 request 5 (access 999)",
                      self.out)
        self.assertIn("metrics:    1 counter(s)/gauge(s)", self.out)

    def test_rootless_head_truncated_group(self):
        # The ring dropped the root (and l2_miss): a valid suffix remains.
        events = request_spans()[2:] + request_spans(trace_id=0xdef)
        path = self.write_trace(events)
        self.assertEqual(self.run_tool("check", path), 0, self.err)
        self.assertIn("2 sampled request trace(s), 1 head-truncated by "
                      "ring overflow", self.out)
        self.assertEqual(self.run_tool("show", path), 0)
        self.assertNotIn("trace 0x000000000abc", self.out)  # nothing to anchor
        self.assertIn("trace 0x000000000def", self.out)

    def test_waterfall_bars_are_proportional(self):
        events = [span("arrival", 0, 1, begin=100, end=140),
                  span("l2_miss", 1, 2, begin=100, end=101),
                  span("llc_probe", 1, 3, begin=100, end=130),
                  span("llc_hit", 1, 4, begin=130, end=131)]
        self.assertEqual(self.run_tool("show", self.write_trace(events)), 0,
                         self.err)
        lines = self.out.splitlines()
        self.assertIn("  arrival      " + "=" * 40, lines)
        self.assertIn("    l2_miss      -", lines)
        self.assertIn("    llc_probe    " + "-" * 30, lines)
        self.assertIn("    llc_hit      " + " " * 30 + "-", lines)


if __name__ == "__main__":
    unittest.main()
