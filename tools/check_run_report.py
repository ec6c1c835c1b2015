#!/usr/bin/env python3
"""Validate a thistle-opt --trace-json run report against the schema.

The schema (thistle-run-report/1) is pinned in docs/OBSERVABILITY.md.
Stdlib only; exits 0 when the report validates, 1 with a list of
violations otherwise.

Usage:
  check_run_report.py [--canonical | --for-diff] report.json
  check_run_report.py --serve responses.jsonl
  check_run_report.py --extract-report responses.jsonl
  check_run_report.py --serve-consistency report.json responses.jsonl...

With --canonical the report is validated and then printed to stdout in
a canonical form with the volatile fields (timings, trace, metrics,
cache traffic, persistence/shard accounting) removed — two runs that
computed the same result canonicalize to identical bytes, which is how
the resume/shard drivers compare a resumed or merged run against an
uninterrupted one.

--for-diff goes one step further and also drops the tool name and the
thread count, producing the normal form shared by thistle-opt reports
and the canonical reports embedded in thistle-serve/1 responses: the
same query must produce the same --for-diff bytes from either tool.

--serve validates a file of newline-delimited thistle-serve/1 response
envelopes (docs/SERVING.md): field order, status/exit-code agreement,
the per-request server section, and every embedded report against the
canonical-projection schema. --extract-report prints each non-null
embedded report in --for-diff normal form, one per line, for
byte-comparison against `thistle-opt --trace-json` output.

--serve-consistency cross-checks a daemon's shutdown run report
against every response it sent: the response count and the per-request
server.cache counters must sum exactly to the report's serve section
(the stats-vs-report contract).
"""

import json
import sys

SCHEMA = "thistle-run-report/1"

TOP_FIELDS = {
    "schema": str,
    "tool": str,
    "workload": str,
    "mode": str,
    "objective": str,
    "hierarchy": str,
    "threads": int,
    "wall_seconds": (int, float),
    "exit_code": int,
    "result": dict,
    "evaluator": dict,
    # "sweep", "network", "persistence", "shards" and "serve" are dict
    # or the literal false; checked separately.
    "metrics": dict,
    "trace": dict,
}

# The canonical projection embedded in thistle-serve/1 responses: the
# header minus the volatile fields. Sections are restricted separately.
EMBEDDED_TOP_FIELDS = {
    "schema": str,
    "tool": str,
    "workload": str,
    "mode": str,
    "objective": str,
    "hierarchy": str,
    "threads": int,
    "exit_code": int,
    "result": dict,
    "evaluator": dict,
}

# Volatile by construction; an embedded canonical report carrying any
# of these would break the byte-identity guarantee.
EMBEDDED_FORBIDDEN = (
    "wall_seconds", "metrics", "trace", "persistence", "shards", "serve",
)

RESULT_FIELDS = {
    "found": bool,
    "energy_pj": (int, float, type(None)),
    "energy_per_mac_pj": (int, float, type(None)),
    "cycles": (int, float, type(None)),
    "mac_ipc": (int, float, type(None)),
    "edp_pj_cycles": (int, float, type(None)),
}

EVALUATOR_FIELDS = {
    "backend": str,
    "cross_check": bool,
    "evals": int,
    "divergent_evals": int,
    "counters_compared": int,
    "counter_mismatches": int,
    "max_abs_delta": (int, float),
    "max_rel_delta": (int, float),
    "samples": list,
}

EVALUATOR_SAMPLE_FIELDS = {
    "counter": str,
    "primary": int,
    "reference": int,
}

# The in-tree backend spellings plus the cross-check mode; a report
# naming anything else either predates a backend rename or was emitted
# by a build carrying unreviewed registry entries.
EVALUATOR_BACKENDS = {"nest", "maestro", "both"}

SWEEP_FIELDS = {
    "task_noun": str,
    "tasks": int,
    "solved": int,
    "retried": int,
    "degraded": int,
    "infeasible": int,
    "failed": int,
    "skipped": int,
    "skipped_by_policy": int,
    "deadline_expired": bool,
    "clean": bool,
    "incidents": list,
}

# Every name `thistle-opt --network` accepts (docs/WORKLOADS.md):
# the Table II pipelines plus the general-conv tables.
NETWORK_NAMES = {"resnet18", "yolo9000", "all", "mobilenetv2", "dcgan"}

NETWORK_FIELDS = {
    "layers_total": int,
    "layers_found": int,
    "unique_shapes": int,
    "cache_enabled": bool,
    "cache_hits": int,
    "cache_misses": int,
    "arch_candidates": int,
    "summed_objective": (int, float, type(None)),
    "totals": dict,
    "layers": list,
}

# Dropped from the canonical projection embedded in thistle-serve/1
# responses: the counters depend on whether the cache was cold or hot,
# which must not leak into the served bytes.
NETWORK_VOLATILE_FIELDS = ("cache_hits", "cache_misses")

NETWORK_TOTALS_FIELDS = {
    "energy_pj": (int, float, type(None)),
    "cycles": (int, float, type(None)),
    "edp_pj_cycles": (int, float, type(None)),
    "energy_per_mac_pj": (int, float, type(None)),
    "macs": int,
}

NETWORK_LAYER_FIELDS = {
    "name": str,
    "shape_index": int,
    "multiplicity": int,
    "deduplicated": bool,
    "found": bool,
    "energy_pj": (int, float, type(None)),
    "cycles": (int, float, type(None)),
}

PERSISTENCE_FIELDS = {
    "directory": str,
    "capacity": int,
    "loaded_files": int,
    "loaded_entries": int,
    "append_failures": int,
    "evictions": int,
    "data_loss_detected": int,
    "problems": list,
    "snapshot_written": bool,
}

SHARDS_FIELDS = {
    "index": int,
    "count": int,
    "merge": bool,
}

SERVE_FIELDS = {
    "requests": int,
    "queries": int,
    "errors": int,
    "deduplicated": int,
    "solves": int,
    "cache_hits": int,
    "cache_misses": int,
    "cache_evictions": int,
    "compactions": int,
}

# The thistle-serve/1 response envelope, in serialized key order
# (docs/SERVING.md). "serve" appears only on stats responses.
ENVELOPE_KEYS = ("schema", "id", "status", "exit_code", "error",
                 "report", "serve", "server")
ENVELOPE_SCHEMA = "thistle-serve/1"
STATUS_BY_EXIT = {0: "ok", 1: "degraded", 2: "invalid", 3: "no-design"}

SERVER_SECTION_FIELDS = {
    "deduplicated": bool,
    "queue_depth": int,
    "latency_ms": (int, float),
    "cache": dict,
}

SERVER_CACHE_FIELDS = {
    "hit": int,
    "miss": int,
    "evictions": int,
}

INCIDENT_FIELDS = {
    "index": int,
    "a": int,
    "b": int,
    "outcome": str,
    "attempts": int,
    "detail": str,
}

SPAN_FIELDS = {
    "name": str,
    "epoch": int,
    "index": int,
    "depth": int,
    "start_ns": int,
    "duration_ns": int,
    "detail": str,
}

OUTCOMES = {"solved", "degraded", "infeasible", "failed", "skipped"}


def check_fields(obj, spec, where, errors):
    for name, types in spec.items():
        if name not in obj:
            errors.append(f"{where}: missing field '{name}'")
        elif not isinstance(obj[name], types):
            errors.append(
                f"{where}.{name}: expected {types}, got "
                f"{type(obj[name]).__name__}"
            )


def validate(report, embedded=False):
    errors = []
    check_fields(report, EMBEDDED_TOP_FIELDS if embedded else TOP_FIELDS,
                 "$", errors)
    if embedded:
        for name in EMBEDDED_FORBIDDEN:
            if name in report:
                errors.append(
                    f"$.{name}: volatile field in embedded canonical report"
                )
    if report.get("schema") != SCHEMA:
        errors.append(
            f"$.schema: expected '{SCHEMA}', got {report.get('schema')!r}"
        )
    if report.get("exit_code") not in (0, 1, 2, 3):
        errors.append(f"$.exit_code: not a documented code: "
                      f"{report.get('exit_code')!r}")
    workload = report.get("workload")
    if isinstance(workload, str) and workload.startswith("network:"):
        name = workload.split(":", 1)[1]
        if name not in NETWORK_NAMES:
            errors.append(
                f"$.workload: unknown network {name!r} (expected one of "
                f"{sorted(NETWORK_NAMES)})"
            )

    result = report.get("result")
    if isinstance(result, dict):
        check_fields(result, RESULT_FIELDS, "$.result", errors)

    evaluator = report.get("evaluator")
    if isinstance(evaluator, dict):
        check_fields(evaluator, EVALUATOR_FIELDS, "$.evaluator", errors)
        backend = evaluator.get("backend")
        if isinstance(backend, str) and backend not in EVALUATOR_BACKENDS:
            errors.append(
                f"$.evaluator.backend: unknown backend {backend!r}"
            )
        if evaluator.get("cross_check") != (backend == "both"):
            errors.append(
                "$.evaluator.cross_check: inconsistent with backend"
            )
        if isinstance(evaluator.get("divergent_evals"), int) and \
                isinstance(evaluator.get("evals"), int) and \
                evaluator["divergent_evals"] > evaluator["evals"]:
            errors.append("$.evaluator.divergent_evals: exceeds evals")
        if isinstance(evaluator.get("counter_mismatches"), int) and \
                isinstance(evaluator.get("counters_compared"), int) and \
                evaluator["counter_mismatches"] > \
                evaluator["counters_compared"]:
            errors.append(
                "$.evaluator.counter_mismatches: exceeds counters_compared"
            )
        if evaluator.get("counter_mismatches") == 0 and \
                evaluator.get("max_abs_delta") not in (0, 0.0, None):
            errors.append(
                "$.evaluator.max_abs_delta: nonzero without mismatches"
            )
        samples = evaluator.get("samples")
        if isinstance(samples, list):
            for i, sample in enumerate(samples):
                where = f"$.evaluator.samples[{i}]"
                if not isinstance(sample, dict):
                    errors.append(f"{where}: not an object")
                    continue
                check_fields(sample, EVALUATOR_SAMPLE_FIELDS, where,
                             errors)

    sweep = report.get("sweep")
    if sweep is False:
        pass  # No sweep ran (validation failure before fan-out).
    elif isinstance(sweep, dict):
        check_fields(sweep, SWEEP_FIELDS, "$.sweep", errors)
        if isinstance(sweep.get("incidents"), list):
            for i, inc in enumerate(sweep["incidents"]):
                where = f"$.sweep.incidents[{i}]"
                if not isinstance(inc, dict):
                    errors.append(f"{where}: not an object")
                    continue
                check_fields(inc, INCIDENT_FIELDS, where, errors)
                if inc.get("outcome") not in OUTCOMES:
                    errors.append(
                        f"{where}.outcome: unknown outcome "
                        f"{inc.get('outcome')!r}"
                    )
        counts = [sweep.get(k) for k in
                  ("solved", "degraded", "infeasible", "failed", "skipped")]
        if all(isinstance(c, int) for c in counts) and \
                isinstance(sweep.get("tasks"), int):
            if sum(counts) != sweep["tasks"]:
                errors.append("$.sweep: outcome counts do not sum to tasks")
        if isinstance(sweep.get("skipped_by_policy"), int) and \
                isinstance(sweep.get("skipped"), int):
            if sweep["skipped_by_policy"] > sweep["skipped"]:
                errors.append(
                    "$.sweep.skipped_by_policy: exceeds skipped")
    else:
        errors.append("$.sweep: expected object or false")

    network = report.get("network")
    if network is False:
        pass  # Not a --network run.
    elif isinstance(network, dict):
        network_fields = NETWORK_FIELDS
        if embedded:
            network_fields = {k: v for k, v in NETWORK_FIELDS.items()
                              if k not in NETWORK_VOLATILE_FIELDS}
            for name in NETWORK_VOLATILE_FIELDS:
                if name in network:
                    errors.append(f"$.network.{name}: volatile field in "
                                  f"embedded canonical report")
        check_fields(network, network_fields, "$.network", errors)
        if isinstance(network.get("layers_found"), int) and \
                isinstance(network.get("layers_total"), int) and \
                network["layers_found"] > network["layers_total"]:
            errors.append("$.network.layers_found: exceeds layers_total")
        if isinstance(network.get("unique_shapes"), int) and \
                isinstance(network.get("layers_total"), int) and \
                network["unique_shapes"] > network["layers_total"]:
            errors.append("$.network.unique_shapes: exceeds layers_total")
        totals = network.get("totals")
        if isinstance(totals, dict):
            check_fields(totals, NETWORK_TOTALS_FIELDS,
                         "$.network.totals", errors)
        layers = network.get("layers")
        if isinstance(layers, list):
            if isinstance(network.get("layers_total"), int) and \
                    len(layers) != network["layers_total"]:
                errors.append(
                    "$.network.layers: row count != layers_total")
            for i, layer in enumerate(layers):
                where = f"$.network.layers[{i}]"
                if not isinstance(layer, dict):
                    errors.append(f"{where}: not an object")
                    continue
                check_fields(layer, NETWORK_LAYER_FIELDS, where, errors)
    else:
        errors.append("$.network: expected object or false")

    if embedded:
        return errors

    persistence = report.get("persistence")
    if persistence is False:
        pass  # No cache directory configured.
    elif isinstance(persistence, dict):
        check_fields(persistence, PERSISTENCE_FIELDS, "$.persistence",
                     errors)
        problems = persistence.get("problems")
        if isinstance(problems, list):
            for i, problem in enumerate(problems):
                if not isinstance(problem, str):
                    errors.append(
                        f"$.persistence.problems[{i}]: not a string")
            if isinstance(persistence.get("data_loss_detected"), int) and \
                    persistence["data_loss_detected"] != len(problems):
                errors.append(
                    "$.persistence.data_loss_detected: "
                    "!= len(problems)")
    else:
        errors.append("$.persistence: expected object or false")

    shards = report.get("shards")
    if shards is False:
        pass  # Not a sharded or merging run.
    elif isinstance(shards, dict):
        check_fields(shards, SHARDS_FIELDS, "$.shards", errors)
        if isinstance(shards.get("index"), int) and \
                isinstance(shards.get("count"), int) and \
                not 1 <= shards["index"] <= shards["count"]:
            errors.append("$.shards.index: outside 1..count")
        if persistence is False:
            errors.append(
                "$.shards: sharded run without a persistence section")
    else:
        errors.append("$.shards: expected object or false")

    serve = report.get("serve")
    if serve is False or serve is None:
        pass  # Not a thistle-serve shutdown report (absent pre-serve).
    elif isinstance(serve, dict):
        check_fields(serve, SERVE_FIELDS, "$.serve", errors)
        counts = {k: serve.get(k) for k in SERVE_FIELDS}
        if all(isinstance(v, int) for v in counts.values()):
            if counts["queries"] > counts["requests"]:
                errors.append("$.serve.queries: exceeds requests")
            if counts["errors"] > counts["requests"]:
                errors.append("$.serve.errors: exceeds requests")
            if counts["deduplicated"] > counts["queries"]:
                errors.append("$.serve.deduplicated: exceeds queries")
            if counts["solves"] > counts["queries"]:
                errors.append("$.serve.solves: exceeds queries")
    else:
        errors.append("$.serve: expected object or false")

    metrics = report.get("metrics")
    if isinstance(metrics, dict):
        counters = metrics.get("counters")
        if not isinstance(counters, dict):
            errors.append("$.metrics.counters: expected object")
        else:
            for name, value in counters.items():
                if not isinstance(value, int) or value < 0:
                    errors.append(
                        f"$.metrics.counters.{name}: not a non-negative int"
                    )
        stats = metrics.get("stats")
        if not isinstance(stats, dict):
            errors.append("$.metrics.stats: expected object")
        else:
            for name, stat in stats.items():
                where = f"$.metrics.stats.{name}"
                if not isinstance(stat, dict):
                    errors.append(f"{where}: expected object")
                    continue
                for field in ("count", "sum", "min", "max", "mean"):
                    if not isinstance(stat.get(field),
                                      (int, float, type(None))):
                        errors.append(f"{where}.{field}: not a number")

    trace = report.get("trace")
    if isinstance(trace, dict):
        if not isinstance(trace.get("dropped_spans"), int):
            errors.append("$.trace.dropped_spans: expected int")
        spans = trace.get("spans")
        if not isinstance(spans, list):
            errors.append("$.trace.spans: expected array")
        else:
            last_key = None
            for i, span in enumerate(spans):
                where = f"$.trace.spans[{i}]"
                if not isinstance(span, dict):
                    errors.append(f"{where}: not an object")
                    continue
                check_fields(span, SPAN_FIELDS, where, errors)
                if isinstance(span.get("index"), int) and \
                        span["index"] < -1:
                    errors.append(f"{where}.index: below -1")
                # Spans are merged in (epoch, index) order; -1 (NoIndex)
                # sorts last within its epoch.
                if isinstance(span.get("epoch"), int) and \
                        isinstance(span.get("index"), int):
                    index = span["index"]
                    key = (span["epoch"],
                           float("inf") if index == -1 else index)
                    if last_key is not None and key < last_key:
                        errors.append(
                            f"{where}: spans out of (epoch, index) order"
                        )
                    last_key = key
    return errors


# Fields that legitimately differ between runs computing the same
# result: timings, the span trace, telemetry counters, cache traffic
# (a resumed run hits where the original missed) and the durable-state
# accounting itself. Everything else — the result, the winner, the
# sweep outcomes, the per-layer rows — must match byte-for-byte.
CANONICAL_DROP_TOP = (
    "wall_seconds", "metrics", "trace", "persistence", "shards", "serve",
)
CANONICAL_DROP_NETWORK = ("cache_hits", "cache_misses")

# Additionally dropped by --for-diff: which tool answered and at what
# concurrency are not part of the answer.
DIFF_DROP_TOP = ("tool", "threads")


def canonicalize(report):
    out = {k: v for k, v in report.items() if k not in CANONICAL_DROP_TOP}
    network = out.get("network")
    if isinstance(network, dict):
        out["network"] = {
            k: v for k, v in network.items()
            if k not in CANONICAL_DROP_NETWORK
        }
    return out


def diff_form(report):
    """The normal form shared by thistle-opt and thistle-serve reports."""
    out = canonicalize(report)
    return {k: v for k, v in out.items() if k not in DIFF_DROP_TOP}


def dump_diff_form(report):
    return json.dumps(diff_form(report), sort_keys=True,
                      separators=(",", ":"))


def load_envelopes(path):
    """Parses a responses.jsonl file; returns (envelopes, errors)."""
    envelopes, errors = [], []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [ln for ln in handle.read().splitlines() if ln]
    except OSError as exc:
        return [], [f"{path}: {exc}"]
    for i, line in enumerate(lines):
        where = f"{path}:{i + 1}"
        try:
            env = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: not JSON: {exc}")
            continue
        if not isinstance(env, dict):
            errors.append(f"{where}: response is not an object")
            continue
        envelopes.append((where, env))
    return envelopes, errors


def validate_envelope(where, env):
    errors = []
    keys = [k for k in ENVELOPE_KEYS if k in env]
    if list(env.keys()) != keys:
        errors.append(f"{where}: envelope keys out of order or unknown: "
                      f"{list(env.keys())}")
    for required in ("schema", "status", "exit_code", "error", "report",
                     "server"):
        if required not in env:
            errors.append(f"{where}: missing '{required}'")
    if errors:
        return errors
    if env["schema"] != ENVELOPE_SCHEMA:
        errors.append(f"{where}.schema: expected '{ENVELOPE_SCHEMA}', "
                      f"got {env['schema']!r}")
    exit_code = env["exit_code"]
    if STATUS_BY_EXIT.get(exit_code) != env["status"]:
        errors.append(f"{where}: status {env['status']!r} does not match "
                      f"exit_code {exit_code!r}")
    if (exit_code == 2) != isinstance(env["error"], str):
        errors.append(f"{where}.error: must be a string exactly when "
                      "exit_code is 2")
    if exit_code == 2 and env["report"] is not None:
        errors.append(f"{where}.report: must be null on exit_code 2")
    report = env["report"]
    if report is not None:
        if not isinstance(report, dict):
            errors.append(f"{where}.report: expected object or null")
        else:
            for err in validate(report, embedded=True):
                errors.append(f"{where}.report{err[1:]}")
            if report.get("exit_code") != exit_code:
                errors.append(f"{where}.report.exit_code: disagrees with "
                              "envelope")
    if "serve" in env:
        if not isinstance(env["serve"], dict):
            errors.append(f"{where}.serve: expected object")
        else:
            check_fields(env["serve"], SERVE_FIELDS, f"{where}.serve",
                         errors)
    server = env["server"]
    if not isinstance(server, dict):
        errors.append(f"{where}.server: expected object")
        return errors
    check_fields(server, SERVER_SECTION_FIELDS, f"{where}.server", errors)
    cache = server.get("cache")
    if isinstance(cache, dict):
        check_fields(cache, SERVER_CACHE_FIELDS, f"{where}.server.cache",
                     errors)
    return errors


def check_serve_consistency(report, envelopes):
    """The stats-vs-report contract: per-response server.cache counters
    (zero on dedup joins) sum exactly to the daemon's lifetime serve
    section, and every request produced exactly one response."""
    errors = []
    serve = report.get("serve")
    if not isinstance(serve, dict):
        return ["$.serve: shutdown report has no serve section"]
    sums = {"hit": 0, "miss": 0, "evictions": 0}
    dedup = 0
    for _, env in envelopes:
        server = env.get("server")
        if not isinstance(server, dict):
            continue
        if server.get("deduplicated") is True:
            dedup += 1
        cache = server.get("cache")
        if isinstance(cache, dict):
            for key in sums:
                value = cache.get(key)
                if isinstance(value, int):
                    sums[key] += value
    expected = {
        "hit": serve.get("cache_hits"),
        "miss": serve.get("cache_misses"),
        "evictions": serve.get("cache_evictions"),
    }
    for key, total in sums.items():
        if total != expected[key]:
            errors.append(
                f"serve-consistency: sum of server.cache.{key} over "
                f"responses is {total}, report says {expected[key]}"
            )
    if dedup != serve.get("deduplicated"):
        errors.append(
            f"serve-consistency: {dedup} deduplicated responses, report "
            f"says {serve.get('deduplicated')}"
        )
    if len(envelopes) != serve.get("requests"):
        errors.append(
            f"serve-consistency: {len(envelopes)} responses captured, "
            f"report says {serve.get('requests')} requests"
        )
    return errors


def load_report(path):
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(report, dict):
        print(f"error: {path}: top-level JSON value is not an object",
              file=sys.stderr)
        return None
    return report


def fail(path, errors):
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"{path}: {len(errors)} violation(s)", file=sys.stderr)
    return 1


def main(argv):
    args = list(argv[1:])
    modes = [m for m in ("--canonical", "--for-diff", "--serve",
                         "--extract-report", "--serve-consistency")
             if m in args]
    if len(modes) > 1:
        print(f"error: {' and '.join(modes)} are exclusive",
              file=sys.stderr)
        return 1
    mode = modes[0] if modes else None
    if mode:
        args.remove(mode)

    if mode == "--serve-consistency":
        if len(args) < 2:
            print(__doc__.strip(), file=sys.stderr)
            return 1
        report = load_report(args[0])
        if report is None:
            return 1
        errors = validate(report)
        envelopes = []
        for path in args[1:]:
            envs, errs = load_envelopes(path)
            errors.extend(errs)
            for where, env in envs:
                errors.extend(validate_envelope(where, env))
            envelopes.extend(envs)
        errors.extend(check_serve_consistency(report, envelopes))
        if errors:
            return fail(args[0], errors)
        print(f"{args[0]}: consistent with {len(envelopes)} response(s)")
        return 0

    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    path = args[0]

    if mode in ("--serve", "--extract-report"):
        envelopes, errors = load_envelopes(path)
        for where, env in envelopes:
            errors.extend(validate_envelope(where, env))
        if errors:
            return fail(path, errors)
        if mode == "--extract-report":
            for _, env in envelopes:
                if isinstance(env.get("report"), dict):
                    print(dump_diff_form(env["report"]))
        else:
            print(f"{path}: {len(envelopes)} valid {ENVELOPE_SCHEMA} "
                  "response(s)")
        return 0

    report = load_report(path)
    if report is None:
        return 1
    errors = validate(report)
    if errors:
        return fail(path, errors)
    if mode == "--canonical":
        print(json.dumps(canonicalize(report), indent=2, sort_keys=True))
    elif mode == "--for-diff":
        print(dump_diff_form(report))
    else:
        print(f"{path}: valid {SCHEMA}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
