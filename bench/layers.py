"""Which package functions the traced run wraps, and the per-layer metrics
computed from their spans and counters.

Names follow ``<module>.<function>.<stat>``: ``calls`` (count), ``self_s``
(seconds of span time not covered by a traced child span) and, on per-call
hot functions, ``p50_us``/``p99_us`` of the inclusive call duration.  A
layer that does not run on a workload reports zeros.
"""

from __future__ import annotations

from tracer import Tracer, percentile_us

PACKAGE = "trusttoken"


def _count(key, test):
    def observe(counts, args, kwargs, result):
        counts[key] += bool(test(args, kwargs, result))
    return observe


def _to_text(counts, args, kwargs, result):
    counts["soc_sim.EventLog.to_text.bytes"] += len(result.encode())
    counts["soc_sim.events"] += result.count("\n")


def _load_config(counts, args, kwargs, result):
    counts["scenario_cli.load_config.entries"] += len(result.get("script") or [])


# (module, attribute, per-call percentiles?, hooks)
TARGETS = (
    ("puf_model", "new_chip", True, {}),
    ("puf_model", "measure_response", True, {}),
    ("puf_model", "hamming_distance", True, {}),
    ("puf_model", "reliability", False, {}),
    ("puf_model", "evaluate_population", False, {}),
    ("policy_engine", "evaluate", True, {}),
    ("policy_engine", "build_system", False, {}),
    ("policy_engine", "modify_matrix", False, {}),
    ("token_authority", "authorize", True, {
        "observe": _count("token_authority.authorize.denied", lambda a, k, r: not r.granted)}),
    ("token_authority", "provision", False, {}),
    ("token_authority", "request_integrity_transition", False, {
        "observe": _count("token_authority.request_integrity_transition.granted",
                          lambda a, k, r: r.granted)}),
    ("token_authority", "TokenTable.check_credentials", False, {}),
    ("trust_wrapper", "TrustWrapper.issue", True, {}),
    ("trust_wrapper", "TrustWrapper.deliver", True, {
        "observe": _count("trust_wrapper.TrustWrapper.deliver.stub",
                          lambda a, k, r: r is not None)}),
    ("soc_sim", "build", False, {}),
    ("soc_sim", "run", False, {"tag": lambda args, kwargs: args[0].mode}),
    # Collisions are counted where the simulator logs the faults that
    # provision reports through its on_fault callback.
    ("soc_sim", "EventLog.append", True, {
        "observe": _count("token_authority.provision.collisions",
                          lambda a, k, r: (a[3] if len(a) > 3 else k.get("kind")) == "fault"
                          and k.get("event") == "token_collision")}),
    ("soc_sim", "EventLog.to_text", False, {"observe": _to_text}),
    ("soc_sim", "report", False, {}),
    ("scenario_cli", "load_config", False, {"observe": _load_config}),
    ("scenario_cli", "parse_script", False, {}),
    ("scenario_cli", "parse_topology", False, {}),
    ("scenario_cli", "cmd_run", False, {}),
    ("scenario_cli", "cmd_puf_eval", False, {}),
)

RUN_MODES = ("trusttoken", "trustzone-baseline")


def install(tracer: Tracer) -> list[str]:
    """Patch every target; returns the names of targets that are missing."""
    return [f"{m}.{a}" for m, a, _, hooks in TARGETS if not tracer.patch(m, a, **hooks)]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced batch."""
    summary = tracer.summary()
    counts = tracer.counts
    out: dict[str, float] = {}
    for module, attr, per_call, _ in TARGETS:
        name = f"{module}.{attr}"
        entry = summary.get(name, {"calls": 0, "self_s": 0.0, "durations": []})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        if per_call:
            out[f"{name}.p50_us"] = percentile_us(entry["durations"], 50)
            out[f"{name}.p99_us"] = percentile_us(entry["durations"], 99)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    run_tags = summary.get("soc_sim.run", {}).get("self_by_tag", {})
    for mode in RUN_MODES:
        out[f"soc_sim.run.self_s.{mode}"] = run_tags.get(mode, 0.0)
    out["policy_engine.modify_matrix.rejected"] = counts[
        "policy_engine.modify_matrix.raised.MatrixTamperError"]
    out["token_authority.authorize.deny_frac"] = _ratio(
        counts["token_authority.authorize.denied"], calls("token_authority.authorize"))
    out["token_authority.check_credentials.per_authorize"] = _ratio(
        calls("token_authority.TokenTable.check_credentials"), calls("token_authority.authorize"))
    out["token_authority.provision.collisions"] = counts["token_authority.provision.collisions"]
    out["token_authority.request_integrity_transition.granted_frac"] = _ratio(
        counts["token_authority.request_integrity_transition.granted"],
        calls("token_authority.request_integrity_transition"))
    out["trust_wrapper.TrustWrapper.deliver.stub_frac"] = _ratio(
        counts["trust_wrapper.TrustWrapper.deliver.stub"], calls("trust_wrapper.TrustWrapper.deliver"))
    for key in ("soc_sim.EventLog.to_text.bytes", "soc_sim.events",
                "scenario_cli.load_config.entries"):
        out[key] = counts[key]
    out["trace.spans"] = len(tracer.spans)
    return out
