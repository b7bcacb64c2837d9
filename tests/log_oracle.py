"""Test-side views of an event log: its records parsed back from
``to_text()``, and the record-scanning summary that ``soc_sim.report``,
which reads the log's live counters, must equal."""

import json
from typing import NamedTuple

from trusttoken.soc_sim import EventLog, SummaryReport


class Record(NamedTuple):
    cycle: int
    actor: str
    kind: str
    detail: dict


def records(log: EventLog) -> list[Record]:
    out = []
    for line in log.to_text().split("\n")[:-1]:
        cycle, actor, kind, detail = line.split("\t")
        out.append(Record(int(cycle), actor, kind, json.loads(detail)))
    return out


def report(log: EventLog) -> SummaryReport:
    """Summarize a run by scanning every record."""
    grants = denies = fired = blocked = t_granted = t_denied = 0
    reasons: dict[str, int] = {}
    costs: dict[int, int] = {}
    for rec in records(log):
        detail = rec.detail
        if rec.kind == "grant":
            grants += 1
            costs[detail["cost"]] = costs.get(detail["cost"], 0) + 1
        elif rec.kind == "deny":
            denies += 1
            reasons[detail["reason"]] = reasons.get(detail["reason"], 0) + 1
            costs[detail["cost"]] = costs.get(detail["cost"], 0) + 1
        elif rec.kind == "transition":
            if detail["status"] == "granted":
                t_granted += 1
            else:
                t_denied += 1
                reason = detail.get("reason", "unknown")
                reasons[reason] = reasons.get(reason, 0) + 1
        elif rec.kind == "attack_fired":
            fired += 1
        elif rec.kind == "attack_blocked":
            blocked += 1
    if fired == 0:
        verdict = "NONE"
    elif blocked == fired:
        verdict = "BLOCKED"
    else:
        verdict = "BREACHED"
    return SummaryReport(
        grants=grants,
        denies=denies,
        denials_by_reason=tuple(sorted(reasons.items())),
        transitions_granted=t_granted,
        transitions_denied=t_denied,
        attacks_fired=fired,
        attacks_blocked=blocked,
        verdict=verdict,
        cycle_cost_histogram=tuple(sorted(costs.items())),
    )
