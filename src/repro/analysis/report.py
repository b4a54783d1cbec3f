"""Finding emitters: human text, JSON, and SARIF 2.1.0.

The JSON shape is the tool's own stable contract (consumed by the CI
workflow); SARIF targets code-scanning UIs (GitHub security tab, VS Code
SARIF viewers) and carries per-rule metadata from the registry.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .findings import LintResult, Severity
from .registry import default_registry

TOOL_NAME = "concat-lint"
TOOL_URI = "https://example.invalid/pyconcat/concat-lint"  # informational only


def render_text(result: LintResult, show_suppressed: bool = False) -> str:
    lines: List[str] = [finding.render() for finding in result.findings]
    if show_suppressed:
        lines.extend(finding.render() for finding in result.suppressed)
    lines.append(summary_line(result))
    return "\n".join(lines)


def summary_line(result: LintResult) -> str:
    infos = result.count(Severity.INFO)
    parts = [
        f"{result.errors} error{'s' if result.errors != 1 else ''}",
        f"{result.warnings} warning{'s' if result.warnings != 1 else ''}",
    ]
    if infos:
        parts.append(f"{infos} info")
    text = ", ".join(parts)
    text += (f" across {result.components} component"
             f"{'s' if result.components != 1 else ''}")
    if result.suppressed:
        text += f" ({len(result.suppressed)} suppressed)"
    return text


def render_json(result: LintResult) -> str:
    payload: Dict = {
        "tool": TOOL_NAME,
        "summary": {
            "errors": result.errors,
            "warnings": result.warnings,
            "info": result.count(Severity.INFO),
            "suppressed": len(result.suppressed),
            "components": result.components,
            "files": result.files,
        },
        "findings": [finding.to_json() for finding in result.findings],
        "suppressed": [finding.to_json() for finding in result.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(result: LintResult) -> str:
    registry = default_registry()
    rules = [
        {
            "id": row["id"],
            "name": row["name"],
            "shortDescription": {"text": row["summary"]},
            "defaultConfiguration": {
                "level": Severity(row["severity"]).sarif_level
            },
        }
        for row in registry.table()
    ]
    rule_index = {row["id"]: index for index, row in enumerate(registry.table())}
    results = []
    for finding in result.findings:
        results.append(
            {
                "ruleId": finding.rule_id,
                "ruleIndex": rule_index.get(finding.rule_id, -1),
                "level": finding.severity.sarif_level,
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {"startLine": max(1, finding.line)},
                        }
                    }
                ],
            }
        )
    document = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)


FORMATTERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}
