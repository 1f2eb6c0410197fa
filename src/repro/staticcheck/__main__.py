"""``python -m repro.staticcheck`` — lint the repo's invariants.

    python -m repro.staticcheck                      # whole repro tree
    python -m repro.staticcheck --strict             # the CI gate
    python -m repro.staticcheck src/repro/harness    # one subtree
    python -m repro.staticcheck --rule DT101 --rule FS101
    python -m repro.staticcheck --json -             # machine-readable
    python -m repro.staticcheck --list-rules

``--json -`` writes the JSON report to stdout and keeps every
human-readable line strictly on stderr, so pipeline consumers can parse
stdout directly (the same contract as ``python -m repro.analysis``).

Findings are suppressible only with an inline pragma naming the rule and
a justification (``# staticcheck: ignore[FS101] deliberate fork seam``).
A pragma with an unknown rule ID is an error.

Exit status: 0 when clean, 1 when any unsuppressed error (with
``--strict``: error or warning) remains, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.staticcheck import RULES, StaticcheckError, check_paths
from repro.staticcheck.model import REPORT_SCHEMA_VERSION
from repro.staticcheck.rules import REGISTRY_VERSION, expand


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyze (default: the whole "
             "installed repro package)")
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory paths are reported relative to (default: the "
             "directory containing the repro package)")
    parser.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures (the CI gate)")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RULE",
        help="only run this rule (ID, slug, or family name such as "
             "'async-soundness'; repeatable)")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full JSON report ('-' writes the JSON to "
             "stdout and moves all human-readable output to stderr)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="show analysis metadata too")
    return parser


def _list_rules(out) -> None:
    for rule in RULES.values():
        print(f"{rule.id}  {rule.severity.value:<7} "
              f"[{rule.family}] {rule.name}: {rule.summary}", file=out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # with --json - stdout belongs to the JSON document alone
    human = sys.stderr if args.json == "-" else sys.stdout

    if args.list_rules:
        _list_rules(human)
        return 0

    try:
        rules = expand(args.rule) if args.rule else None
        report = check_paths(paths=args.paths or None, root=args.root,
                             rules=rules)
    except (StaticcheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(report.render(verbose=args.verbose), file=human)

    if args.json:
        payload = report.to_json_dict()
        payload["registry_version"] = REGISTRY_VERSION
        payload["schema_version"] = REPORT_SCHEMA_VERSION
        payload["strict"] = args.strict
        text = json.dumps(payload, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text)

    return 0 if report.ok(strict=args.strict) else 1


if __name__ == "__main__":
    sys.exit(main())
