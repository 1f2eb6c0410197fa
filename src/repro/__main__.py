"""Command-line entry point: ``python -m repro <artefact> [options]``.

``python -m repro list`` shows the available artefacts;
``python -m repro fig6 --scale 0.5`` runs one;
``python -m repro all --scale 0.2`` runs the full evaluation.

An artefact runs through the harness's ``run`` path
(``python -m repro.harness run``) with inline defaults: no worker
processes, and no result store unless ``--store`` names one.
"""

from __future__ import annotations

import sys

#: sub-packages with their own command line, reachable as
#: ``python -m repro <name> ...``
_PACKAGES = ("analysis", "chaos", "staticcheck")

_COMPOSITES = {
    "report_card": "grades the DESIGN.md shape criteria (PASS/FAIL)",
    "summary": "everything - the full evaluation in one report",
}


def _print_list() -> None:
    from repro.harness.registry import ARTEFACTS

    print("usage: python -m repro <artefact> [--scale S] "
          "[--workloads AB ...]")
    print("\nartefacts:")
    for spec in ARTEFACTS.values():
        if spec.name not in _PACKAGES:
            print(f"  {spec.name:<19} {spec.title}")
    for name, blurb in _COMPOSITES.items():
        print(f"  {name:<19} {blurb}")
    print("\n'all' is an alias for 'summary'.")
    print("'python -m repro <artefact> --help' shows the run options.")
    print("parallel sweeps + result cache: add --workers N --store DIR "
          "(the defaults of python -m repro.harness run)")
    print("static kernel verification: "
          "python -m repro analysis suite --strict "
          "(alias of python -m repro.analysis)")
    print("fault injection + invariant oracle: "
          "python -m repro chaos --campaign smoke "
          "(alias of python -m repro.chaos)")
    print("whole-repo invariant lint: "
          "python -m repro staticcheck --strict "
          "(alias of python -m repro.staticcheck)")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "list"):
        _print_list()
        return 0
    if argv[0] in _PACKAGES:
        name = argv.pop(0)
        if name == "analysis":
            from repro.analysis.__main__ import main as sub_main
        elif name == "chaos":
            from repro.chaos.__main__ import main as sub_main
        else:
            from repro.staticcheck.__main__ import main as sub_main
    else:
        from repro.harness.__main__ import run_main as sub_main
    try:
        return sub_main(argv)
    except SystemExit as exc:
        # argparse exits for ``--help`` (code 0) and bad options (code 2);
        # surface its status instead of letting the exception escape.
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: not an error.
        sys.stderr.close()
        sys.exit(0)
