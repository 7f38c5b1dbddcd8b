"""``python -m repro.lint [paths]``: run every rule over *paths*.

Prints one ``path:line: RULE message`` line per finding and a
one-line summary.  Exit status 0 when clean, 1 on any finding, 2 when
a target does not exist.  ``docs/analysis.md`` catalogues the rules.
"""

import argparse
import sys

from repro.lint.engine import run_lint


def main(argv=None):
    """Lint the paths in *argv* (default ``src``); returns the exit
    status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Repo-specific static analysis (docs/analysis.md).",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    paths = parser.parse_args(argv).paths
    try:
        findings = run_lint(paths)
    except FileNotFoundError as error:
        print(f"repro.lint: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    noun = "finding" if len(findings) == 1 else "findings"
    print(f"repro.lint: {len(findings)} {noun} in {' '.join(paths)}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
