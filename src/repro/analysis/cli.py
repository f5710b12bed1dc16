"""Implementation of ``repro check`` (the argparse wiring lives in
:mod:`repro.cli`; this module does the work so the heavy imports stay
lazy).

Exit codes follow the ``stats``/``compare`` convention:

* 0 — clean (no new findings; baselined warnings don't fail),
* 1 — at least one new finding,
* 2 — usage or input error (missing path, syntax error, bad baseline).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from .baseline import load_baseline, partition, write_baseline
from .model import CheckError
from .policy import Policy
from .report import FORMATS, render
from .visitor import check_paths

__all__ = ["DEFAULT_BASELINE", "run_check"]

DEFAULT_BASELINE = "soundness-baseline.json"


def _changed_files() -> set[str]:
    """Paths touched relative to HEAD (``git diff --name-only HEAD``)."""
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as error:
        raise CheckError(
            "--changed-only needs a git checkout with a HEAD commit"
        ) from error
    return {line.strip() for line in proc.stdout.splitlines() if line.strip()}


def run_check(
    paths: list[str],
    fmt: str = "text",
    baseline_path: str | None = None,
    no_baseline: bool = False,
    update_baseline: bool = False,
    select: list[str] | None = None,
    changed_only: bool = False,
    out=None,
) -> int:
    """Run the soundness pass; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        if fmt not in FORMATS:
            raise CheckError(
                f"unknown format {fmt!r} (choose from {', '.join(FORMATS)})"
            )
        if update_baseline and (select or changed_only):
            # The baseline is the whole tree's findings: a filtered run
            # would drop every entry its filter hid.
            flag = "--select" if select else "--changed-only"
            raise CheckError(f"--update-baseline needs a full run; drop {flag}")
        codes = tuple(
            part.strip().upper()
            for code in select or ()
            for part in code.split(",")
            if part.strip()
        )
        policy = Policy(select=codes if select else None)
        # The whole universe is always analysed — the interprocedural
        # fixpoint needs every module's facts — but --changed-only
        # restricts *reporting* to files in the working-tree diff.
        findings = check_paths(list(paths), policy)
        if changed_only:
            changed = _changed_files()
            findings = [f for f in findings if f.path in changed]

        if update_baseline:
            target = baseline_path or DEFAULT_BASELINE
            write_baseline(target, findings)
            print(
                f"baseline {target} updated: {len(findings)} finding"
                f"{'s' if len(findings) != 1 else ''}",
                file=out,
            )
            return 0

        baseline: dict[str, dict] = {}
        resolved_baseline = baseline_path
        if not no_baseline:
            if resolved_baseline is None and Path(DEFAULT_BASELINE).exists():
                resolved_baseline = DEFAULT_BASELINE
            if resolved_baseline is not None:
                baseline = load_baseline(resolved_baseline)

        new, known, stale = partition(findings, baseline)
        # Staleness is judged only where the run could have matched the
        # entry: findings outside the diff were filtered above, and an
        # entry of a rule that did not run matches nothing.
        if changed_only:
            stale = []
        elif policy.select is not None:
            stale = [e for e in stale if e.get("rule") in policy.select]

        print(render(fmt, new, known, stale), file=out)
        return 1 if new else 0
    except CheckError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
