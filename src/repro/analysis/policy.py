"""Per-package policy: which files the soundness pass checks, with
which rules.

The defaults encode the repository's sound-path discipline: every bound
computed in ``repro.intervals``, ``repro.ode``, ``repro.sets`` and
``repro.verify`` must go through the directed-rounding helpers, so those
packages are checked with the full rule set; the rest of the tree
(training code, CLI, observability, experiments) is skipped.
``repro/intervals/rounding.py`` is excluded — it *implements* the
wrappers, so raw ``math.nextafter`` is its business — and so is
``repro/acasxu/mdp.py``, whose value iteration and table interpolation
make training targets, not bounds.

Projects override the defaults from ``pyproject.toml``::

    [tool.repro.soundness]
    include = ["repro/intervals", "repro/ode"]
    exclude = ["repro/intervals/rounding.py"]

    [tool.repro.soundness.package-rules]
    "repro/verify" = { disable = ["S005"] }

Path patterns are segment sequences matched anywhere in the file path,
so ``repro/intervals`` matches both ``src/repro/intervals/box.py`` and
an installed ``repro/intervals/box.py``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from .model import CheckError

__all__ = [
    "DEFAULT_INCLUDE",
    "DEFAULT_EXCLUDE",
    "DEFAULT_PACKAGE_DISABLE",
    "DEFAULT_CONCURRENCY_INCLUDE",
    "DEFAULT_SANCTIONED_WRITERS",
    "Policy",
    "load_policy",
]

DEFAULT_INCLUDE = (
    "repro/intervals",
    "repro/ode",
    "repro/sets",
    "repro/verify",
    "repro/core/reach.py",
    "repro/core/system.py",
    "repro/acasxu",
)

DEFAULT_EXCLUDE = ("repro/intervals/rounding.py", "repro/acasxu/mdp.py")

#: ``repro/intervals/batched.py`` is the sanctioned wrapper module for
#: batched endpoint arithmetic — S006 exists to funnel raw ufunc math
#: *into* it, so the rule is off there by default (mirroring how
#: ``rounding.py`` is excluded outright). The same goes for S008: the
#: structure-of-arrays layout *is* raw (lo, hi) arrays by design.
DEFAULT_PACKAGE_DISABLE = {"repro/intervals/batched.py": ("S006", "S008")}

#: Where the concurrency pass (C001-C005) runs: the fork pool, the
#: campaign drivers, the live-telemetry layer and the distributed
#: control plane (coordinator event loop + node agent).
DEFAULT_CONCURRENCY_INCLUDE = (
    "repro/core/supervisor.py",
    "repro/core/runner.py",
    "repro/core/checkpoint.py",
    "repro/core/coordinator.py",
    "repro/core/node.py",
    "repro/obs/live.py",
)

#: Functions allowed to overwrite status/journal files (C005): the
#: atomic tmp + fsync + os.replace helper.
DEFAULT_SANCTIONED_WRITERS = ("write_status_atomic",)


def _segments(pattern: str) -> tuple[str, ...]:
    return tuple(part for part in pattern.replace("\\", "/").split("/") if part)


def _matches(path_parts: tuple[str, ...], pattern: str) -> bool:
    """True if ``pattern``'s segments occur consecutively in the path."""
    pat = _segments(pattern)
    if not pat:
        return False
    span = len(pat)
    return any(
        path_parts[i : i + span] == pat
        for i in range(len(path_parts) - span + 1)
    )


@dataclass(frozen=True)
class Policy:
    """Which files are in scope, and which rules run per package."""

    include: tuple[str, ...] = DEFAULT_INCLUDE
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE
    #: pattern -> rule codes disabled under that pattern.
    package_disable: dict = field(
        default_factory=lambda: dict(DEFAULT_PACKAGE_DISABLE)
    )
    #: Where the concurrency pass (C001-C005) runs.
    concurrency_include: tuple[str, ...] = DEFAULT_CONCURRENCY_INCLUDE
    #: Function names allowed to overwrite status files (C005).
    sanctioned_writers: tuple[str, ...] = DEFAULT_SANCTIONED_WRITERS
    #: Explicit rule selection (e.g. from ``--select``); None = all.
    select: tuple[str, ...] | None = None

    def in_scope(self, path: str | Path, explicit: bool = False) -> bool:
        """Whether ``path`` gets the soundness (S-rule) pass.

        Files named explicitly on the command line are always checked
        (so fixtures and one-off files can be linted without editing the
        policy); excludes still apply to both.
        """
        parts = tuple(Path(path).as_posix().split("/"))
        if any(_matches(parts, pattern) for pattern in self.exclude):
            return False
        if explicit:
            return True
        return any(_matches(parts, pattern) for pattern in self.include)

    def in_concurrency_scope(self, path: str | Path,
                             explicit: bool = False) -> bool:
        """Whether ``path`` gets the concurrency (C-rule) pass."""
        parts = tuple(Path(path).as_posix().split("/"))
        if any(_matches(parts, pattern) for pattern in self.exclude):
            return False
        if explicit:
            return True
        return any(
            _matches(parts, pattern) for pattern in self.concurrency_include
        )

    def is_sanctioned(self, path: str | Path) -> bool:
        """Excluded modules are *sanctioned*: they implement the
        discipline (``rounding.py``), so a bound returned from one is
        not an S007 escape."""
        parts = tuple(Path(path).as_posix().split("/"))
        return any(_matches(parts, pattern) for pattern in self.exclude)

    def rules_for(self, path: str | Path, all_codes: tuple[str, ...]) -> tuple[str, ...]:
        """The rule codes active for one in-scope file."""
        parts = tuple(Path(path).as_posix().split("/"))
        active = list(all_codes)
        for pattern, disabled in self.package_disable.items():
            if _matches(parts, pattern):
                active = [code for code in active if code not in disabled]
        if self.select is not None:
            active = [code for code in active if code in self.select]
        return tuple(active)


def load_policy(pyproject: str | Path | None = None) -> Policy:
    """Build the policy, merging ``[tool.repro.soundness]`` over defaults.

    ``pyproject`` defaults to ``pyproject.toml`` in the current
    directory; a missing file (or missing table) just yields the
    defaults, a malformed file raises :class:`CheckError`.
    """
    path = Path(pyproject) if pyproject is not None else Path("pyproject.toml")
    if not path.exists():
        return Policy()
    if sys.version_info >= (3, 11):
        import tomllib
    else:  # pragma: no cover - py3.10 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return Policy()
    try:
        config = tomllib.loads(path.read_text())
    except (OSError, tomllib.TOMLDecodeError) as error:
        raise CheckError(f"could not read {path}: {error}") from error
    table = config.get("tool", {}).get("repro", {}).get("soundness", {})
    if not isinstance(table, dict):
        raise CheckError(f"[tool.repro.soundness] in {path} must be a table")
    include = tuple(table.get("include", DEFAULT_INCLUDE))
    exclude = tuple(table.get("exclude", DEFAULT_EXCLUDE))
    concurrency_include = tuple(
        table.get("concurrency-include", DEFAULT_CONCURRENCY_INCLUDE)
    )
    sanctioned_writers = tuple(
        table.get("sanctioned-writers", DEFAULT_SANCTIONED_WRITERS)
    )
    rules_table = table.get("package-rules")
    if rules_table is None:
        # No table at all: keep the built-in wrapper exemption. An
        # explicit (even empty) table replaces it, like include/exclude.
        package_disable = dict(DEFAULT_PACKAGE_DISABLE)
    else:
        package_disable = {}
        for pattern, entry in rules_table.items():
            disabled = entry.get("disable", []) if isinstance(entry, dict) else []
            package_disable[pattern] = tuple(
                str(code).upper() for code in disabled
            )
    return Policy(
        include=include,
        exclude=exclude,
        package_disable=package_disable,
        concurrency_include=concurrency_include,
        sanctioned_writers=sanctioned_writers,
    )
