"""Which files ``repro check`` checks, with which rules.

This module is the whole policy: ``repro check`` builds ``Policy()``
and reads no configuration file, so each constant below carries the
reason it is what it is.

Path patterns are segment sequences matched anywhere in the file path,
so ``repro/intervals`` matches both ``src/repro/intervals/box.py`` and
an installed ``repro/intervals/box.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "DEFAULT_INCLUDE",
    "DEFAULT_EXCLUDE",
    "DEFAULT_PACKAGE_DISABLE",
    "DEFAULT_CONCURRENCY_INCLUDE",
    "DEFAULT_SANCTIONED_WRITERS",
    "SANCTIONED",
    "Policy",
]

#: Where the soundness pass (S001-S008) runs: every bound computed in
#: these packages and the two reachability drivers must go through the
#: directed-rounding helpers. The rest of the tree (training code, CLI,
#: observability, experiments) is skipped.
DEFAULT_INCLUDE = (
    "repro/intervals",
    "repro/ode",
    "repro/sets",
    "repro/verify",
    "repro/core/reach.py",
    "repro/core/system.py",
    "repro/acasxu",
)

#: Files under the include set that the S-rules skip. ``rounding.py``
#: implements the wrappers; raw ``nextafter`` is its business.
#: ``acasxu/mdp.py`` is value iteration and table interpolation: it
#: makes the networks' training targets, not bounds. An excluded file
#: still feeds the dataflow, so an in-scope caller's arithmetic on a
#: bound it returned is S001 at the use site, and the call is S007
#: unless the module is also :data:`SANCTIONED`.
DEFAULT_EXCLUDE = ("repro/intervals/rounding.py", "repro/acasxu/mdp.py")

#: Modules that implement the directed-rounding discipline, so a bound
#: one of them returns is not an S007 escape. Only the module of the
#: wrappers is; leaving a module out of scope does not sanction it.
SANCTIONED = ("repro/intervals/rounding.py",)

#: ``repro/intervals/batched.py`` is the wrapper module for batched
#: endpoint arithmetic: S006 exists to funnel raw ufunc calls on
#: (lo, hi) arrays *into* it, and each nearest-mode step there is
#: paired with an outward nudge and documented in place. Its
#: structure-of-arrays layout is raw (lo, hi) arrays by design, so the
#: container-laundering rule S008 is off there too.
DEFAULT_PACKAGE_DISABLE: dict[str, tuple[str, ...]] = {
    "repro/intervals/batched.py": ("S006", "S008"),
}

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


def _matches_any(path: str | Path, patterns: tuple[str, ...]) -> bool:
    parts = tuple(Path(path).as_posix().split("/"))
    return any(_matches(parts, pattern) for pattern in patterns)


@dataclass(frozen=True)
class Policy:
    """Which files are in scope, and which rules run per package."""

    include: tuple[str, ...] = DEFAULT_INCLUDE
    exclude: tuple[str, ...] = DEFAULT_EXCLUDE
    #: pattern -> rule codes disabled under that pattern.
    package_disable: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_PACKAGE_DISABLE)
    )
    #: Explicit rule selection (e.g. from ``--select``); None = all.
    select: tuple[str, ...] | None = None

    def in_scope(self, path: str | Path, explicit: bool = False) -> bool:
        """Whether ``path`` gets the soundness (S-rule) pass.

        Files named explicitly on the command line are always checked
        (so fixtures and one-off files can be linted without editing the
        policy); excludes still apply to both.
        """
        if _matches_any(path, self.exclude):
            return False
        return explicit or _matches_any(path, self.include)

    def in_concurrency_scope(self, path: str | Path,
                             explicit: bool = False) -> bool:
        """Whether ``path`` gets the concurrency (C-rule) pass."""
        if _matches_any(path, self.exclude):
            return False
        return explicit or _matches_any(path, DEFAULT_CONCURRENCY_INCLUDE)

    def is_sanctioned(self, path: str | Path) -> bool:
        """Whether ``path`` implements the discipline
        (:data:`SANCTIONED`), so a bound returned from it is not an
        S007 escape."""
        return _matches_any(path, SANCTIONED)

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
