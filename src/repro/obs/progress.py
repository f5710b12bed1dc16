"""The campaign's progress line: a printing view of the telemetry fold.

:class:`CampaignProgress` is a :class:`~repro.obs.live.CampaignSnapshot`
that prints. The campaign drivers
(:func:`repro.core.runner.verify_partition` and the distributed
:class:`~repro.core.coordinator.Coordinator`) subscribe it to the
campaign's recorder, so ``cell.finished`` events are its only input
and its counts, rate and ETA are the fold's::

    cells 120/216 (55.6%) | 3.40 cell/s | ETA 28s | proved 97 unproved 20 witnessed 3

With no enabled recorder, the driver runs the campaign on a private
recorder without trace or heartbeats, which flags no stalled worker.
"""

from __future__ import annotations

import sys
import time
from typing import IO

from .live import CampaignSnapshot, render_head


class CampaignProgress(CampaignSnapshot):
    """Prints the campaign's progress line as cells finish.

    ``min_interval`` throttles printing (in event time) so huge
    partitions do not drown stderr. The last line prints on
    ``campaign.finished``, whether the campaign completed or was
    interrupted. Pass ``stream=None`` to fold silently.
    """

    def __init__(self, stream: IO[str] | None = sys.stderr, min_interval: float = 1.0):
        super().__init__(run_id="progress")
        self.stream = stream
        self.min_interval = min_interval
        self._last_print = float("-inf")

    def on_event(self, event: dict) -> None:
        super().on_event(event)
        if self.stream is None:
            return
        name = event.get("name")
        ts = event.get("ts", time.time())
        # The last cell's line waits for campaign.finished, which every
        # campaign emits once, so it prints exactly once.
        if name == "campaign.finished" or (
            name == "cell.finished"
            and self.done < self.total
            and ts - self._last_print >= self.min_interval
        ):
            self._last_print = ts
            print(self.render(ts), file=self.stream)

    def render(self, now: float | None = None) -> str:
        status = self.to_dict(now)
        verdicts = status["verdicts"]
        line = (
            f"{render_head(status)} | proved {verdicts['proved']} "
            f"unproved {verdicts['unproved']} witnessed {verdicts['witnessed']}"
        )
        # Quarantine counts and stalls only appear once something went
        # wrong, so healthy campaigns keep the familiar three-way line.
        for verdict in ("aborted", "timed-out"):
            if verdicts[verdict]:
                line += f" {verdict} {verdicts[verdict]}"
        if status["stalled"]:
            line += f" | {status['stalled']} stalled"
        return line
