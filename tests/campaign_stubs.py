"""A scripted session runner for the campaign arbiter's tests.

The package's runner builds and runs a real ``RepEx`` per session
(``repro.campaign.runner.repex_runner``); this stand-in is a pure
function of the request with a scripted duration, so the arbiter's
scheduling can be tested without the MD stack.
"""

from typing import Callable, Dict, Optional

from repro.campaign.arbiter import SessionOutcome, SessionRequest


def stub_runner(
    durations: Optional[Dict[str, float]] = None,
    default_s: float = 100.0,
    fail: Optional[Dict[str, bool]] = None,
) -> Callable[[SessionRequest], SessionOutcome]:
    """A deterministic scripted runner.

    ``durations`` maps session uids to virtual makespans (seconds);
    unlisted sessions take ``default_s``.  ``fail`` marks uids whose
    outcome reports ``ok=False``.
    """
    durations = dict(durations or {})
    fail = dict(fail or {})

    def run(request: SessionRequest) -> SessionOutcome:
        return SessionOutcome(
            duration_s=float(durations.get(request.uid, default_s)),
            ok=not fail.get(request.uid, False),
        )

    return run
