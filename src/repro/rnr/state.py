"""The RnR prefetch-state machine (paper Fig 3, driven by Table I calls).

States and the software calls that move between them::

            start()                 replay()
    IDLE ----------> RECORD ------------------> REPLAY <---+
      ^                |  ^                      |  ^       | replay()
      |        pause() |  | resume()     pause() |  | resume()  (restart)
      |                v  |                      v  |       |
      |          RECORD_PAUSED             REPLAY_PAUSED ---+
      |                                          |
      +------------------ end() -----------------+  (from any active state)

``pause``/``resume`` also serve context switches (Section IV-C): the
architectural state is copied out/in around them.
"""

from __future__ import annotations

from enum import Enum


class PrefetchState(Enum):
    IDLE = "idle"
    RECORD = "record"
    RECORD_PAUSED = "record_paused"
    REPLAY = "replay"
    REPLAY_PAUSED = "replay_paused"


class InvalidTransition(RuntimeError):
    """Raised when software calls a Table I function in the wrong state."""


_TRANSITIONS = {
    "start": {
        PrefetchState.IDLE: PrefetchState.RECORD,
    },
    "replay": {
        PrefetchState.RECORD: PrefetchState.REPLAY,
        PrefetchState.RECORD_PAUSED: PrefetchState.REPLAY,
        PrefetchState.REPLAY: PrefetchState.REPLAY,  # restart from beginning
        PrefetchState.REPLAY_PAUSED: PrefetchState.REPLAY,
    },
    "pause": {
        PrefetchState.RECORD: PrefetchState.RECORD_PAUSED,
        PrefetchState.REPLAY: PrefetchState.REPLAY_PAUSED,
    },
    "resume": {
        PrefetchState.RECORD_PAUSED: PrefetchState.RECORD,
        PrefetchState.REPLAY_PAUSED: PrefetchState.REPLAY,
    },
    "end": {
        PrefetchState.IDLE: PrefetchState.IDLE,
        PrefetchState.RECORD: PrefetchState.IDLE,
        PrefetchState.RECORD_PAUSED: PrefetchState.IDLE,
        PrefetchState.REPLAY: PrefetchState.IDLE,
        PrefetchState.REPLAY_PAUSED: PrefetchState.IDLE,
    },
}


class PrefetchStateMachine:
    """Tracks the 2-bit prefetch-state register plus pause bookkeeping."""

    def __init__(self) -> None:
        self.state = PrefetchState.IDLE
        self.transitions: list[tuple[str, PrefetchState]] = []

    def _apply(self, call: str) -> PrefetchState:
        table = _TRANSITIONS[call]
        try:
            new_state = table[self.state]
        except KeyError:
            raise InvalidTransition(
                f"PrefetchState.{call}() is invalid in state {self.state.value!r}"
            ) from None
        self.state = new_state
        self.transitions.append((call, new_state))
        return new_state

    def start(self) -> PrefetchState:
        return self._apply("start")

    def replay(self) -> PrefetchState:
        return self._apply("replay")

    def pause(self) -> PrefetchState:
        return self._apply("pause")

    def resume(self) -> PrefetchState:
        return self._apply("resume")

    def end(self) -> PrefetchState:
        """Move to IDLE from any state."""
        return self._apply("end")

    # -- queries -------------------------------------------------------------
    @property
    def recording(self) -> bool:
        return self.state is PrefetchState.RECORD

    @property
    def replaying(self) -> bool:
        return self.state is PrefetchState.REPLAY

    @property
    def paused(self) -> bool:
        return self.state in (PrefetchState.RECORD_PAUSED, PrefetchState.REPLAY_PAUSED)
