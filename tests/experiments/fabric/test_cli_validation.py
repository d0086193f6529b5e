"""Fault-spec validation at CLI startup — bad flags must die with a clear
parser error before any worker is spawned.

The retired multi-host spellings (a ``fabric`` subcommand, bare
``worker-die``/``drop-msg``-style chaos kinds) are no longer options: the
single-box CLI rejects each of them as an ordinary usage error.
"""

import pytest

from repro.experiments.__main__ import main

#: Chaos kinds the CLI once accepted for multi-host sweeps.
RETIRED_CHAOS_KINDS = ("drop-msg", "dup-msg", "late-result", "worker-die", "worker-slow")


def _error_text(capsys):
    return capsys.readouterr().err


class TestFabricCliRejects:
    def _expect_error(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert fragment in _error_text(capsys)

    def test_unknown_chaos_kind(self, capsys):
        self._expect_error(
            capsys, ["fig13", "--inject-fault", "worker-exploded"], "worker-exploded"
        )

    def test_probability_out_of_range(self, capsys):
        self._expect_error(
            capsys, ["fig13", "--inject-fault", "drop-msg:1.5"], "drop-msg"
        )

    def test_garbage_slow_duration(self, capsys):
        self._expect_error(
            capsys, ["fig13", "--inject-fault", "worker-slow:abc"], "worker-slow"
        )

    def test_unknown_figure(self, capsys):
        # "fabric" and "sweep" are not figures; nothing runs.
        self._expect_error(capsys, ["fabric", "sweep", "fig99"], "unknown figures")


class TestNonFabricCliRejects:
    @pytest.mark.parametrize("kind", RETIRED_CHAOS_KINDS)
    def test_bare_fabric_kind_errors_with_pointer(self, capsys, kind):
        spec = f"{kind}:0.5" if kind in ("drop-msg", "dup-msg") else kind
        with pytest.raises(SystemExit) as exc:
            main(["fig13", "--inject-fault", spec])
        assert exc.value.code == 2
        err = _error_text(capsys)
        assert kind in err
        # The error points at the one accepted form.
        assert "fault spec must be CELL=KIND[:N]" in err
