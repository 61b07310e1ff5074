"""CLI argument validation: nonsensical durations/counters die at the
option parser with the flag's name and an actionable message — never as
a deep-stack ValueError (or a silent misbehaviour) later."""

import pytest

from repro.cli import build_parser
from repro.service.server import ServeConfig


def _error_for(argv, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


REJECTED = [
    (["serve", "--checkpoint-every", "-1"], "--checkpoint-every"),
    (["serve", "--drain-grace", "-3"], "--drain-grace"),
    (["serve", "--workers", "0"], "--workers"),
    (["serve", "--max-running", "0"], "--max-running"),
    (["serve", "--max-queued", "-1"], "--max-queued"),
    (["pipeline", "--workload", "streaming", "--chunk-requests", "0"],
     "--chunk-requests"),
    (["pipeline", "--workload", "streaming", "--checkpoint-every", "-4"],
     "--checkpoint-every"),
    (["sweep", "--models", "alexnet", "--workers", "-2"], "--workers"),
    (["sweep", "--models", "alexnet", "--distributed",
      "--lease-seconds", "0"], "--lease-seconds"),
    (["sweep", "--models", "alexnet", "--distributed",
      "--unit-jobs", "-1"], "--unit-jobs"),
    (["sweep", "--models", "alexnet", "--distributed",
      "--wait-workers", "-1"], "--wait-workers"),
    (["work", "http://h:1", "--workers", "0"], "--workers"),
    (["work", "http://h:1", "--reconnect-timeout", "-1"],
     "--reconnect-timeout"),
]


@pytest.mark.parametrize("argv,flag", REJECTED, ids=lambda v: " ".join(v)
                         if isinstance(v, list) else v)
def test_invalid_values_rejected_with_flag_named(argv, flag, capsys):
    err = _error_for(argv, capsys)
    assert flag in err, f"error does not name the offending flag: {err}"
    assert "positive" in err or "integer" in err or "number" in err


def test_listen_requires_host_port(capsys):
    err = _error_for(["sweep", "--models", "alexnet", "--distributed",
                      "--listen", "not-an-address"], capsys)
    assert "HOST:PORT" in err


@pytest.mark.parametrize("flag", ["--stream-jobs", "--dist-lease-seconds"])
def test_removed_serve_options_are_unrecognized(flag, capsys):
    err = _error_for(["serve", flag, "4"], capsys)
    assert "unrecognized arguments" in err and flag in err


def test_checkpoint_every_needs_checkpoint_dir(tmp_path):
    """Periodic flight checkpoints are files in --checkpoint-dir:
    without one the setting would silently write nothing."""
    with pytest.raises(ValueError) as excinfo:
        ServeConfig(checkpoint_every=5)
    assert "--checkpoint-every" in str(excinfo.value)
    assert "--checkpoint-dir" in str(excinfo.value)
    assert ServeConfig(checkpoint_every=5,
                       checkpoint_dir=str(tmp_path)).checkpoint_every == 5
    assert ServeConfig(checkpoint_every=0).checkpoint_dir is None


def test_valid_values_parse():
    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--checkpoint-every", "5", "--drain-grace", "2.5",
         "--max-queued", "0"])
    assert args.checkpoint_every == 5
    assert args.drain_grace == 2.5
    assert args.max_queued == 0

    args = parser.parse_args(
        ["sweep", "--preset", "x", "--distributed",
         "--listen", "0.0.0.0:8790", "--lease-seconds", "2"])
    assert args.listen == ("0.0.0.0", 8790)
    assert args.lease_seconds == 2.0

    args = parser.parse_args(["work", "http://10.0.0.5:8790",
                              "--name", "rig", "--workers", "4"])
    assert args.url == "http://10.0.0.5:8790"
    assert args.workers == 4
