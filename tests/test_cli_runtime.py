"""The CLI as a process: the cyclic collector paused while a command runs,
and a reader that closes stdout early.

``main`` runs each command with the cyclic collector off.  That is safe only
while no command leaves cyclic garbage, which would pile up unreclaimed in
an in-process caller; the first test below fails as soon as one does.
"""

import contextlib
import functools
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from stripfol import cli
from stripfol.cli import EXIT_PIPE, main
from stripfol.io import serialize

from fixtures import all_fixtures
from _gen import random_surface

SRC = Path(__file__).resolve().parent.parent / "src"


@functools.cache
def _large_doc() -> str:
    """A connected random surface of several hundred strips, serialized."""
    surface = random_surface(random.Random(0), max_strips=900, max_intervals=3)
    assert len(surface.strips) >= 500
    return serialize(surface)


@pytest.fixture
def documents(fixture_dir, tmp_path):
    """Document paths: every fixture, then the large surface."""
    paths = {name: fixture_dir / f"{name}.json" for name in all_fixtures()}
    paths["large"] = tmp_path / "large.json"
    paths["large"].write_text(_large_doc())
    return paths


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def _commands(path: Path, first_strip: str):
    yield ["validate", path]
    yield ["leafspace", path]
    yield ["leafspace", path, "--format", "dot"]
    yield ["decompose", path]
    yield ["decompose", path, "--mode", "interior"]
    yield ["canon", path]
    yield ["iso", path, path]
    yield ["realize", path, "--component", first_strip]
    yield ["render", path]
    yield ["render", path, "--format", "dot"]


def test_commands_leave_no_cyclic_garbage(documents, tmp_path, collector_off):
    gc.collect()
    runs = []
    for name, path in documents.items():
        first_strip = json.loads(path.read_text())["strips"][0]["id"]
        for argv in _commands(path, first_strip):
            code, out = _run(argv)
            assert code in (0, 1, 3) and out, (name, argv, code)
            runs.append((name, argv[0], code))
            assert gc.collect() == 0, (name, argv)
    assert {"validate", "leafspace", "decompose", "canon", "iso", "realize", "render"} == {r[1] for r in runs}
    assert ("large", "realize", 0) in runs

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    duplicate = tmp_path / "duplicate.json"
    duplicate.write_text(json.dumps({"strips": [{"id": "A"}, {"id": "A"}]}))
    # refusals of the arguments come before the pause; this usage error
    # comes from inside a command
    for argv, want in (
        (["validate", duplicate], cli.EXIT_INVALID),
        (["decompose", bad_json], cli.EXIT_PARSE),
        (["realize", documents["kaplan5"], "--component", "B", "--depth", "0"], cli.EXIT_USAGE),
    ):
        code, out = _run(argv)
        assert code == want and "error" in json.loads(out), argv
        assert gc.collect() == 0, argv


def _raise(*_):
    raise RuntimeError("boom")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "case, argv, want",
    [
        ("success", ["validate", "{kaplan5}"], 0),
        ("parse error", ["validate", "{bad}"], cli.EXIT_PARSE),
        ("usage error", ["validate", "{kaplan5}", "--no-such-flag"], cli.EXIT_USAGE),
        ("command usage error", ["realize", "{kaplan5}", "--component", "nowhere"], cli.EXIT_USAGE),
        ("exception", ["render", "{kaplan5}"], RuntimeError),
    ],
)
def test_main_restores_the_callers_collector_setting(fixture_dir, tmp_path, monkeypatch, enabled, case, argv, want):
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    argv = [a.format(kaplan5=fixture_dir / "kaplan5.json", bad=bad) for a in argv]
    load = cli._load
    during = []

    def watched_load(path):
        during.append(gc.isenabled())
        return load(path)

    monkeypatch.setattr(cli, "_load", watched_load)
    if want is RuntimeError:
        monkeypatch.setattr(cli, "render", _raise)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if want is RuntimeError:
            with pytest.raises(RuntimeError):
                _run(argv)
        else:
            assert _run(argv)[0] == want
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    # the command, once it starts, runs with the collector off
    assert during == ([] if case == "usage error" else [False])


def _with_closed_stdout(*argv) -> subprocess.CompletedProcess:
    """Run the CLI with stdout a pipe whose read end is already closed."""
    # a block-buffered stdout, so that a short output meets the closed pipe
    # only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "stripfol.cli", *map(str, argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "argv",
    [
        # output that fits the stdout buffer, written by the flush in main
        ["validate", "{kaplan5}"],
        # output larger than the buffer, written while the command runs
        ["validate", "{large}"],
        ["render", "{large}"],
        # a refusal: one JSON line, then SystemExit
        ["validate", "{bad}"],
    ],
)
def test_closed_stdout_ends_in_the_broken_pipe_code(documents, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    run = _with_closed_stdout(*(a.format(kaplan5=documents["kaplan5"], large=documents["large"], bad=bad) for a in argv))
    assert (run.returncode, run.stderr) == (EXIT_PIPE, "")
