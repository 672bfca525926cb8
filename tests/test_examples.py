"""Smoke tests: every example script must run clean end-to-end.

Examples are executed in-process (imported as modules and ``main()``
called) so failures surface with real tracebacks and coverage."""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    "quickstart",
    "product_catalog",
    "tamper_detection",
    "update_propagation",
    "paper_evaluation",
]


def _load(name: str):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    out = capsys.readouterr().out
    assert out  # every example narrates what it does


def test_quickstart_example_asserts_verification(capsys):
    module = _load("quickstart")
    module.main()
    out = capsys.readouterr().out
    assert "ok=True" in out
    assert "ok=False" in out  # the tamper case


def test_paper_evaluation_prints_all_figures(capsys):
    module = _load("paper_evaluation")
    module.main()
    out = capsys.readouterr().out
    for figure in ("Figure 8", "Figure 9", "Figure 10", "Figure 11",
                   "Figure 12", "Figure 13", "Section 4.1", "Section 4.4"):
        assert figure in out


@pytest.mark.socket
@pytest.mark.timeout(120)
def test_socket_deployment_example_runs(capsys):
    """Spawns edge OS processes, so it rides in the socket job."""
    module = _load("socket_deployment")
    module.main()
    out = capsys.readouterr().out
    assert "snapshot heal to cursor parity" in out
    assert "verified: True" in out


@pytest.mark.socket
@pytest.mark.timeout(180)
def test_relay_deployment_example_runs(capsys):
    """The one script that runs subprocess relays *and* subprocess
    edges through SIGKILL/restart; rides in the socket job too."""
    module = _load("relay_deployment")
    module.main()
    out = capsys.readouterr().out
    assert "relay-0 healed; staleness 0" in out
    assert "verified: False" not in out
