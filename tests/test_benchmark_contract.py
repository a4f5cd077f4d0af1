"""The names the benchmark harness under ``perfbench/`` looks up in the package.

The harness patches entry points where the CLI and the library look them
up and reads attributes of what they return; a rename or a changed return
type breaks it without failing any other test.  The harness is imported
from its own directory, read only.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

import simplexdyn
import simplexdyn.cli
from simplexdyn import DelayConfig, Favorability, SimplexState, simulate_delayed

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


@pytest.fixture
def tracer(tracing):
    tracer = tracing.Tracer(simplexdyn)
    yield tracer
    tracer.close()


def test_tracer_installs_and_close_restores_every_name(tracing):
    modules = [getattr(simplexdyn, name) for name in
               ("cli", "core", "dynamics", "equilibrium", "stability", "bifurcation", "delay")]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer(simplexdyn)
    patched = list(tracer._patches)
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is not original
    tracer.close()
    for module, names in zip(modules, before):
        for attr, value in names.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr} not restored"


def test_traced_cli_pass_counts_what_it_records(tracer, tmp_path):
    delay_argv = ["delay", "--c", "0.9,0.85,0.95,0.8", "--p0", "0.25,0.26,0.24,0.25",
                  "--tau", "30", "--beta", "1.5", "--steps", "400", "--transient", "150",
                  "--window", "100", "--out", str(tmp_path / "delay.csv")]
    simulate_argv = ["simulate", "--c", "0.3,0.4,0.25", "--p0", "0.2,0.3,0.5",
                     "--record-every", "2", "--out", str(tmp_path / "sim.json"),
                     "--format", "json"]
    tracer.active = True
    with contextlib.redirect_stdout(io.StringIO()):
        assert simplexdyn.cli.main(simulate_argv) == 0
        assert simplexdyn.cli.main(delay_argv) == 0
    tracer.active = False
    counts = tracer.take_counts()

    cfg = DelayConfig(Favorability(np.array([0.9, 0.85, 0.95, 0.8])), beta=1.5, tau=30)
    traj = simulate_delayed(SimplexState(np.array([0.25, 0.26, 0.24, 0.25])), cfg,
                            steps=400, transient=150)
    assert counts["delay.states_recorded"] == len(traj.states) == 251
    assert counts["delay.map_steps"] == 400
    assert counts["delay.classify_calls"] == 1
    assert counts["dynamics.iterate_steps"] > 0
    # One state per trajectory (its final state), none per recorded row.
    assert counts["core.states_built"] <= 2
    names = {name for name, *_ in tracer.spans}
    assert {"delay.simulate_delayed", "delay.classify_regime", "dynamics.iterate"} <= names


def test_parser_keeps_threads():
    probe = ["delay", "--c", "1,1", "--p0", "0.5,0.5", "--tau", "1", "--beta", "0"]
    assert simplexdyn.cli.build_parser().parse_args(probe).threads == 1
