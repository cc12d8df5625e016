"""Observation does not change the observed.

Every named scenario is run once with the default (full) observability
stack, then again under each other observability configuration; the
network-canonical part of ``MitsSystem.snapshot()`` must not move.
Observer-owned sections are left out: the tracer, flight recorder, SLO
verdicts, watchdog and ``events_run`` (the sampler's own ticks are
simulator events), the ``simulator`` metrics component (queue depth
counts those ticks), and ``faults.affected_traces`` (trace ids).
"""

import pytest

from repro.core.scenarios import build
from repro.obs.sampling import scaled_policy

SCENARIOS = ("quickstart", "classroom", "faulty-classroom")

#: observability configurations, as keyword arguments to ``build()``
CONFIGS = {
    "full": {},
    "off": {"tracing": False, "telemetry_interval": None,
            "watchdog": False, "meter": False},
    "stream": {"stream": "obs_{scenario}.jsonl"},
    "profile": {"profile": True},
    "sampled": {"sampling": scaled_policy(0.1)},
}


def network_view(snap, config):
    view = {key: snap[key] for key in
            ("sim_time", "sites", "switches", "topology", "audit",
             "db_statistics")}
    view["metrics"] = {component: entries for component, entries
                       in snap["metrics"].items()
                       if component != "simulator"}
    view["faults_injected"] = snap["faults"].get("injected")
    if config != "sampled":
        # the top-K ledger sketch keeps different accounts by design
        view["accounting"] = snap["accounting"]
    return view


def run(scenario, config, tmp_path):
    kwargs = dict(CONFIGS[config])
    if "stream" in kwargs:
        kwargs["stream"] = str(tmp_path / kwargs["stream"].format(
            scenario=scenario))
    scenario_run = build(scenario, **kwargs)
    scenario_run.run_to_horizon()
    snap = scenario_run.mits.snapshot()
    if scenario_run.mits.sink is not None:
        scenario_run.mits.sink.close()
    return snap


@pytest.fixture(scope="module", params=SCENARIOS)
def observed(request, tmp_path_factory):
    """One full-observability run per scenario, shared by its configs."""
    scenario = request.param
    return scenario, run(scenario, "full", tmp_path_factory.mktemp(scenario))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_observation_does_not_change_the_observed(observed, config,
                                                  tmp_path):
    scenario, reference = observed
    snap = run(scenario, config, tmp_path)
    assert network_view(snap, config) == network_view(reference, config)
