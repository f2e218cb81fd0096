"""Golden digest matrix: the refactor guard over every scheme.

Each cell runs about 60 s of simulated Table-2 traffic (40 rps of
legitimate users plus a 220 rps closed-loop DOPE flood from t=30 s) at
the LOW budget and pins one SHA-256 over the outcome: the counters
(minus the execution counters that record *how* the run was computed),
legitimate availability, legitimate p50/p99 latency, peak power and the
length of the scheme's per-slot decision history where it keeps one.

The matrix crosses the six schemes with the flat rack and the
``tree-pinned`` power tree, with no faults and with one fault plan (the
last server crashes and recovers, and the meter drops out past the
staleness bound), at two seeds.  A change that promises unchanged
outputs must leave every cell as it is; a change to a golden value
needs a CHANGES.md line saying which behaviour moved and why.
"""

import hashlib
import json

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    OnlineDetectScheme,
    PredictionScheme,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.faults import FaultInjector, FaultPlan
from repro.workloads import COLLA_FILT, K_MEANS, WORD_COUNT, uniform_mix

SCHEMES = {
    "capping": CappingScheme,
    "shaving": ShavingScheme,
    "token": TokenScheme,
    "anti-dope": AntiDopeScheme,
    "online-detect": OnlineDetectScheme,
    "prediction": PredictionScheme,
}
TOPOLOGIES = ("flat", "tree-pinned")
FAULTS = ("none", "crash-dropout")
SEEDS = (7, 1009)
DURATION_S = 60.0
ATTACK_MIX = uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT))

#: Counters that vary with how a run was executed, not with its outcome.
EXECUTION_COUNTERS = frozenset(
    {
        "engine.cohorts_dispatched",
        "engine.cohort_requests",
        "engine.fluid_segments",
        "engine.fluid_time_advanced_s",
        "cluster.power_model_evals",
        "cluster.power_model_vector_evals",
    }
)


def decision_history_length(scheme):
    """Entries in the scheme's per-slot decision trace, or None."""
    if hasattr(scheme, "decisions"):
        return len(scheme.decisions)
    if hasattr(scheme, "rpm"):
        return len(scheme.rpm.stats.decisions)
    return None


def run_cell(scheme_name, topology, fault, seed):
    """Run one matrix cell and return its outcome payload."""
    config = SimulationConfig.for_topology(
        topology, budget_level=BudgetLevel.LOW, seed=seed
    )
    scheme = SCHEMES[scheme_name]()
    sim = DataCenterSimulation(config, scheme=scheme)
    sim.add_normal_traffic(rate_rps=40.0, num_users=200)
    sim.add_flood(mix=ATTACK_MIX, rate_rps=220.0, num_agents=20, start_s=30.0)
    if fault == "crash-dropout":
        plan = FaultPlan(seed=seed)
        plan.server_crash(35.0, config.num_servers - 1, duration_s=10.0)
        plan.meter_dropout(40.0, duration_s=10.0)
        FaultInjector(sim, plan).arm()
    sim.run(DURATION_S)
    latency = sim.latency_stats()
    return {
        "counters": {
            name: value
            for name, value in sim.obs.counters.as_dict().items()
            if name not in EXECUTION_COUNTERS
        },
        "availability": sim.availability_report().availability,
        "p50_s": latency.p50,
        "p99_s": latency.p99,
        "peak_power_w": sim.meter.peak_power(),
        "decisions": decision_history_length(scheme),
    }


def payload_digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


CELLS = [
    (scheme, topology, fault, seed)
    for scheme in SCHEMES
    for topology in TOPOLOGIES
    for fault in FAULTS
    for seed in SEEDS
]

#: Payload digest per cell, computed before the scheme-layer refactor.
GOLDEN = {
    "anti-dope/flat/crash-dropout/1009": "c530d5c5820d651f9e91dc46ee0fd534754636b879baa68050a00d9283b3f5fd",
    "anti-dope/flat/crash-dropout/7": "20b22e580034c867584de0f5ef90a17d0e8e8a8c62196db26c7831d23b8adf3a",
    "anti-dope/flat/none/1009": "158bbce657f83e7cd2853c895be87a9ced51f09e9460a838328c3ab9f49b6beb",
    "anti-dope/flat/none/7": "8d0c2bc896630363229318b77725f2f3da05d5b4101146edf9d75917cd16a8c1",
    "anti-dope/tree-pinned/crash-dropout/1009": "b769f16b6f0fd06d0be8875677776a110a6a192a598e9848a736c9db6b5e59db",
    "anti-dope/tree-pinned/crash-dropout/7": "0bf562ac2c1d5422d2911ad29e0f4abb3bdcc81e82ab5c790c5730c5fe8c7827",
    "anti-dope/tree-pinned/none/1009": "f1cc3189f60a9303d061cc7fff1fccbef6ba42312d087d39d0a29fed18a87510",
    "anti-dope/tree-pinned/none/7": "f6fda09f713796c58a72372170d403f454a765fceba00050fa1ea9715551d0a3",
    "capping/flat/crash-dropout/1009": "84259e3345a646d73c9cfea2d04eb0e1bf0dca6ec817b8d7bab4cd15477eea5a",
    "capping/flat/crash-dropout/7": "730655e07087d70d67193e5fac5f22314562a9109518b0e6924ba8d5e9509222",
    "capping/flat/none/1009": "3651a62657e337c1dca0a4ce9bce9aaa8550abaafc2db9b5c17b709ec0e28223",
    "capping/flat/none/7": "eadddc50d63a20d0af5b9b10eee0e36e14a9c0d595804eacad6d9250344802a6",
    "capping/tree-pinned/crash-dropout/1009": "7f6a561d2de4def166996686738822d0ae39bf5db217fd1b93767f3b5b811e38",
    "capping/tree-pinned/crash-dropout/7": "a3140c7948fd938ea5167c3b7e3ccff7490db44ea6cd38cfed37e9ccb959c319",
    "capping/tree-pinned/none/1009": "cc92862eeb5ed8f0d0fa7cb8a3093fc9108ec2c72407a2fef59f8a9f796075aa",
    "capping/tree-pinned/none/7": "f98de5bff523adeebd439c5f03b60527383e85203654512e9cc6e73ba27d7f0d",
    "online-detect/flat/crash-dropout/1009": "c211ffec1594d0fa5b0aba55ef10decc601738922217cd2d0310145a17e32790",
    "online-detect/flat/crash-dropout/7": "4d69c072f672e842c9ab157f799c4d098438febf6144d78d24f8d7bc3a0578f4",
    "online-detect/flat/none/1009": "70ed4d85a94cb52c39600dde92a1ee164e13ed2bc67e59d53b20e160f6d5f79a",
    "online-detect/flat/none/7": "3132e1bd1475b5263b0a7bd49f7dbf77e305f5cc8233576b62928b56a7bbb99c",
    "online-detect/tree-pinned/crash-dropout/1009": "0a793192b528d99894a21aa4c5a67f33b541cb368d81013fe03819e9660bce66",
    "online-detect/tree-pinned/crash-dropout/7": "8e382e41f83b6ee892af08c537eda92670616bb1b0fda308aa737bddd7e30c8e",
    "online-detect/tree-pinned/none/1009": "a66c78d5f5a4cc9e5351a3ad0fc9101e926e5543c6fdd6076980bb8a1649ffb7",
    "online-detect/tree-pinned/none/7": "85a55d6344e95a74fbc6915dbdaae6c944ec2efa1db533c8aad8894d1ba533c6",
    "prediction/flat/crash-dropout/1009": "a0522ca04ee818b5a397c6872db21d5b54b074865be9d3743becc0c86cc6002e",
    "prediction/flat/crash-dropout/7": "6cbe800f1e2bd2ae3c8d8ecab20809143cfbfc42a5323e5c3fd351ba0c17b5de",
    "prediction/flat/none/1009": "4303d381a0a9515b66cafaadf3e7f75a3c0368b1eb1152ad3ad597686dcdee3b",
    "prediction/flat/none/7": "420282d277b50946c913d9f11e5f9d407992a90f5e61a9c8fb77cb66178f43dd",
    "prediction/tree-pinned/crash-dropout/1009": "b3a62c22b57e64bad838572e3c7d82be5e0d0dedd634250c7b6e2a6b765680d5",
    "prediction/tree-pinned/crash-dropout/7": "4ffd94358abc488c02767b962668ad23b09137c7908a8983e457457e8c1bb279",
    "prediction/tree-pinned/none/1009": "b14b2f3a8b728297104d7cd5b2eff2ea0710e104f8003063a435c0368278f2bf",
    "prediction/tree-pinned/none/7": "d20749583e1cfda5d208fd22543d6e2d3b9b0375a0ef5b78af656358ce612a79",
    "shaving/flat/crash-dropout/1009": "35cea0c1edd087a03211da2ee127fd6abcdea769406426cbd0c75ae349a1fc38",
    "shaving/flat/crash-dropout/7": "f253eb15fcfba49ed3b116f3a265799f5403b7376c40ddbf8870355f60fffae0",
    "shaving/flat/none/1009": "b9629aaad08539e565bd1a8dcd5900d878363b79a38bfaf830933a02cb904226",
    "shaving/flat/none/7": "7a43e33921b43379ee5f0669b2fb5f95005f789ed8c6a0b763ba3bee2c8c3694",
    "shaving/tree-pinned/crash-dropout/1009": "db50ce42721cb3b53948539f45d9d17f3889902f6eba853703d050dd6e3e0a89",
    "shaving/tree-pinned/crash-dropout/7": "d41bd190ebec275200bdb116d152e33b73ee419f19a3fed044c5eea7cca4841c",
    "shaving/tree-pinned/none/1009": "cc92862eeb5ed8f0d0fa7cb8a3093fc9108ec2c72407a2fef59f8a9f796075aa",
    "shaving/tree-pinned/none/7": "f98de5bff523adeebd439c5f03b60527383e85203654512e9cc6e73ba27d7f0d",
    "token/flat/crash-dropout/1009": "3165e90a74f9edb01aa36733a3fc86be1f865b7291eede9dfbc29f0bd3bd5c28",
    "token/flat/crash-dropout/7": "6cd3dee21d1434f4f2382f3d463b9a51b5da31a0230fd80bc0953fa2747f1a92",
    "token/flat/none/1009": "d655408d07adc1965d6573be4c5a492e327b494adad967112ec5d195f05f890b",
    "token/flat/none/7": "ba2908b0bccdd8638d20a3e009db6d05126c412142932afa71429251b5361b97",
    "token/tree-pinned/crash-dropout/1009": "2e4d5084660518cd46b4da1abe3a34486be371e39bd181615e4801f76564e116",
    "token/tree-pinned/crash-dropout/7": "20e5382e5f04867b932c0b11d569b172de73dd29396d1f03e773ab95e21fb68a",
    "token/tree-pinned/none/1009": "8cff4ea5c2be64f1fbfce594aa5568d62549c3459a3c60ec0dff2f6c523a86a0",
    "token/tree-pinned/none/7": "15be805d94dbae160962abdb7b21d74e23182405858a4f6b2aca31fed7eb5ed6",
}


@pytest.mark.parametrize(
    "scheme,topology,fault,seed", CELLS, ids=["/".join(map(str, c)) for c in CELLS]
)
def test_cell_matches_golden_digest(scheme, topology, fault, seed):
    payload = run_cell(scheme, topology, fault, seed)
    key = f"{scheme}/{topology}/{fault}/{seed}"
    assert payload_digest(payload) == GOLDEN[key]
