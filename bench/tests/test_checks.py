import workloads
from workloads import mismatches


def test_mismatches_allow_float_noise_only():
    ref = {"ks": 0.1, "samples": [1.0, -2.0]}
    assert mismatches({"ks": 0.1 + 1e-12, "samples": [1.0, -2.0 + 1e-12]},
                      ref) == []
    assert mismatches({"ks": 0.1, "samples": [1.0, -2.0 + 1e-6]},
                      ref) == ["samples"]
    assert mismatches({"ks": 0.1, "samples": [1.0]}, ref) == ["samples"]
    assert mismatches({"samples": [1.0, -2.0]}, ref) == ["ks"]


def _verify_out(identities=True, local_law=False, optical=True):
    status = "pass" if identities and local_law and optical else "fail"
    return {"status": status, "reports": {
        "identities": {"suite": "identities", "pass": identities},
        "local-law": {"suite": "local-law", "pass": local_law,
                      "pass_fraction": 0.075},
        "optical": {"suite": "optical", "pass": optical,
                    "medians": [1.0, 0.8, 0.6]},
    }}


def test_verify_gate_records_statistical_suites_without_failing():
    assert workloads._gate_verify(_verify_out(), 3) == []
    assert workloads._gate_verify(_verify_out(optical=False), 3) == []
    assert workloads._gate_verify(_verify_out(local_law=True), 0) == []


def test_verify_gate_requires_identities_and_a_consistent_status():
    assert workloads._gate_verify(_verify_out(identities=False), 3) == [
        "identities suite failed"]
    assert workloads._gate_verify(_verify_out(), 0) != []


def test_mc_edge_gate_checks_count_and_ks():
    out = {"ks": 0.05, "n": workloads.MC_N, "law": "tw1",
           "samples": [0.0] * workloads.MC_N}
    assert workloads._gate_mc_edge(out, 0) == []
    assert workloads._gate_mc_edge(dict(out, ks=0.9), 0) != []
    assert workloads._gate_mc_edge(dict(out, samples=[0.0]), 0) != []


def test_reference_holds_every_program_seed():
    import json
    import run
    with open(run.HERE / "reference.json") as fh:
        reference = json.load(fh)
    want = {str(s) for s in range(workloads.REFERENCE_SEEDS)}
    for name in workloads.WORKLOADS:
        assert set(reference[name]) == want, name
