import json
import math
from pathlib import Path

import jsonschema
import pytest

import olog
from olog.algorithms import broken_binary_search
from olog.checker import (
    InstanceSpace,
    enumerate_instances,
    nondecreasing_sequences,
    verify_all,
)
from olog.errors import PreconditionError

SCHEMAS = Path(olog.__file__).parent / "schemas"


def _sequence_count(max_len, alphabet):
    # multisets of each size: C(n + alphabet - 1, alphabet - 1)
    return sum(math.comb(n + alphabet - 1, alphabet - 1) for n in range(max_len + 1))


def test_space_validation():
    with pytest.raises(PreconditionError):
        InstanceSpace(max_len=0)
    with pytest.raises(PreconditionError):
        InstanceSpace(alphabet=0)


def test_enumeration_tiny_space():
    space = InstanceSpace(max_len=1, alphabet=1)
    instances = list(enumerate_instances(space))
    assert len(instances) == 6  # ([], [0]) x keys {-1, 0, 1}
    assert [tuple(s) for s, _ in instances] == [(), (), (), (0,), (0,), (0,)]
    assert [k for _, k in instances] == [-1, 0, 1, -1, 0, 1]


def test_enumeration_count_formula():
    space = InstanceSpace(max_len=8, alphabet=6)
    total = sum(1 for _ in enumerate_instances(space))
    assert _sequence_count(8, 6) == 3003 == math.comb(14, 6)
    assert total == 3003 * space.keys_per_sequence == 24024


def test_enumeration_is_sorted_and_ordered():
    space = InstanceSpace(max_len=3, alphabet=3)
    seqs = [tuple(s) for s, k in enumerate_instances(space) if k == -1]
    assert all(list(s) == sorted(s) for s in seqs)
    # shortest first, lexicographic within a length
    keyed = [(len(s), s) for s in seqs]
    assert keyed == sorted(keyed)
    assert len(set(seqs)) == len(seqs)


def test_nondecreasing_sequences_exact_small_case():
    assert list(nondecreasing_sequences(2, 2)) == [(0, 0), (0, 1), (1, 1)]


@pytest.fixture(scope="module")
def default_report():
    return verify_all(InstanceSpace(), grid=2**20)


def test_default_space_all_properties_pass(default_report):
    assert default_report.instances_checked == 24024
    assert default_report.all_passed
    assert len(default_report.properties) == 9
    assert {p.id for p in default_report.properties} == {f"P{i}" for i in range(1, 10)}
    assert default_report.minimal_counterexample() is None


def test_counter_equals_tbs_on_default_space(default_report):
    # observed gap between the transition cost and the counter: zero on
    # every enumerated instance, i.e. the model is exact there
    assert default_report.max_tbs_gap == 0


def test_report_serializes_against_schema(default_report):
    schema = json.loads((SCHEMAS / "check_report.schema.json").read_text())
    payload = default_report.to_dict()
    jsonschema.validate(payload, schema)
    json.dumps(payload)


def test_verify_all_rejects_small_grid():
    with pytest.raises(PreconditionError):
        verify_all(InstanceSpace(max_len=1, alphabet=1), grid=1)


def test_tiny_space_passes():
    report = verify_all(InstanceSpace(max_len=1, alphabet=1), grid=2)
    assert report.all_passed
    assert report.instances_checked == 6


def test_mutant_is_caught_with_minimal_counterexample():
    report = verify_all(
        InstanceSpace(max_len=4, alphabet=3), grid=16, search_fn=broken_binary_search
    )
    assert not report.all_passed
    failing = {p.id for p in report.properties if not p.passed}
    assert failing & {"P3", "P4"}
    minimal = report.minimal_counterexample()
    assert (minimal["q"], minimal["key"]) == ([0], 1)


def test_mutant_report_is_schema_valid():
    report = verify_all(
        InstanceSpace(max_len=2, alphabet=2), grid=4, search_fn=broken_binary_search
    )
    schema = json.loads((SCHEMAS / "check_report.schema.json").read_text())
    jsonschema.validate(report.to_dict(), schema)


def test_parallel_equals_serial():
    space = InstanceSpace(max_len=4, alphabet=3)

    def strip(report):
        return (
            report.instances_checked,
            [(p.id, p.passed, p.violations, p.counterexample) for p in report.properties],
            report.max_tbs_gap,
        )

    serial = verify_all(space, grid=64, workers=0)
    parallel = verify_all(space, grid=64, workers=2)
    assert strip(serial) == strip(parallel)

    serial_m = verify_all(space, grid=64, workers=0, search_fn=broken_binary_search)
    parallel_m = verify_all(space, grid=64, workers=3, search_fn=broken_binary_search)
    assert strip(serial_m) == strip(parallel_m)


def test_determinism_across_runs():
    space = InstanceSpace(max_len=3, alphabet=3)
    a = verify_all(space, grid=32)
    b = verify_all(space, grid=32)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time_ms"), db.pop("wall_time_ms")
    assert da == db


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("OLOG_WORKERS", "2")
    report = verify_all(InstanceSpace(max_len=2, alphabet=2), grid=4)
    assert report.all_passed
    monkeypatch.setenv("OLOG_WORKERS", "nope")
    with pytest.raises(PreconditionError):
        verify_all(InstanceSpace(max_len=2, alphabet=2), grid=4)

