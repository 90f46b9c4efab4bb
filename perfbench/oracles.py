"""Known answers for every olog CLI call the benchmark makes.

Nothing here imports olog: each expected verdict is computed from
closed forms and the standard library, so a bug in olog cannot make its
own output look right.

* ``verify``: the instance count is (a+2)*C(m+a, m), the number of
  non-decreasing sequences of length 0..m over a letters (hockey-stick
  sum of C(L+a-1, L)) times the a+2 keys in [-1, a]; all nine
  properties P1..P9 pass.
* ``bound``: the witness is (c=6, n0=2), with five ok steps, each
  checked to the requested grid.
* ``bench``: the worst binary-search step count over the key family
  is ilog2(n)+1 = n.bit_length() (Knuth, TAOCP Vol. 3, 6.2.1) and the
  class is Logarithmic; the linear scan's worst count is n and the
  class is Linear.
* ``trace``: ``r`` agrees with ``bisect``, ``t <= n.bit_length()``, the
  trace holds t records, and the budget is 2*ilog2(n+1)+1.
* an unsorted ``trace`` input exits 2 with an ``error:`` line and no
  traceback.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import bisect
import json
from math import comb

PROPERTY_IDS = tuple(f"P{i}" for i in range(1, 10))
WITNESS = {"c": 6, "n0": 2}
# First grid point checked by each of the five chain steps.
CHAIN_STEP_STARTS = (1, 1, 1, 1, 2)


def expected_instances(max_len: int, alphabet: int) -> int:
    return (alphabet + 2) * comb(max_len + alphabet, max_len)


def chain_points(grid: int) -> int:
    """Grid points the five P9 chain steps cover together."""
    return sum(grid - start + 1 for start in CHAIN_STEP_STARTS)


def scan_points(call: dict) -> int:
    """Grid points covered by the P8 and P9 scans of one call: every
    point of each scan's checked range, however the scan is done."""
    p = call["params"]
    if call["check"] == "verify":
        return p["grid"] + chain_points(p["grid"])
    if call["check"] == "bound":
        return chain_points(p["grid"])
    return 0


def call_instances(call: dict) -> int:
    p = call["params"]
    if call["check"] == "verify":
        return expected_instances(p["max_len"], p["alphabet"])
    return 0


def _json(stdout: str):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as err:
        return None, f"output is not JSON: {err}"
    if not isinstance(doc, dict):
        return None, f"output is not a JSON object: {stdout[:80]!r}"
    return doc, None


def _exit(rc: int, want: int, stderr: str) -> list[str]:
    problems = []
    if rc != want:
        problems.append(f"exit code {rc}, expected {want}: {stderr.strip()[-200:]}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


def check_verify(params: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    problems = _exit(rc, 0, stderr)
    doc, err = _json(stdout)
    if err:
        return problems + [err]
    want = expected_instances(params["max_len"], params["alphabet"])
    if doc.get("instances_checked") != want:
        problems.append(f"instances_checked={doc.get('instances_checked')}, expected {want}")
    props = {p.get("id"): p for p in doc.get("properties", [])}
    if set(props) != set(PROPERTY_IDS):
        problems.append(f"properties {sorted(map(str, props))}, expected {list(PROPERTY_IDS)}")
    failing = [pid for pid, p in props.items() if p.get("passed") is not True]
    if failing:
        problems.append(f"properties failed: {failing}")
    if doc.get("grid_bounds", {}).get("grid") != params["grid"]:
        problems.append(f"grid_bounds {doc.get('grid_bounds')} miss grid={params['grid']}")
    return problems


def check_bound(params: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    problems = _exit(rc, 0, stderr)
    doc, err = _json(stdout)
    if err:
        return problems + [err]
    if doc.get("witness") != WITNESS:
        problems.append(f"witness {doc.get('witness')}, expected {WITNESS}")
    steps = doc.get("steps", [])
    if len(steps) != len(CHAIN_STEP_STARTS):
        problems.append(f"{len(steps)} chain steps, expected {len(CHAIN_STEP_STARTS)}")
    if not all(s.get("ok") is True for s in steps):
        problems.append("a chain step is not ok")
    if not all(s.get("checked_to") == params["grid"] for s in steps):
        problems.append(f"checked_to {[s.get('checked_to') for s in steps]} != {params['grid']}")
    return problems


def worst_steps(algo: str, n: int) -> int:
    return n.bit_length() if algo == "binary" else n


def check_bench(params: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    problems = _exit(rc, 0, stderr)
    doc, err = _json(stdout)
    if err:
        return problems + [err]
    algo = params["algo"]
    samples = doc.get("samples", [])
    got_sizes = [s.get("n") for s in samples]
    if got_sizes != params["sizes"]:
        problems.append(f"sizes {got_sizes}, expected {params['sizes']}")
    wrong = [
        (s.get("n"), s.get("t_max"))
        for s in samples
        if s.get("t_max") != worst_steps(algo, s.get("n", 0))
    ]
    if wrong:
        problems.append(f"(n, t_max) off the exact worst case: {wrong[:3]}")
    want = "Logarithmic" if algo == "binary" else "Linear"
    verdict = doc.get("classification", {}).get("verdict")
    if verdict != want:
        problems.append(f"verdict {verdict}, expected {want}")
    return problems


def check_trace(params: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    problems = _exit(rc, 0, stderr)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return problems + ["no output"]
    records = []
    for line in lines:
        doc, err = _json(line)
        if err:
            return problems + [err]
        records.append(doc)
    final, steps = records[-1], records[:-1]
    q, key = params["q"], params["key"]
    n = len(q)
    i = bisect.bisect_left(q, key)
    present = i < n and q[i] == key
    r, t = final.get("r"), final.get("t")
    if present and not (isinstance(r, int) and 0 <= r < n and q[r] == key):
        problems.append(f"r={r} does not index key {key}")
    if not present and r != -1:
        problems.append(f"r={r} for an absent key")
    if not isinstance(t, int) or t > n.bit_length():
        problems.append(f"t={t} exceeds the exact worst case {n.bit_length()}")
    if len(steps) != t:
        problems.append(f"{len(steps)} trace records for t={t}")
    budget = 2 * ((n + 1).bit_length() - 1) + 1
    if final.get("budget") != budget:
        problems.append(f"budget={final.get('budget')}, expected {budget}")
    return problems


def check_rejected(params: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    problems = _exit(rc, 2, stderr)
    if not stderr.startswith("error:"):
        problems.append(f"stderr does not start with 'error:': {stderr[:80]!r}")
    return problems


CHECKS = {
    "verify": check_verify,
    "bound": check_bound,
    "bench": check_bench,
    "trace": check_trace,
    "rejected": check_rejected,
}


def check(call: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    try:
        return CHECKS[call["check"]](call["params"], rc, stdout, stderr)
    except (AttributeError, TypeError, ValueError) as err:
        return [f"malformed output ({err!r}): {stdout[:80]!r}"]
