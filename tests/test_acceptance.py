"""Acceptance suite: every top-level verification claim at its stated
range and tolerance (all checks are exact, so "tolerance" means equality),
one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines).
"""
import hashlib
import io
import json
import time
from pathlib import Path

import pytest

from franel import congruences as cg
from franel import conjectures as cj
from franel import identities as ids
from franel import registry
from franel.cache import CacheError, load_table, store_table
from franel.combinatorics import ROUTES, franel, franel_direct, franel_upto
from franel.harness import run_sweep
from franel.modular import primes_in_range, two_squares_decompose


def _announce(name, started=None):
    suffix = f" ({time.monotonic() - started:.1f}s)" if started is not None else ""
    print(f"[ACCEPTANCE] {name}: PASS{suffix}")


def test_criterion_franel_route_agreement():
    started = time.monotonic()
    reference = [franel_direct(n) for n in range(301)]
    assert reference[:4] == [1, 2, 10, 56]
    for route in ROUTES:
        assert [franel(n, route) for n in range(301)] == reference, route
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"route agreement took {elapsed:.1f}s (budget 10s)"
    _announce("franel route agreement, n <= 300", started)


def test_criterion_identity_suite():
    started = time.monotonic()
    failures = []

    def run(label, reports):
        failures.extend((label, r.params) for r in reports if r.verdict != "pass")

    def one(reports):
        [r] = reports
        return r

    def over(key, values, reports):
        # one record per point, in order
        assert [r.params[key] for r in reports] == list(values)
        return reports

    # both polynomial sides checked at 7 integer points per n (the stated
    # acceptance grid; each side has degree <= n in x, so this certifies
    # the instances swept, not the polynomial identity for n >= 7)
    run("macmahon", [
        r for n in range(101) for r in over("x", range(-3, 4), ids.check_macmahon(n))
    ])
    run("strehl", [one(ids.check_strehl(n)) for n in range(101)])
    run("sun_expansion", [one(ids.check_sun_expansion(n)) for n in range(101)])
    run("induction", [
        r for n in range(81)
        for r in over("k", range(n + 1), ids.check_induction_identity(n))
    ])
    run("summation_lemma", [
        r for n in range(81)
        for r in over("k", range(n + 1), ids.check_summation_lemma(n))
    ])
    run("recurrence", [one(ids.check_recurrence_step(n)) for n in range(1, 300)])
    run("integrality", [one(ids.check_integrality(n)) for n in range(2, 201)])
    run("partial_fraction", [one(ids.check_partial_fraction(n)) for n in range(201)])
    assert not failures, failures[:5]
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"identity suite took {elapsed:.1f}s (budget 60s)"
    _announce("identity suite, documented ranges", started)


def test_criterion_theorem1_divisibility():
    started = time.monotonic()
    for n in range(2, 501):
        [r] = cg.check_theorem1(n)
        assert r.verdict == "pass" and r.witness is not None, n
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"theorem1 sweep took {elapsed:.1f}s (budget 120s)"
    _announce("theorem 1 divisibility with witness, 2 <= n <= 500", started)


def test_criterion_theorem2_mod_p_cubed():
    started = time.monotonic()
    [r3] = cg.check_theorem2(3)
    assert r3.lhs == r3.rhs == 24 and r3.modulus == 27
    for p in primes_in_range(3, 997):
        [r] = cg.check_theorem2(p)
        assert r.verdict == "pass", p
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"theorem2 sweep took {elapsed:.1f}s (budget 300s)"
    _announce("theorem 2 mod p^3, odd p < 1000", started)


def test_criterion_theorem3_mod_p():
    started = time.monotonic()
    checked = 0
    for p in primes_in_range(3, 997):
        if p % 4 == 3:
            [r] = cg.check_theorem3(p)
            assert r.verdict == "pass", p
            checked += 1
    assert checked == 87
    _announce("theorem 3 mod p, p = 3 (mod 4), p < 1000", started)


def test_criterion_auxiliary_congruences():
    started = time.monotonic()
    aux_ids = ("babbage", "morley", "jarvis_verrill", "multinomial",
               "half_binom", "central_pmod", "fermat_square", "final_reflect")
    for p in primes_in_range(2, 499):
        for aux_id in aux_ids:
            stmt = registry.STATEMENTS[aux_id]
            assert stmt.run is getattr(cg, f"check_{aux_id}")
            reports = registry.run_cell(aux_id, p)
            if p == 2 or (p == 3 and aux_id in ("morley", "multinomial")):
                assert [r.verdict for r in reports] == ["skipped"], (aux_id, p)
                continue
            bad = [r.params for r in reports if r.verdict != "pass"]
            assert reports and not bad, (aux_id, p, bad[:3])
    _announce("auxiliary congruences, p < 500 inside each hypothesis, all inner params",
              started)


def test_criterion_conjecture1_and_theorem2_agreement():
    started = time.monotonic()
    for p in primes_in_range(5, 997):
        [c1] = cj.check_conjecture1(p)
        [t2] = cg.check_theorem2(p)
        assert c1.verdict == "pass", p
        assert c1.lhs == t2.lhs % (p * p) and c1.rhs == t2.rhs % (p * p), p
    _announce("conjecture 1 mod p^2 and p^3-check agreement, 3 < p < 1000",
              started)


def test_criterion_conjecture2_all_cases():
    started = time.monotonic()
    for p in primes_in_range(3, 997):
        [r] = cj.check_conjecture2(p)
        assert r.verdict == "pass", p
        if p % 12 == 1:
            ts = two_squares_decompose(p)
            assert (ts.y % 6 == 0) != ((ts.x - 3) % 6 == 0), p
    _announce("conjecture 2 mod p^2, all four cases, odd p < 1000", started)


def test_criterion_divisibility_families():
    started = time.monotonic()
    for triples in (cj.NEW1_TRIPLES, cj.NEW2_TRIPLES):
        for n in range(2, 501):
            reports = cj.check_families(triples, n)
            assert len(reports) == len(triples), n
            for t, r in zip(triples, reports):
                assert r.verdict == "pass" and r.witness is not None, (t, n)
    elapsed = time.monotonic() - started
    assert elapsed < 900, f"family sweep took {elapsed:.1f}s (budget 900s)"
    _announce("12 divisibility families, 2 <= n <= 500", started)


def test_criterion_third_conjecture_and_product_note():
    started = time.monotonic()
    for n in range(1, 121):
        bad = [r.params for r in cj.third_conjecture_grid(n) if r.verdict != "pass"]
        assert not bad, (n, bad[:3])
    for p in primes_in_range(3, 50):
        reports = cj.check_product_note(p)
        assert len(reports) == 5 * p, p
        bad = [r.params for r in reports if r.verdict != "pass"]
        assert not bad, (p, bad[:3])
    _announce("third conjecture grid (n <= 120, m <= 3, |a_i| <= 3) "
              "and product note (p <= 50, a <= 5)", started)


def test_criterion_zw_sun_forms():
    started = time.monotonic()
    for n in range(1, 501):
        [r] = cj.check_zw_guo(n)
        assert r.verdict == "pass", n
        if n >= 2:
            [r] = cj.check_zw_strengthened(n)
            assert r.verdict == "pass", n
    _announce("alternating forms mod 2n^2 (n <= 500) and mod n^2(n-1)",
              started)


def test_criterion_harness_determinism_and_cache(tmp_path):
    started = time.monotonic()
    streams = {1: io.StringIO(), 8: io.StringIO()}
    s1 = run_sweep(workers=1, out=streams[1])
    s8 = run_sweep(workers=8, out=streams[8])
    assert s1 == s8
    assert s1["total"]["fail"] == 0

    # the serial stream, byte for byte and in order, and the 8-worker one
    # is the same stream
    for stream in streams.values():
        assert hashlib.sha256(stream.getvalue().encode()).hexdigest() == (
            "a63854d0ee24de150e5074320a3c275f50c9bd24ed0043675ffe0568d3760fb5"
        )

    # the record lines too, as perfbench digests them: sha256 of the sorted
    # lines, each followed by a newline
    digests = {}
    for workers, stream in streams.items():
        h = hashlib.sha256()
        for line in sorted(stream.getvalue().encode().splitlines()):
            h.update(line + b"\n")
        digests[workers] = h.hexdigest()
    del streams
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    assert digests[1] == digests[8] == json.loads(reference.read_text())["grid-stream"]["digest"]

    path = str(tmp_path / "cache.txt")
    table = tuple(franel_upto(300))
    store_table(path, table)
    assert load_table(path) == table

    lines = Path(path).read_text().splitlines()
    lines[3] = lines[3].split("\t")[0] + "\t" + str(int(lines[3].split("\t")[1]) + 1)
    Path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError):
        load_table(path)
    _announce("full-sweep summary and record lines identical for 1 and 8 "
              "workers and to the benchmark reference; cache "
              "roundtrip lossless; corruption detected", started)
