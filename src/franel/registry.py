"""Catalog of verifiable statements: parameter grids, admissibility,
and runners.  This is what the CLI's verify and sweep commands dispatch on.

Each statement is swept over a single integer parameter (an index n or a
prime p); a runner may emit several reports per parameter (inner k loops,
the triple lists, the multi-index grid).  Inadmissible parameters inside a
requested range produce "skipped" records, never failures.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import congruences, conjectures, identities
from .modular import primes_in_range
from .reports import Report

MACMAHON_POINTS = (-3, -2, -1, 0, 1, 2, 3)


@dataclass(frozen=True)
class Statement:
    id: str
    kind: str  # "n" or "p"
    default_range: tuple[int, int]
    run: Callable[[int], list[Report]]
    admissible: Callable[[int], str | None]


def _ok(_: int) -> None:
    return None


def _need(lo: int, what: str) -> Callable[[int], str | None]:
    def check(v: int) -> str | None:
        return None if v >= lo else f"{what} requires parameter >= {lo}"

    return check


def _skip_if(pred: Callable[[int], bool], reason: str) -> Callable[[int], str | None]:
    return lambda v: reason if pred(v) else None


def _single(fn: Callable[[int], Report]) -> Callable[[int], list[Report]]:
    return lambda v: [fn(v)]


def _run_macmahon(n: int) -> list[Report]:
    return [identities.check_macmahon(n, x) for x in MACMAHON_POINTS]


def _run_induction(n: int) -> list[Report]:
    return [identities.check_induction_identity(n, k) for k in range(n + 1)]


def _run_summation(n: int) -> list[Report]:
    return [identities.check_summation_lemma(n, k) for k in range(n + 1)]


def _run_family(triples) -> Callable[[int], list[Report]]:
    return lambda n: [conjectures.check_family(t, n) for t in triples]


STATEMENTS: dict[str, Statement] = {
    s.id: s
    for s in [
        # identity suite (exact, parameter n)
        Statement("route_agreement", "n", (0, 300),
                  identities.check_route_agreement, _ok),
        Statement("macmahon", "n", (0, 100), _run_macmahon, _ok),
        Statement("strehl", "n", (0, 100),
                  _single(identities.check_strehl), _ok),
        Statement("sun_expansion", "n", (0, 100),
                  _single(identities.check_sun_expansion), _ok),
        Statement("induction", "n", (0, 80), _run_induction, _ok),
        Statement("summation_lemma", "n", (0, 80), _run_summation, _ok),
        Statement("recurrence", "n", (1, 299),
                  _single(identities.check_recurrence_step),
                  _need(1, "recurrence step")),
        Statement("integrality", "n", (2, 200),
                  _single(identities.check_integrality),
                  _need(2, "integrality")),
        Statement("partial_fraction", "n", (0, 200),
                  _single(identities.check_partial_fraction), _ok),
        # theorems and proof chain (congruences)
        Statement("theorem1", "n", (2, 500),
                  _single(congruences.check_theorem1), _need(2, "theorem1")),
        Statement("theorem2", "p", (3, 997),
                  _single(congruences.check_theorem2),
                  _skip_if(lambda p: p == 2, "p = 2: -16 not invertible")),
        Statement("theorem3", "p", (3, 997),
                  _single(congruences.check_theorem3),
                  _skip_if(lambda p: p % 4 != 3,
                           "hypothesis requires p = 3 (mod 4)")),
        Statement("reduction_chain", "p", (3, 499),
                  congruences.check_reduction_chain,
                  _skip_if(lambda p: p == 2, "p must be odd")),
        # conjectures
        Statement("conjecture1", "p", (5, 997),
                  _single(conjectures.check_conjecture1),
                  _skip_if(lambda p: p <= 3, "hypothesis requires p > 3")),
        Statement("conjecture2", "p", (3, 997),
                  _single(conjectures.check_conjecture2),
                  _skip_if(lambda p: p == 2, "p must be odd")),
        Statement("family_new1", "n", (1, 500),
                  _run_family(conjectures.NEW1_TRIPLES),
                  _skip_if(lambda n: n < 2,
                           "outside published claim (needs n > 1)")),
        Statement("family_new2", "n", (1, 500),
                  _run_family(conjectures.NEW2_TRIPLES),
                  _skip_if(lambda n: n < 2,
                           "outside published claim (needs n > 1)")),
        Statement("third_conjecture", "n", (1, 120),
                  conjectures.third_conjecture_grid,
                  _need(1, "third conjecture")),
        Statement("product_note", "p", (3, 47), conjectures.check_product_note,
                  _skip_if(lambda p: p == 2, "p must be odd")),
        Statement("zw_guo", "n", (1, 500),
                  _single(lambda n: conjectures.check_zw_sun(n, "guo")),
                  _need(1, "zw_guo")),
        Statement("zw_strengthened", "n", (2, 500),
                  _single(lambda n: conjectures.check_zw_sun(n, "strengthened")),
                  _need(2, "zw_strengthened")),
        # auxiliary congruences the proofs route through
        Statement("babbage", "p", (3, 499), congruences.check_babbage,
                  _skip_if(lambda p: p == 2, "babbage requires an odd prime")),
        Statement("morley", "p", (3, 499), congruences.check_morley,
                  _skip_if(lambda p: p <= 3, "morley requires p > 3")),
        Statement("jarvis_verrill", "p", (3, 499), congruences.check_jarvis_verrill,
                  _skip_if(lambda p: p == 2, "jarvis_verrill requires an odd prime")),
        Statement("multinomial", "p", (3, 499), congruences.check_multinomial,
                  _skip_if(lambda p: p <= 3, "multinomial requires p > 3")),
        Statement("half_binom", "p", (3, 499), congruences.check_half_binom,
                  _skip_if(lambda p: p == 2, "half_binom requires an odd prime")),
        Statement("central_pmod", "p", (3, 499), congruences.check_central_pmod,
                  _skip_if(lambda p: p == 2, "central_pmod requires an odd prime")),
        Statement("fermat_square", "p", (3, 499), congruences.check_fermat_square,
                  _skip_if(lambda p: p == 2, "fermat_square requires an odd prime")),
        Statement("final_reflect", "p", (3, 499), congruences.check_final_reflect,
                  _skip_if(lambda p: p == 2, "final_reflect requires an odd prime")),
    ]
}


def statement_ids() -> list[str]:
    return sorted(STATEMENTS)


def cells_for(stmt: Statement, lo: int | None = None, hi: int | None = None) -> list[int]:
    """The parameter cells of a statement over an (optionally overridden)
    inclusive range; for "p" statements these are the primes in range."""
    d_lo, d_hi = stmt.default_range
    lo = d_lo if lo is None else lo
    hi = d_hi if hi is None else hi
    if stmt.kind == "p":
        return primes_in_range(max(lo, 2), hi) if max(lo, 2) <= hi else []
    return list(range(lo, hi + 1))


def run_cell(statement_id: str, param: int) -> list[Report]:
    """Run one statement at one parameter; inadmissible parameters yield a
    single skipped record.  Top-level so worker processes can import it."""
    stmt = STATEMENTS[statement_id]
    reason = stmt.admissible(param)
    if reason is not None:
        return [
            Report(
                statement=statement_id,
                params={stmt.kind: param},
                modulus=None,
                lhs=0,
                rhs=0,
                skipped_reason=reason,
            )
        ]
    return stmt.run(param)


def run_cells(statement_id: str, params: list[int]) -> list[Report]:
    out: list[Report] = []
    for param in params:
        out.extend(run_cell(statement_id, param))
    return out
