"""Catalog of verifiable statements: id, parameter axis, default range
and check.  This is what the CLI's sweep command dispatches on.

Each statement is swept over a single integer parameter (an index n or a
prime p), and its check maps one parameter to that cell's records: one
record, or several (inner k loops, the MacMahon points, the triple lists,
the multi-index grid).  A statement's hypothesis is its check's own guard:
outside it the check raises OutsideHypothesis, and run_cell makes that one
skipped record, never a failure.  Any other exception a check raises at a
cell (a composite p, NotCoprimeError, InconsistencyError, a defect) becomes
that cell's one error record, which a sweep counts and exits 1 on.  Only
error_report makes error records, for the sweep's dead pool processes too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import congruences, conjectures, identities
from .combinatorics import franel_strehl, franel_sun_expansion
from .modular import primes_in_range
from .reports import OutsideHypothesis, Report


@dataclass(frozen=True)
class Statement:
    id: str
    kind: str  # "n" or "p"
    default_range: tuple[int, int]
    run: Callable[[int], list[Report]]


STATEMENTS: dict[str, Statement] = {
    s.id: s
    for s in [
        # identity suite (exact, parameter n)
        Statement("route_agreement", "n", (0, 300), identities.check_route_agreement),
        Statement("macmahon", "n", (0, 100), identities.check_macmahon),
        Statement("strehl", "n", (0, 100),
                  partial(identities.check_route, "strehl", franel_strehl)),
        Statement("sun_expansion", "n", (0, 100),
                  partial(identities.check_route, "sun_expansion", franel_sun_expansion)),
        Statement("induction", "n", (0, 80), identities.check_induction_identity),
        Statement("summation_lemma", "n", (0, 80), identities.check_summation_lemma),
        Statement("recurrence", "n", (1, 299), identities.check_recurrence_step),
        Statement("integrality", "n", (2, 200), identities.check_integrality),
        Statement("partial_fraction", "n", (0, 200), identities.check_partial_fraction),
        # theorems and proof chain (congruences)
        Statement("theorem1", "n", (2, 500), congruences.check_theorem1),
        Statement("theorem2", "p", (3, 997), congruences.check_theorem2),
        Statement("theorem3", "p", (3, 997), congruences.check_theorem3),
        Statement("reduction_chain", "p", (3, 499),
                  congruences.check_reduction_chain),
        # conjectures
        Statement("conjecture1", "p", (5, 997), conjectures.check_conjecture1),
        Statement("conjecture2", "p", (3, 997), conjectures.check_conjecture2),
        Statement("family_new1", "n", (1, 500),
                  partial(conjectures.check_families, conjectures.NEW1_TRIPLES)),
        Statement("family_new2", "n", (1, 500),
                  partial(conjectures.check_families, conjectures.NEW2_TRIPLES)),
        Statement("third_conjecture", "n", (1, 120),
                  conjectures.third_conjecture_grid),
        Statement("product_note", "p", (3, 47), conjectures.check_product_note),
        Statement("zw_guo", "n", (1, 500), conjectures.check_zw_guo),
        Statement("zw_strengthened", "n", (2, 500), conjectures.check_zw_strengthened),
        # auxiliary congruences the proofs route through
        Statement("babbage", "p", (3, 499), congruences.check_babbage),
        Statement("morley", "p", (3, 499), congruences.check_morley),
        Statement("jarvis_verrill", "p", (3, 499), congruences.check_jarvis_verrill),
        Statement("multinomial", "p", (3, 499), congruences.check_multinomial),
        Statement("half_binom", "p", (3, 499), congruences.check_half_binom),
        Statement("central_pmod", "p", (3, 499), congruences.check_central_pmod),
        Statement("fermat_square", "p", (3, 499), congruences.check_fermat_square),
        Statement("final_reflect", "p", (3, 499), congruences.check_final_reflect),
    ]
}


def statement_ids() -> list[str]:
    return sorted(STATEMENTS)


def cells_for(stmt: Statement, lo: int, hi: int) -> list[int]:
    """The parameter cells of a statement over the inclusive range lo..hi;
    for "p" statements these are the primes in range."""
    if stmt.kind == "p":
        return primes_in_range(max(lo, 2), hi) if max(lo, 2) <= hi else []
    return list(range(lo, hi + 1))


def error_report(statement_id: str, param: int, exc: BaseException) -> Report:
    """The one error record of a cell: exc's type and message, for a check
    that raised it or a pool process that died before the cell was written."""
    return Report(statement_id, {STATEMENTS[statement_id].kind: param},
                  error=f"{type(exc).__name__}: {exc}")


def run_cell(statement_id: str, param: int) -> list[Report]:
    """Run one statement at one parameter; a parameter outside its
    hypothesis yields a single skipped record with the check's reason, and
    any other exception a single error record (error_report)."""
    stmt = STATEMENTS[statement_id]
    try:
        return stmt.run(param)
    except OutsideHypothesis as exc:
        return [Report(statement_id, {stmt.kind: param}, skipped_reason=str(exc))]
    except Exception as exc:
        return [error_report(statement_id, param, exc)]


def run_cells(statement_id: str, params: list[int]) -> list[Report]:
    out: list[Report] = []
    for param in params:
        out.extend(run_cell(statement_id, param))
    return out
