"""The mutation catalogue: source edits that a named test must catch.

Each entry is an exact substitution in one file, old text for new, and
the pytest target (a file or a node id) that must fail once it is
applied.  The old text must occur exactly once in its file, so an entry
goes stale loudly when the code it names changes.  run.py applies the
entries one at a time to a copy of the tree.

Left out on purpose: the reduction chain's ``pow(4, 1 - p, m2)`` ->
``pow(4, p - 1, m2)``.  It is an equivalent mutant mod p^2: ``inv4_pow``
multiplies only p and multiples of p, and 4^(1-p) = 4^(p-1) = 1 (mod p).
Nor has ``chain_newsum2_line1`` an entry of its own: mod p^2 it differs
from ``chain_newsum2_line2`` by -4^(1-p) sum_{k>=1} term_k p^2/k = 0, so it
cannot fail unless line 2 does.
"""
from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    test: str


CATALOGUE = (
    # the one place a hypothesis turns into a skipped record
    Mutant(
        "run-cell-catches-any-value-error",
        "src/franel/registry.py",
        "    except OutsideHypothesis as exc:",
        "    except ValueError as exc:",
        "tests/test_cache_cli.py::TestVerifyCommand",
    ),
    # any other exception in a cell is its error record, whatever its type
    Mutant(
        "run-cell-catches-only-arithmetic-errors",
        "src/franel/registry.py",
        "    except Exception as exc:",
        "    except ArithmeticError as exc:",
        "tests/test_cache_cli.py::TestVerifyCommand::test_run_cell_skips_only_outside_hypothesis",
    ),
    # the hypotheses, each stated once, in its check, and the one guard of
    # the checks on primes: a p that is not prime is an error before it can
    # be a skip
    Mutant(
        "morley-admits-p-3",
        "src/franel/congruences.py",
        '    require_prime_above(p, 3, "morley requires p > 3")',
        '    require_prime_above(p, 2, "morley requires p > 3")',
        "tests/test_congruences.py::TestAuxiliary",
    ),
    Mutant(
        "prime-guard-skips-before-primality",
        "src/franel/congruences.py",
        "    require_prime(p)\n    if p <= bound:\n        raise OutsideHypothesis(reason)\n",
        "    if p <= bound:\n        raise OutsideHypothesis(reason)\n    require_prime(p)\n",
        "tests/test_cache_cli.py::TestVerifyCommand::test_composite_p_raises_not_skips",
    ),
    Mutant(
        "theorem3-admits-p-2",
        "src/franel/congruences.py",
        "    if p % 4 != 3:",
        "    if p % 4 == 1:",
        "tests/test_cache_cli.py::TestVerifyCommand::test_skip_rule_matches_check_guard",
    ),
    Mutant(
        "family-admits-n-1",
        "src/franel/conjectures.py",
        "    if n < 2:\n        raise OutsideHypothesis(\"outside published claim",
        "    if n < 1:\n        raise OutsideHypothesis(\"outside published claim",
        "tests/test_cache_cli.py::TestSweepCommand::test_edge_of_domain_records_pinned",
    ),
    Mutant(
        "central-pmod-reason-reworded",
        "src/franel/congruences.py",
        '"central_pmod requires an odd prime"',
        '"central_pmod requires odd primes"',
        "tests/test_cache_cli.py::TestSweepCommand::test_edge_of_domain_records_pinned",
    ),
    # the family walk: one state per base, and each line of its step
    Mutant(
        "family-restart-dropped",
        "src/franel/congruences.py",
        "    if n < j:\n        j, state = 0, _FAMILY_START",
        "    if False:\n        j, state = 0, _FAMILY_START",
        "tests/test_congruences.py::test_family_sum_keeps_one_state_per_base",
    ),
    Mutant(
        "family-state-committed-in-loop",
        "src/franel/congruences.py",
        "        p_prev, p_k = p_k, p_next\n",
        "        p_prev, p_k = p_k, p_next\n        _FAMILY_CACHE[c] = (k + 1, (u, v, p_prev, p_k))\n",
        "tests/test_congruences.py::test_failed_walk_leaves_the_state_as_it_was",
    ),
    Mutant(
        "family-u-weight-k-plus-1",
        "src/franel/congruences.py",
        "        u = c * u + k * p_k",
        "        u = c * u + (k + 1) * p_k",
        "tests/test_congruences.py::test_family_sum_matches_reference",
    ),
    Mutant(
        "family-v-weight-2",
        "src/franel/congruences.py",
        "        v = c * v + p_k",
        "        v = c * v + 2 * p_k",
        "tests/test_congruences.py::test_inverse_walk_steps_central_binomial_times_franel",
    ),
    Mutant(
        "family-p-step-coefficient",
        "src/franel/congruences.py",
        "(7 * k * k + 7 * k + 2) * p_k",
        "(7 * k * k + 7 * k + 1) * p_k",
        "tests/test_congruences.py::test_inverse_walk_steps_central_binomial_times_franel",
    ),
    # the inverse sums of the prime axis
    Mutant(
        "inverse-sum-weight-3k-plus-2",
        "src/franel/congruences.py",
        "    return (3 * u + v) * inv % m, v * inv % m",
        "    return (3 * u + 2 * v) * inv % m, v * inv % m",
        "tests/test_congruences.py::test_inverse_weighted_sum_matches_bigint",
    ),
    Mutant(
        "inverse-sums-admit-composite-p",
        "src/franel/congruences.py",
        "    if p % 2 == 0 or not is_prime(p):",
        "    if p % 2 == 0:",
        "tests/test_congruences.py::test_inverse_weighted_sum_rejects_non_odd_prime",
    ),
    # the third conjecture's packed grid
    # (digits take whole bytes, so a width one bit short of the bound
    # rounds up to the same bytes at most n; one byte short never does)
    Mutant(
        "packed-grid-width-one-byte-short",
        "src/franel/conjectures.py",
        "    nbytes = max(1, ((n * (m2 - 1) ** 3).bit_length() + 7) // 8)",
        "    nbytes = max(1, ((n * (m2 - 1) ** 3).bit_length() + 7) // 8 - 1)",
        "tests/test_conjectures.py::TestThirdConjectureKernel::test_digits_at_their_bound",
    ),
    # -1 reads the column of 3 and -3 that of 1; -2 still reads its own
    Mutant(
        "negative-multiplier-reads-wrong-column",
        "src/franel/conjectures.py",
        "                base4 = 4 * base4 + abs(a)",
        "                base4 = 4 * base4 + a % 4",
        "tests/test_conjectures.py::TestThirdConjectureKernel::test_each_multiplier_reads_its_own_column",
    ),
    Mutant(
        "prefix-extension-sign-dropped",
        "src/franel/conjectures.py",
        "[c if k % 2 == 0 else -c % m2 for k, c in enumerate(col)]",
        "[c for k, c in enumerate(col)]",
        "tests/test_conjectures.py::TestThirdConjecture::test_small_sweep",
    ),
    # the two weights, each written once for the grid and the zw sums
    Mutant(
        "linear-weight",
        "src/franel/conjectures.py",
        '    "linear": lambda k: 3 * k + 2,',
        '    "linear": lambda k: 3 * k + 1,',
        "tests/test_conjectures.py::TestThirdConjecture::test_grid_matches_single_checks",
    ),
    Mutant(
        "quadratic-weight",
        "src/franel/conjectures.py",
        '    "quadratic": lambda k: 9 * k * k + 5 * k,',
        '    "quadratic": lambda k: 9 * k * k + 4 * k,',
        "tests/test_conjectures.py::TestZwSun::test_examples",
    ),
    # the cache format, and its writer's cleanup of a failed write
    Mutant(
        "cache-temp-file-kept",
        "src/franel/cache.py",
        "            os.unlink(tmp)",
        "            pass",
        "tests/test_cache_cli.py::TestCache::test_failed_rename_removes_the_temp_file",
    ),
    Mutant(
        "cache-splits-any-line-break",
        "src/franel/cache.py",
        'fh.read().split("\\n")',
        "fh.read().splitlines()",
        "tests/test_cache_cli.py::TestCache",
    ),
    Mutant(
        "cache-record-decimal-check-dropped",
        "src/franel/cache.py",
        "            if not all(_DECIMAL.fullmatch(part) for part in parts):",
        "            if False:",
        "tests/test_cache_cli.py::TestCacheCommand::test_non_decimal_cache_exits_1",
    ),
    # the serialized record
    Mutant(
        "json-reason-not-escaped",
        "src/franel/reports.py",
        """        line += f'"skipped_reason": {_quote(r.skipped_reason)}, '""",
        """        line += f'"skipped_reason": "{r.skipped_reason}", '""",
        "tests/test_reports.py",
    ),
    Mutant(
        "digit-limit-retry-dropped",
        "src/franel/reports.py",
        "        except ValueError:\n            with long_decimals():",
        "        except TypeError:\n            with long_decimals():",
        "tests/test_reports.py::test_serializes_past_int_str_limit",
    ),
    Mutant(
        "json-params-unsorted",
        "src/franel/reports.py",
        "    for k in sorted(params):",
        "    for k in params:",
        "tests/test_reports.py",
    ),
    # statement arithmetic: a weight, a sign, a branch or a modulus
    Mutant(
        "product-note-sign",
        "src/franel/conjectures.py",
        "            rhs=(-1) ** k % m,",
        "            rhs=1,",
        "tests/test_conjectures.py::TestProductNote::test_examples",
    ),
    Mutant(
        "conjecture2-1mod12-y-sign",
        "src/franel/conjectures.py",
        "(4 * x * x - 2 * p)",
        "(4 * x * x + 2 * p)",
        "tests/test_conjectures.py::TestConjecture2::test_case_1_mod_12",
    ),
    Mutant(
        "multinomial-branch-swapped",
        "src/franel/congruences.py",
        "        scale = p if k < half else 2 * p",
        "        scale = 2 * p if k < half else p",
        "tests/test_congruences.py::TestAuxiliary::test_multinomial",
    ),
    Mutant(
        "jarvis-verrill-sign",
        "src/franel/congruences.py",
        "pow(-8 % p, n, p)",
        "pow(8 % p, n, p)",
        "tests/test_congruences.py::TestAuxiliary::test_jarvis_verrill",
    ),
    Mutant(
        "final-reflect-sign",
        "src/franel/congruences.py",
        "                rhs=(-1) ** j * c3[j] % p,",
        "                rhs=c3[j] % p,",
        "tests/test_congruences.py::TestAuxiliary::test_final_reflect",
    ),
    Mutant(
        "theorem1-weight-3k-plus-2",
        "src/franel/congruences.py",
        "family_sum(3, 1, -16, n)",
        "family_sum(3, 2, -16, n)",
        "tests/test_congruences.py::TestTheorem1::test_examples",
    ),
    Mutant(
        "theorem2-sign",
        "src/franel/congruences.py",
        "    rhs = p * (-1) ** ((p - 1) // 2) % m",
        "    rhs = p * (-1) ** ((p + 1) // 2) % m",
        "tests/test_congruences.py::TestTheorem2::test_p5",
    ),
    Mutant(
        "theorem3-not-reduced-mod-p",
        "src/franel/congruences.py",
        "    lhs = inverse_weighted_sum_mod(p)[1] % p",
        "    lhs = inverse_weighted_sum_mod(p)[1]",
        "tests/test_congruences.py::TestTheorem3::test_examples",
    ),
    Mutant(
        "family-modulus-without-n",
        "src/franel/conjectures.py",
        "    modulus = n * central_binomial(n)",
        "    modulus = central_binomial(n)",
        "tests/test_conjectures.py::TestFamilies::test_examples",
    ),
    Mutant(
        "morley-sign",
        "src/franel/congruences.py",
        "            rhs=(-1) ** ((p - 1) // 2) * pow(4, p - 1, m) % m,",
        "            rhs=(-1) ** ((p + 1) // 2) * pow(4, p - 1, m) % m,",
        "tests/test_congruences.py::TestAuxiliary::test_morley",
    ),
    Mutant(
        "half-binom-sign",
        "src/franel/congruences.py",
        "            rhs=-pow(16, p - 1, m) % m,",
        "            rhs=pow(16, p - 1, m) % m,",
        "tests/test_congruences.py::TestAuxiliary::test_half_binom",
    ),
    Mutant(
        "central-pmod-inverse-of-2",
        "src/franel/congruences.py",
        "    inv4 = mod_inverse(4, p)",
        "    inv4 = mod_inverse(2, p)",
        "tests/test_congruences.py::TestAuxiliary::test_central_pmod",
    ),
    Mutant(
        "fermat-square-power-of-8-inverted",
        "src/franel/congruences.py",
        "pow(8, 1 - p, m)",
        "pow(8, p - 1, m)",
        # test_fermat_square's one prime, p = 3, cannot see this edit: with
        # 2^(p-1) = 1 + pt, it adds 6pt, which vanishes mod 9
        "tests/test_congruences.py::TestAuxiliary::test_all_ids_small_sweep",
    ),
    Mutant(
        "conjecture1-sign",
        "src/franel/conjectures.py",
        "    rhs = p * (-1) ** ((p - 1) // 2) % m",
        "    rhs = p * (-1) ** ((p + 1) // 2) % m",
        "tests/test_conjectures.py::TestConjecture1::test_examples",
    ),
    # the inner loops of a cell: every point, every k
    Mutant(
        "macmahon-point-dropped",
        "src/franel/identities.py",
        "MACMAHON_POINTS = (-3, -2, -1, 0, 1, 2, 3)",
        "MACMAHON_POINTS = (-3, -2, -1, 0, 1, 2)",
        "tests/test_identities.py::test_macmahon_and_partial_fraction_wrappers",
    ),
    Mutant(
        "induction-last-k-dropped",
        "src/franel/identities.py",
        "    for k in range(n + 1):\n        lhs = 8 * (2 * k + 1)",
        "    for k in range(n):\n        lhs = 8 * (2 * k + 1)",
        "tests/test_identities.py::TestInduction::test_one_record_per_k",
    ),
    Mutant(
        "summation-lemma-last-k-dropped",
        "src/franel/identities.py",
        "    for k in range(n + 1):\n        # t_m",
        "    for k in range(n):\n        # t_m",
        "tests/test_identities.py::TestSummationLemma::test_one_record_per_k",
    ),
    Mutant(
        "babbage-modulus-p",
        "src/franel/congruences.py",
        '    require_prime_above(p, 2, "babbage requires an odd prime")\n    m = p * p',
        '    require_prime_above(p, 2, "babbage requires an odd prime")\n    m = p',
        "tests/test_congruences.py::TestAuxiliary::test_babbage_mod_p_squared",
    ),
    # the reduction chain: one edit per record name, except the vacuous
    # chain_newsum2_line1 (see the docstring)
    Mutant(
        "chain-newsum-pp-sign",
        "src/franel/congruences.py",
        '            rhs=-p * exact_div(cb[p], 2, "C(2p,p)/2", "p", p) * inner,',
        '            rhs=p * exact_div(cb[p], 2, "C(2p,p)/2", "p", p) * inner,',
        "tests/test_congruences.py::TestReductionChain::test_full_chain_small_primes",
    ),
    Mutant(
        "chain-newsum2-line2-sign",
        "src/franel/congruences.py",
        "        acc2 += term * p",
        "        acc2 -= term * p",
        "tests/test_congruences.py::TestReductionChain::test_full_chain_small_primes",
    ),
    Mutant(
        "chain-newsum3-row-sign-dropped",
        "src/franel/congruences.py",
        "        acc3 += row[k] % m2 * p * inv_odd",
        "        acc3 += abs(row[k]) % m2 * p * inv_odd",
        "tests/test_congruences.py::TestReductionChain::test_full_chain_small_primes",
    ),
    Mutant(
        "chain-final3-sign",
        "src/franel/congruences.py",
        "            rhs=sum(terms) % p,",
        "            rhs=-sum(terms) % p,",
        "tests/test_congruences.py::TestReductionChain::test_final3_p13_nonzero_common_residue",
    ),
    Mutant(
        "chain-central-vanish-index",
        "src/franel/congruences.py",
        "                lhs=cb[k] % p,",
        "                lhs=cb[k - 1] % p,",
        "tests/test_congruences.py::TestReductionChain::test_central_vanish_p5",
    ),
    Mutant(
        "chain-final3-pair-sign",
        "src/franel/congruences.py",
        "                    lhs=terms[k] + terms[half - k],",
        "                    lhs=terms[k] - terms[half - k],",
        "tests/test_congruences.py::TestReductionChain::test_pair_cancellation_is_exact",
    ),
    # the identity suite: each statement's own arithmetic or its route
    Mutant(
        "strehl-last-term-dropped",
        "src/franel/combinatorics.py",
        "    for k in range(start, n + 1):",
        "    for k in range(start, n):",
        "tests/test_identities.py::TestRouteCheck::test_examples[strehl]",
    ),
    Mutant(
        "sun-expansion-step-sign",
        "src/franel/combinatorics.py",
        "            -term * (n + 2 * k + 1) * (n + 2 * k + 2) * (n - k),\n",
        "            term * (n + 2 * k + 1) * (n + 2 * k + 2) * (n - k),\n",
        "tests/test_identities.py::TestRouteCheck::test_examples[sun_expansion]",
    ),
    Mutant(
        "recurrence-step-values-swapped",
        "src/franel/identities.py",
        "        rhs=recurrence_rhs(n, franel_direct(n - 1), franel_direct(n)),",
        "        rhs=recurrence_rhs(n, franel_direct(n), franel_direct(n - 1)),",
        "tests/test_identities.py::TestRecurrence::test_examples",
    ),
    Mutant(
        "integrality-part-a-weight",
        "src/franel/identities.py",
        "        alt = c3k - 2 * c3k_1",
        "        alt = c3k - c3k_1",
        "tests/test_identities.py::TestIntegrality::test_examples",
    ),
    Mutant(
        "integrality-part-b-named-a",
        "src/franel/identities.py",
        '''params={"n": n, "k": k, "part": "b"},''',
        '''params={"n": n, "k": k, "part": "a"},''',
        "tests/test_identities.py::TestIntegrality::test_failure_records",
    ),
    Mutant(
        "partial-fraction-power-of-2",
        "src/franel/combinatorics.py",
        "    return lhs, math.factorial(n) << (n + 1), odd",
        "    return lhs, math.factorial(n) << n, odd",
        "tests/test_identities.py::test_macmahon_and_partial_fraction_wrappers",
    ),
    # the reference route sums half the row: its middle term at even n
    Mutant(
        "franel-direct-even-middle-dropped",
        "src/franel/combinatorics.py",
        "        total += math.comb(n, n // 2) ** 3",
        "        total += 0",
        "tests/test_combinatorics.py::TestFranel::test_direct_route_against_full_row",
    ),
    # the shared tables: the index at which grown resumes a table, its
    # guard against a negative index (which a slice would read), the
    # C(3k,k) step ratio (doubled, so every step stays exact), and the
    # C(3k,k) reader, which must grow the shared table rather than a fresh
    # one from k = 0 on every call
    Mutant(
        "grown-resumes-one-index-early",
        "src/franel/combinatorics.py",
        "    for k in range(len(col), n + 1):",
        "    for k in range(len(col) - 1, n + 1):",
        "tests/test_term_ratio.py::test_shared_columns",
    ),
    Mutant(
        "grown-index-guard-dropped",
        "src/franel/combinatorics.py",
        "    if n < 0:\n        raise ValueError(f\"table index",
        "    if False:\n        raise ValueError(f\"table index",
        "tests/test_term_ratio.py::test_negative_index_raises[-3-central_binomials_upto]",
    ),
    Mutant(
        "triple-column-step-doubled",
        "src/franel/combinatorics.py",
        "        c[k - 1] * 3 * (3 * k - 2) * (3 * k - 1), 2 * k * (2 * k - 1),",
        "        c[k - 1] * 6 * (3 * k - 2) * (3 * k - 1), 2 * k * (2 * k - 1),",
        "tests/test_term_ratio.py::test_shared_columns",
    ),
    Mutant(
        "triple-column-resumes-at-zero",
        "src/franel/combinatorics.py",
        "    return grown(_TRIPLE_CACHE, k_max, _triple_step)",
        "    return grown([1], k_max, _triple_step)",
        "tests/test_term_ratio.py::test_shared_columns",
    ),
    # a route compared with the reference itself can never fail
    Mutant(
        "route-agreement-recurrence-is-reference",
        "src/franel/identities.py",
        '            ("recurrence", franel(n)),',
        '            ("recurrence", ref),',
        "tests/test_identities.py::test_route_agreement_reads_each_route",
    ),
    # request checks, each a contract bug mended once, each caught by a
    # fixed request, since the random requests of tests/test_requests.py
    # do not draw every kind of bad request in every run
    Mutant(
        "statement-with-no-cell-runs",
        "src/franel/harness.py",
        "        if not cells:\n            raise UsageError(",
        "        if False:\n            raise UsageError(",
        "tests/test_cache_cli.py::TestSweepCommand::test_range_with_no_cell_is_usage_error",
    ),
    Mutant(
        "pool-not-capped-at-cpus",
        "src/franel/harness.py",
        "    procs = min(workers, cpus)",
        "    procs = workers",
        "tests/test_cache_cli.py::TestSweepCommand::test_pool_asks_for_no_more_workers_than_cpus",
    ),
    Mutant(
        "repeated-statement-id-runs",
        "src/franel/harness.py",
        "        if ids.count(sid) > 1:",
        "        if False:",
        "tests/test_cache_cli.py::TestVerifyCommand::test_repeated_statement_exits_2",
    ),
    # the compute command prints the range it is given
    Mutant(
        "compute-prints-from-zero",
        "src/franel/cli.py",
        "    for n in range(lo, hi + 1):",
        "    for n in range(hi + 1):",
        "tests/test_cache_cli.py::TestComputeCommand::test_examples",
    ),
    # the pool's parent: it holds no result once written, and runs no job
    # after a failed write
    Mutant(
        "pool-results-held-before-writing",
        "src/franel/harness.py",
        "            absorb(pool.map(_run_job, *job_args))",
        "            absorb(list(pool.map(_run_job, *job_args)))",
        "tests/test_cache_cli.py::TestSweepCommand::test_pool_keeps_no_absorbed_result",
    ),
    # a pool process that dies leaves error records, not a traceback
    Mutant(
        "broken-pool-error-records-dropped",
        "src/franel/harness.py",
        "            absorb(\n                _job_result([registry.error_report(",
        "            list(\n                _job_result([registry.error_report(",
        "tests/test_cache_cli.py::TestSweepCommand::"
        "test_dead_worker_gives_unwritten_cells_error_records",
    ),
    Mutant(
        "pool-cancel-futures-dropped",
        "src/franel/harness.py",
        "            pool.shutdown(cancel_futures=True)",
        "            pool.shutdown()",
        "tests/test_cache_cli.py::TestSweepCommand::"
        "test_failed_write_cancels_the_jobs_not_started",
    ),
    # --help into a closed pipe, and a stdout closed at startup
    Mutant(
        "help-not-flushed-in-try",
        "src/franel/cli.py",
        "                sys.stdout.flush()",
        "                pass",
        "tests/test_cache_cli.py::TestClosedStdout::test_help_into_closed_pipe",
    ),
    Mutant(
        "flush-of-closed-stdout",
        "src/franel/cli.py",
        "            if sys.stdout is not None:",
        "            if True:",
        "tests/test_cache_cli.py::TestClosedStdout::test_help_with_stdout_closed_at_start"
        "[buffered-compute]",
    ),
    Mutant(
        "help-write-error-dropped",
        "src/franel/cli.py",
        "        if file is not None:\n            file.write(self.format_help())",
        "        if file is not None:\n            super().print_help(file)",
        "tests/test_cache_cli.py::TestClosedStdout::test_help_into_closed_pipe",
    ),
)
