import random
import time
from collections import Counter
from itertools import combinations_with_replacement, islice
from math import comb

import gwcount_reference
import pytest
from gwcount_reference import RelativeProblem, quadric_component_geometry, virdim_relative

from twoquadrics import cli, gwcount
from twoquadrics.gwcount import (
    REASON_L_BOUND,
    REASON_UNSTABLE,
    REASON_ZERO_INSERTION,
    DegenerationTerm,
    _partitions,
    census_classes,
    degree_budget,
    delta_sum_counts,
    enumerate_terms,
    l_bound,
    live_insertions,
    main_correlator_report,
    partition_counts,
    screen_results,
    screens_agree,
    vanishing_check,
)


def test_virdim_examples():
    g4 = quadric_component_geometry(4)
    assert virdim_relative(RelativeProblem(0, 1, 1, (1,)), g4) == 5
    assert virdim_relative(RelativeProblem(1, 0, 0, ()), g4) == 2
    g6 = quadric_component_geometry(6)
    assert virdim_relative(RelativeProblem(1, 2, 2, (1, 1)), g6) == 16
    # independent re-derivation: m - 3 + (m-1)*beta + n + l
    m, beta, n, l = 6, 2, 1, 2
    assert m - 3 + (m - 1) * beta + n + l == 16


def test_virdim_linear_in_each_argument():
    rng = random.Random(2)
    for _ in range(50):
        m = rng.choice((4, 6, 8))
        geom = quadric_component_geometry(m)
        beta = rng.randint(1, 4)
        n, l = rng.randint(0, 4), rng.randint(1, beta)
        mu = tuple([beta - l + 1] + [1] * (l - 1))
        base = virdim_relative(RelativeProblem(n, l, beta, mu), geom)
        # one more interior marking adds exactly one
        assert virdim_relative(RelativeProblem(n + 1, l, beta, mu), geom) == base + 1
        # one more divisor marking (with a unit multiplicity carved off)
        if mu[0] > 1:
            split = (mu[0] - 1,) + mu[1:] + (1,)
            assert (
                virdim_relative(RelativeProblem(n, l + 1, beta, split), geom)
                == base + 1
            )
        # one more unit of curve class on a single marking adds m-1
        heavier = (mu[0] + 1,) + mu[1:]
        assert (
            virdim_relative(RelativeProblem(n, l, beta + 1, heavier), geom)
            == base + (m - 1)
        )


def test_relative_problem_validation():
    with pytest.raises(ValueError):
        RelativeProblem(0, 1, 2, (1,))  # multiplicities must sum to beta
    with pytest.raises(ValueError):
        RelativeProblem(0, 2, 2, (2,))  # one multiplicity per marking
    with pytest.raises(ValueError):
        RelativeProblem(0, 1, 0, (0,))  # multiplicities positive


def test_degree_budget():
    assert degree_budget(DegenerationTerm(4, (), 1, 1, (1,), (1,))) == 1
    assert degree_budget(DegenerationTerm(4, (6,), 0, 0, (), ())) == 2
    assert degree_budget(DegenerationTerm(4, (6,), 2, 2, (1, 1), (3, 3))) == 8


def test_partitions_helper():
    assert list(_partitions(0, 0)) == [()]
    assert list(_partitions(3, 0)) == []
    assert list(_partitions(3, 2)) == [(2, 1)]
    assert list(_partitions(5, 3)) == [(3, 1, 1), (2, 2, 1)]
    assert all(sum(p) == 6 and len(p) == 2 for p in _partitions(6, 2))


def test_enumeration_census_dimension_four():
    report = main_correlator_report(4)
    assert report["total_terms"] == 152
    assert report["verdict_census"] == {
        REASON_ZERO_INSERTION: 126,
        REASON_L_BOUND: 24,
        REASON_UNSTABLE: 2,
    }


def test_high_insertion_counts_die_at_enumeration():
    # only e_{m+2} restricts nontrivially, so no subset of two or more
    # classes is ever expanded; the terms come from the sizes 0 and 1
    assert {t.n1 for t in enumerate_terms(4)} == {0, 1}
    high = sum(1 for s in gwcount_reference.all_subsets(4) if len(s) >= 2)
    dead = main_correlator_report(4)["verdict_census"][REASON_ZERO_INSERTION]
    assert high == 120 and dead >= high


def test_wrong_single_insertion_dies():
    assert 1 not in live_insertions(4)
    assert not any(1 in t.x1_insertions for t in enumerate_terms(4))
    assert gwcount_reference.dead_classes((1,), 4) == [1]
    census = main_correlator_report(4)["verdict_census"]
    assert census[REASON_ZERO_INSERTION] == sum(
        1 for s in gwcount_reference.all_subsets(4) if gwcount_reference.dead_classes(s, 4)
    )


def test_l_bound_values():
    assert l_bound(0, 4) == -1
    assert l_bound(1, 4) == 0
    assert l_bound(0, 2) == 1
    assert l_bound(2, 4) is None


def test_tangency_bound_kills_positive_l():
    term = DegenerationTerm(4, (), 1, 1, (1,), (3,))
    verdict = vanishing_check(term)
    assert verdict.vanishes and verdict.reason == REASON_L_BOUND
    # the same configuration also fails the exact dimension equation
    passes_bound, dim_ok = screen_results(term)
    assert passes_bound is False and dim_ok is False


def test_stability_is_what_kills_the_marked_degree_zero_term():
    # one interior marking, degree zero: the dimension equation holds at
    # m = 4 (both sides equal 2), so only stability rules it out
    term = DegenerationTerm(4, (6,), 0, 0, (), ())
    passes_bound, dim_ok = screen_results(term)
    assert passes_bound is True and dim_ok is True
    verdict = vanishing_check(term)
    assert verdict.vanishes and verdict.reason == REASON_UNSTABLE


def test_empty_configuration_is_unstable():
    term = DegenerationTerm(4, (), 0, 0, (), ())
    verdict = vanishing_check(term)
    assert verdict.reason == REASON_UNSTABLE
    _, dim_ok = screen_results(term)
    assert dim_ok is False  # virtual dimension 1 against budget 0


def test_dimension_mismatch_reason_reachable():
    term = DegenerationTerm(2, (), 1, 1, (1,), (1,))
    # m=2: bound allows l=1 and the equation balances: survives
    assert not vanishing_check(term).vanishes
    bigger = DegenerationTerm(2, (4,), 0, 0, (), ())
    passes_bound, dim_ok = screen_results(bigger)
    assert passes_bound is True and dim_ok is False


def test_screens_agree_for_main_range():
    for m in (4, 6, 8, 10):
        assert screens_agree(enumerate_terms(m))


def test_main_reports_vanish():
    for m in (4, 6, 8, 10):
        report = main_correlator_report(m)
        assert report["status"] == "vanishes"
        assert report["correlator_value"] == 0
        assert report["surviving_terms"] == []
        assert report["screens_consistent"]
        assert sum(report["verdict_census"].values()) == report["total_terms"]


def test_largest_desk_scale_dimension_vanishes():
    report = main_correlator_report(12)
    assert report["status"] == "vanishes" and not report["surviving_terms"]
    assert report["screens_consistent"]


def test_surface_case_is_inconclusive():
    report = main_correlator_report(2)
    assert report["status"] == "inconclusive"
    assert report["correlator_value"] is None
    survivors = report["surviving_terms"]
    assert len(survivors) == 2
    assert {tuple(s["x1_insertions"]) for s in survivors} == {(), (4,)}
    assert all(s["beta1"] == 1 and s["l"] == 1 for s in survivors)


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        main_correlator_report(5)
    with pytest.raises(ValueError):
        enumerate_terms(3)


def test_insertion_filter_is_load_bearing():
    filtered = list(enumerate_terms(4))
    unfiltered = [
        t
        for s in gwcount_reference.all_subsets(4)
        for t in gwcount_reference.curve_data(4, s)
    ]
    assert len(unfiltered) > len(filtered)
    survivors = [t for t in unfiltered if not vanishing_check(t).vanishes]
    # the dimension and tangency screens alone cannot close the argument:
    # without the restriction filter, balanced terms with several
    # quadric-side insertions survive, and every one of them carries an
    # insertion that restricts to zero
    assert survivors
    assert all(t.n1 >= 2 for t in survivors)
    assert all(any(i != 6 for i in t.x1_insertions) for t in survivors)


def test_report_notes_present():
    report = main_correlator_report(4)
    assert any("half-degrees" in note for note in report["notes"])
    assert any("never evaluated" in note for note in report["notes"])


def test_streamed_report_equals_the_exhaustive_reference():
    for m in (2, 4, 6, 8, 10, 12):
        assert main_correlator_report(m) == gwcount_reference.main_correlator_report(m), m


def test_dead_subset_count_matches_per_subset_restriction():
    for m in (2, 4, 6, 8, 10, 12):
        counted = sum(
            1 for s in gwcount_reference.all_subsets(m) if gwcount_reference.dead_classes(s, m)
        )
        assert 2 ** (m + 3) - 2 ** len(live_insertions(m)) == counted, m
    assert live_insertions(4) == (6,)


def test_enumeration_streams():
    start = time.monotonic()
    terms = enumerate_terms(40)
    assert iter(terms) is terms
    first = list(islice(terms, 10))
    assert time.monotonic() - start < 1.0
    assert len(first) == 10 and first[0].n1 == 0 and first[0].beta1 == 0


def test_closed_form_screen_equals_the_reference_screen():
    for m in (2, 4, 6, 8, 10, 12):
        terms = [
            t for t in gwcount_reference.enumerate_terms(m) if isinstance(t, DegenerationTerm)
        ]
        if m <= 6:
            # every subset expanded, so that n1 >= 2, where no tangency
            # bound applies, is screened too
            terms += [
                t
                for s in gwcount_reference.all_subsets(m)
                if gwcount_reference.dead_classes(s, m)
                for t in gwcount_reference.curve_data(m, s)
            ]
        assert terms
        for t in terms:
            assert screen_results(t) == gwcount_reference.screen_results(t), t


def test_reference_screen_validates_every_term():
    bad = DegenerationTerm(4, (), 2, 1, (1,), (1,))  # multiplicities sum to 1, not 2
    with pytest.raises(ValueError):
        gwcount_reference.screen_results(bad)


def test_counted_report_equals_the_streamed_report():
    for m in range(2, 15, 2):
        assert main_correlator_report(m) == gwcount_reference.streamed_report(m), m


def test_count_tables_match_brute_force():
    for m in range(2, 13, 2):
        table = delta_sum_counts(m)
        assert len(table) == m // 2 + 1
        for l in range(m // 2 + 1):
            sums = Counter(sum(d) for d in combinations_with_replacement(range(1, m), l))
            assert table[l] == [sums[s] for s in range(len(table[l]))], (m, l)
    p = partition_counts(12)
    for l in range(13):
        for beta in range(13):
            assert p[l][beta] == sum(1 for _ in _partitions(beta, l)), (l, beta)


def test_class_representatives_pass_the_reference_screen():
    for m in range(2, 15, 2):
        for count, term in census_classes(m, live_insertions(m)):
            assert count > 0
            assert list(term.delta_degrees) == sorted(term.delta_degrees)
            assert all(1 <= d <= m - 1 for d in term.delta_degrees)
            # the reference screen validates mu against beta1 and l
            assert gwcount_reference.screen_results(term) == screen_results(term), term


def test_class_counts_equal_the_streamed_terms():
    def key(t):
        return t.n1, t.beta1, t.l, sum(t.delta_degrees)

    for m in (2, 4, 6, 8, 10):
        classes = census_classes(m, live_insertions(m))
        counted = {key(t): count for count, t in classes}
        assert len(counted) == len(classes)
        assert counted == Counter(key(t) for t in enumerate_terms(m)), m


def test_census_at_dimension_thirty_is_counted_in_closed_form():
    m = 30
    assert live_insertions(m) == (m + 2,)
    # the two live subsets, {} and {e_{m+2}}, share their curve data: a
    # split beta1 <= m/2, its tangencies as a partition into l parts, and a
    # multiset of l divisor degrees from 1..m-1
    curve_data = sum(
        sum(1 for _ in _partitions(beta1, l)) * comb(m - 2 + l, l)
        for beta1 in range(m // 2 + 1)
        for l in range(beta1 + 1)
    )
    report = main_correlator_report(m)
    assert report["total_terms"] == 2 ** (m + 3) - 2 + 2 * curve_data
    assert sum(report["verdict_census"].values()) == report["total_terms"]
    assert report["status"] == "vanishes" and report["correlator_value"] == 0
    assert report["screens_consistent"] and report["surviving_terms"] == []


def test_count_cross_checks_are_internal_errors(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(gwcount, "comb", lambda n, k: comb(n, k) + 1)
        with pytest.raises(ArithmeticError, match="multisets"):
            main_correlator_report(4)
    monkeypatch.setattr(gwcount, "_expand", lambda m, live, sums: iter(()))
    with pytest.raises(ArithmeticError, match="2 counted"):
        main_correlator_report(2)
    with pytest.raises(ArithmeticError):
        cli.main(["degeneration", "--m", "2"])
