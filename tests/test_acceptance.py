"""Acceptance suite: every bundled reference value, checked exactly.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
All comparisons are exact; there are no tolerances anywhere.

Criterion 5b checks that each six-step period of the symmetric powers adds
one copy of the regular representation, (+1, +1, +2); the earlier (+1, +1, +1)
reading contradicts the dimension count 6 = 1 + 1 + 2 * 2.
"""

import random

from conftest import element_matrix, shifted

from gorenstein_kit import linalg
from gorenstein_kit.cli import main as cli_main
from gorenstein_kit.dataset import TABLE_ROWS
from gorenstein_kit.duality import Splitting, duality_report, ring_duality_report
from gorenstein_kit.descent import descent_report
from gorenstein_kit.graded_ring import (
    GradedModuleSeries,
    RingPresentation,
    brute_force_hilbert,
    gorenstein_shift_formula,
    gorenstein_shift_stanley,
    hilbert_series,
    krull_dimension,
)
from gorenstein_kit.invariants import (
    class_representatives,
    decompose,
    invariant_basis,
    molien_series,
    sym_power_character,
    verify_solomon,
)


def _report(cid: str, ok: bool) -> None:
    print(f"acceptance {cid}: {'PASS' if ok else 'FAIL'}")


def _fmt(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def test_criterion_1_table_reproduction(capsys):
    expected_column = [-6, -10, -10, -14, 2, -10, -22, 2, 2, -22, 2, 2]
    computed = [gorenstein_shift_formula(row.presentation()) for row in TABLE_ROWS]
    with capsys.disabled():
        _report("1 (table reproduction)", computed == expected_column)
    assert computed == expected_column
    assert cli_main(["table", "--json"]) == 0


def test_criterion_2_worked_shift_identities(all_ring_fixtures, capsys):
    cases = {
        "taf_d6": 48 - (8 + 12 + 24) - 2,
        "taf_d6_al_alpha": 48 - (8 + 24 + 24) - 2,
        "taf_d6_al_beta": -(8 + 12) - 2,
        "taf_d6_al_alphabeta": 88 - (16 + 24 + 44) - 2,
    }
    expected = {"taf_d6": 2, "taf_d6_al_alpha": -10, "taf_d6_al_beta": -22, "taf_d6_al_alphabeta": 2}
    ok = True
    for name, identity_value in cases.items():
        a = gorenstein_shift_formula(all_ring_fixtures[name])
        ok = ok and a == identity_value == expected[name]
    with capsys.disabled():
        _report("2 (worked shift identities)", ok)
    for name, identity_value in cases.items():
        assert gorenstein_shift_formula(all_ring_fixtures[name]) == identity_value == expected[name]


def test_criterion_3_negation_descent_chain(ku, c2_group, capsys):
    base = ring_duality_report(ku)
    chain = descent_report(ku, c2_group)
    ok = (
        base.shift_a == -3
        and chain.solomon.supplement == -2
        and chain.invariant.shift_a == -5
        and base.anderson_selfdual_display == -2
        and chain.invariant.anderson_selfdual_display == -4
    )
    with capsys.disabled():
        _report("3 (order-two descent chain)", ok)
    assert base.shift_a == -3
    assert chain.solomon.supplement == -2
    assert chain.invariant.shift_a == -5
    assert base.anderson_selfdual_display == -2
    assert chain.invariant.anderson_selfdual_display == -4


def test_criterion_4_standard_action_chain(tmf2, sigma3_group, capsys):
    report = molien_series(sigma3_group)
    string = [int(c) for c in report.series.expand(0, 68)][::4]
    expected_string = [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3, 3, 3]
    chain = descent_report(tmf2, sigma3_group)
    ok = (
        string == expected_string
        and report.polynomial_degrees == (8, 12)
        and chain.solomon.supplement == -12
        and chain.invariant.shift_a == -22
        and chain.invariant.anderson_selfdual_display == -21
    )
    with capsys.disabled():
        _report("4 (order-six descent chain)", ok)
    assert string == expected_string
    assert report.polynomial_degrees == (8, 12)
    assert chain.solomon.supplement == -12
    assert chain.invariant.shift_a == -22
    assert chain.invariant.anderson_selfdual_display == -21


def test_criterion_5a_symmetric_power_decompositions(sigma3_group, sigma3_table, capsys):
    expected = [(1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 0, 2), (1, 1, 2)]
    got = [decompose(sym_power_character(sigma3_group, n), sigma3_table) for n in range(6)]
    with capsys.disabled():
        _report("5a (symmetric powers 0..5)", got == expected)
    assert got == expected


def test_criterion_5b_period_six_increment_as_stated(sigma3_group, sigma3_table, capsys):
    # A period adds dim Sym^{n+6} - dim Sym^n = 6 dimensions.  chi_{Sym^n} has
    # period 2 on transpositions (eigenvalues 1, -1) and period 3 on 3-cycles
    # (w, w^2), so the step's character is (|G|, 0, 0): the regular
    # representation, which holds each irreducible chi_i(1) times.
    order = sigma3_group.order
    one = linalg.identity(sigma3_group.dimension)
    reps = class_representatives(sigma3_group)
    identity_class = next(k for k, rep in enumerate(reps) if element_matrix(sigma3_group, rep) == one)
    regular = tuple(order if k == identity_class else 0 for k in range(len(reps)))
    degrees = tuple(chi[identity_class] for _, chi in sigma3_table.irreducibles)
    witness = None
    for n in range(19):
        low_chi = sym_power_character(sigma3_group, n)
        high_chi = sym_power_character(sigma3_group, n + 6)
        step = tuple(h - l for h, l in zip(high_chi, low_chi))
        low = decompose(low_chi, sigma3_table)
        high = decompose(high_chi, sigma3_table)
        increment = tuple(h - l for h, l in zip(high, low))
        if step != regular:
            failed = f"character step {_fmt(step)}, regular character {_fmt(regular)}"
        elif increment != degrees:
            failed = f"increment {_fmt(increment)}, degrees {_fmt(degrees)}"
        elif sum(i * d for i, d in zip(increment, degrees)) != order:
            failed = f"increment {_fmt(increment)} does not add up to |G| = {order}"
        else:
            continue
        witness = f"n = {n}: Sym^{n} = {_fmt(low)}, Sym^{n + 6} = {_fmt(high)}; {failed}"
        break
    with capsys.disabled():
        _report("5b (period-six increment, as stated)", witness is None)
    assert witness is None, witness


def test_criterion_6_solomon_verification(c2_group, sigma3_group, capsys):
    results = [verify_solomon(c2_group), verify_solomon(sigma3_group)]
    ok = all(r.verified for r in results)
    for r in results:
        ok = ok and r.det_twisted_series == shifted(r.invariant_series, -r.supplement)
    with capsys.disabled():
        _report("6 (determinant-twist identity)", ok)
    for r in results:
        assert r.verified
        assert r.det_twisted_series == shifted(r.invariant_series, -r.supplement)


def test_criterion_7_cech_splitting(taf_d6, capsys):
    report = ring_duality_report(taf_d6)
    series = hilbert_series(taf_d6)
    expected_ring = GradedModuleSeries(series, shift=0, dualized=False)
    expected_dual = GradedModuleSeries(series, shift=3, dualized=True)
    ok = (
        report.splitting is Splitting.PARITY_DISJOINT
        and report.cech_ring_part.expand(-100, 100) == expected_ring.expand(-100, 100)
        and report.cech_dual_part.expand(-100, 100) == expected_dual.expand(-100, 100)
    )
    with capsys.disabled():
        _report("7 (localized-ring splitting)", ok)
    assert report.splitting is Splitting.PARITY_DISJOINT
    assert report.cech_ring_part.expand(-100, 100) == expected_ring.expand(-100, 100)
    assert report.cech_dual_part.expand(-100, 100) == expected_dual.expand(-100, 100)


def _random_presentations(count: int):
    rng = random.Random(20260810)
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        gen_degrees = [rng.randint(1, 60) for _ in range(n)]
        n_rel = rng.randint(0, min(2, n))
        top = max(gen_degrees)
        rel_degrees = [rng.randint(top + 1, top + 60) for _ in range(n_rel)]
        out.append(
            RingPresentation(
                name="random",
                coefficient_label="Q",
                generators=tuple((f"g{i}", d) for i, d in enumerate(gen_degrees)),
                relations=tuple((f"r{i}", d) for i, d in enumerate(rel_degrees)),
                regular_sequence_asserted=False,
            )
        )
    return out

def test_criterion_8i_shift_routes_agree_on_random_rings(capsys):
    presentations = _random_presentations(100)
    ok = all(
        gorenstein_shift_stanley(hilbert_series(p), krull_dimension(p))
        == gorenstein_shift_formula(p)
        for p in presentations
    )
    with capsys.disabled():
        _report("8i (functional equation vs formula, 100 random rings)", ok)
    for p in presentations:
        assert gorenstein_shift_stanley(
            hilbert_series(p), krull_dimension(p)
        ) == gorenstein_shift_formula(p)


def test_criterion_8ii_molien_matches_averaging_operator(all_group_fixtures, capsys):
    ok = True
    for group in all_group_fixtures.values():
        series = molien_series(group).series
        for degree in range(0, 49):
            if len(invariant_basis(group, degree)) != series.coefficient(degree):
                ok = False
    with capsys.disabled():
        _report("8ii (Molien vs averaging operator through degree 48)", ok)
    for name, group in all_group_fixtures.items():
        series = molien_series(group).series
        for degree in range(0, 49):
            assert len(invariant_basis(group, degree)) == series.coefficient(degree), (
                name,
                degree,
            )


def test_criterion_8iii_torsion_vanishing_range(all_ring_fixtures, capsys):
    applicable = {
        name: p
        for name, p in all_ring_fixtures.items()
        if gorenstein_shift_formula(p) <= -2
    }
    assert applicable  # the dataset does contain negative-shift rings
    ok = True
    for p in applicable.values():
        a = gorenstein_shift_formula(p)
        gamma = duality_report(hilbert_series(p), krull_dimension(p), p.name).gamma_series
        ok = ok and all(c == 0 for c in gamma.expand(a + 1, a + 200))
    with capsys.disabled():
        _report("8iii (torsion vanishing above the shift)", ok)
    for name, p in applicable.items():
        a = gorenstein_shift_formula(p)
        gamma = duality_report(hilbert_series(p), krull_dimension(p), p.name).gamma_series
        assert all(c == 0 for c in gamma.expand(a + 1, a + 200)), name


def test_criterion_8iv_dual_involution_and_brute_force(all_ring_fixtures, capsys):
    ok = True
    for p in all_ring_fixtures.values():
        series = hilbert_series(p)
        module = GradedModuleSeries(series, shift=3, dualized=False)
        ok = ok and module.dual().dual() == module
        ok = ok and series.expand(0, 80) == brute_force_hilbert(p, 80)
    with capsys.disabled():
        _report("8iv (dual involution, expansion vs enumeration)", ok)
    for name, p in all_ring_fixtures.items():
        series = hilbert_series(p)
        module = GradedModuleSeries(series, shift=3, dualized=False)
        assert module.dual().dual() == module, name
        assert series.expand(0, 80) == brute_force_hilbert(p, 80), name
