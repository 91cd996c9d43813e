import hashlib
import itertools

import pytest
from answers import moved
from oracles import (
    crystal_completion_search,
    enumerate_srl_unreduced,
    fusion_search_rescan,
    lattices_by_filter,
    poset_from_pairs,
    posets_with_least_point,
    posets_with_top,
)

from srlkit.catalog import (
    CATALOG,
    brouwerian_chain,
    brouwerian_diamond,
    builtin,
    c4,
    crystal,
    heyting_chain,
    sugihara,
)
from srlkit.core import _subalgebra, classify, direct_product, find_isomorphism, validate
from srlkit.documents import export_dot, load, save
from srlkit.duality import depth
from srlkit.enumeration import (
    _automorphisms,
    _fusion_search,
    _grown_posets,
    _iso_invariant,
    _lattice_tables,
    _lattices,
    _subuniverse_key,
    canonical_form,
    canonical_poset_key,
    enumerate_models,
    enumerate_posets,
    is_lattice,
)
from srlkit.errors import (
    BadParams,
    BoundExceeded,
    ParseError,
    UnknownName,
    ValidationError,
    VerificationFailure,
)


SAMPLE_PARAMS = {0: [()], 1: [(2,), (3,), (4,), (5,)]}

# per catalog entry: the class flags it must have and its depth, given its parameters
EXPECTED = {
    "trivial": (
        lambda: {"brouwerian": True, "idempotent": True, "dunn_monoid": True},
        lambda: 0,
    ),
    "brouwerian_chain": (
        lambda n: {"brouwerian": True, "idempotent": True, "distributive": True},
        lambda n: n - 1,
    ),
    "brouwerian_diamond": (
        lambda: {"brouwerian": True, "distributive": True},
        lambda: 1,
    ),
    "c4": (
        lambda: {"de_morgan_monoid": True, "idempotent": False, "integral": False},
        lambda: 1,
    ),
    "crystal": (
        lambda: {"de_morgan_monoid": True, "idempotent": False, "sugihara_monoid": False},
        lambda: 1,
    ),
    "sugihara": (
        lambda n: {"sugihara_monoid": True, "de_morgan_monoid": True, "idempotent": True},
        lambda n: n // 2,
    ),
    "heyting_chain": (
        lambda n: {"heyting": True, "brouwerian": True},
        lambda n: n - 1,
    ),
}


def test_catalog_entries_reproduce_expectations():
    for name, entry in CATALOG.items():
        for params in SAMPLE_PARAMS[entry.arity]:
            if name == "sugihara":
                params = tuple(p if p % 2 else p + 1 for p in params)
            algebra = builtin(name, *params)
            assert validate(algebra).ok, name
            expected_flags, expected_depth = EXPECTED[name]
            flags = classify(algebra).as_dict()
            for key, value in expected_flags(*params).items():
                assert flags[key] == value, (name, params, key)
            assert depth(algebra) == expected_depth(*params), (name, params)


def test_builtin_unknown_and_bad_params():
    with pytest.raises(UnknownName):
        builtin("octahedron")
    with pytest.raises(BadParams):
        builtin("sugihara", 4)
    with pytest.raises(BadParams):
        builtin("brouwerian_chain", 0)
    with pytest.raises(BadParams):
        builtin("c4", 3)


def test_c4_is_simple_and_zero_generated():
    from srlkit.cones import all_subuniverses, subuniverse_closure
    from srlkit.filters import all_deductive_filters

    algebra = c4()
    assert len(all_deductive_filters(algebra)) == 2
    assert all_subuniverses(algebra) == [frozenset(range(4))]
    assert subuniverse_closure(algebra, set()) == frozenset(range(4))


def test_crystal_completion_is_unique_and_frozen():
    completions = crystal_completion_search()
    assert len(completions) == 1
    assert completions[0] == crystal().fusion


def test_crystal_self_negating_labels():
    algebra = crystal()
    assert algebra.neg[2] == 2 and algebra.neg[3] == 3
    assert algebra.fusion[2][2] == 2 and algebra.fusion[3][3] == 3
    assert algebra.fusion[2][3] == 5
    assert algebra.neg[1] == 4  # the negation of the identity


def test_document_round_trip_byte_identical():
    for algebra in (c4(), crystal(), brouwerian_chain(3), sugihara(3)):
        text = save(algebra)
        again = save(load(text))
        assert text == again


def test_document_load_rejects_bad_json():
    with pytest.raises(ParseError):
        load("{not json")
    with pytest.raises(ParseError):
        load("[1, 2]")
    with pytest.raises(ParseError):
        load('{"size": 2}')


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "algebra, path, value, message",
    [
        (brouwerian_chain(2), ("size",), "2", 'size must be an integer, got "2"'),
        (c4(), ("e",), "1", 'e must be an integer, got "1"'),
        (
            c4(), ("tables", "meet", 0, 0), 0.7,
            "tables.meet row 0 column 0 must be an integer, got 0.7",
        ),
        (heyting_chain(2), ("bottom",), False, "bottom must be an integer, got false"),
        (c4(), ("name",), 5, "name must be a string, got 5"),
        (c4(), ("signature",), [1], "signature must be an object, got [1]"),
        (
            c4(), ("signature", "involution"), 1,
            "signature.involution must be a boolean, got 1",
        ),
        (
            heyting_chain(2), ("signature", "bottom"), 1,
            "signature.bottom must be a boolean, got 1",
        ),
    ],
    ids=[
        "size-string", "e-string", "entry-float", "bottom-bool", "name-int",
        "signature-list", "involution-int", "bottom-flag-int",
    ],
)
def test_document_load_rejects_coercible_values(algebra, path, value, message):
    # each value would coerce to the field's own integer; strict loading
    # refuses it and names the field
    import json

    doc = json.loads(save(algebra))
    _set_path(doc, path, value)
    with pytest.raises(ParseError) as exc:
        load(json.dumps(doc))
    assert str(exc.value) == message


def test_document_load_rejects_invalid_algebra():
    import json

    doc = json.loads(save(c4()))
    doc["tables"]["fusion"][1][1] = 2  # break the identity cell
    doc["tables"]["residual"] = doc["tables"]["residual"]
    with pytest.raises(ValidationError) as exc:
        load(json.dumps(doc))
    assert not exc.value.report.ok
    assert any(v.witness is not None for v in exc.value.report.failures())


def test_document_load_non_residuated_without_table():
    import json

    doc = {
        "size": 2,
        "e": 0,
        "tables": {
            "meet": [[0, 0], [0, 1]],
            "join": [[0, 1], [1, 1]],
            "fusion": [[0, 1], [1, 1]],
        },
    }
    with pytest.raises(ValidationError):
        load(json.dumps(doc))


def test_document_load_derives_missing_residual():
    import json

    for algebra in (c4(), crystal(), brouwerian_chain(4), sugihara(5)):
        doc = json.loads(save(algebra))
        del doc["tables"]["residual"]
        again = load(json.dumps(doc))
        assert again.residual == algebra.residual


@pytest.mark.parametrize(
    "algebra, table, cell, value, error, message",
    [
        (brouwerian_diamond, "fusion", (2, 2), -3, ParseError, "fusion table has an out-of-range entry"),
        (c4, "fusion", (1, 2), 7, ParseError, "fusion table has an out-of-range entry"),
        (c4, "join", (0, 3), -1, ParseError, "join table has an out-of-range entry"),
        (c4, "meet", (0, 1), 1, ValidationError, "meet commutative"),
    ],
    ids=["diamond-negative-fusion", "c4-fusion-above", "c4-join-negative", "c4-meet-no-lattice"],
)
def test_document_load_checks_the_tables_it_derives_the_residual_from(
    algebra, table, cell, value, error, message
):
    # the meet, join and fusion tables are checked as validate checks them
    # before the residual is derived: a bad entry is named, and a meet that
    # is no lattice's is reported as the lattice group's failure
    import json

    doc = json.loads(save(algebra()))
    del doc["tables"]["residual"]
    r, c = cell
    doc["tables"][table][r][c] = value
    with pytest.raises(error) as exc:
        load(json.dumps(doc))
    if error is ParseError:
        assert str(exc.value) == message
    else:
        assert [v.law for v in exc.value.report.failures()] == [message]


def test_export_dot_two_chain():
    text = export_dot(brouwerian_chain(2))
    assert text.count("->") == 1
    assert '"0' in text and '"1 (e)"' in text


def test_export_dot_c4_path():
    text = export_dot(c4())
    lines = [l for l in text.splitlines() if "->" in l]
    assert lines == ["  n0 -> n1;", "  n1 -> n2;", "  n2 -> n3;"]


def test_export_dot_crystal_shape():
    text = export_dot(crystal())
    lines = [l for l in text.splitlines() if "->" in l]
    assert len(lines) == 6  # diamond on a stem: 6 cover edges


def test_export_dot_poset():
    text = export_dot(poset_from_pairs(2, [(0, 1)], top=1))
    assert "(m)" in text


def test_poset_counts():
    assert [len(enumerate_posets(n)) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]
    assert len(posets_with_top(6)) == 63


def test_lattice_counts():
    counts = [
        sum(1 for leq in enumerate_posets(n) if is_lattice(leq)) for n in range(1, 7)
    ]
    assert counts == [1, 1, 1, 2, 5, 15]


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() + b"\n")
    return h.hexdigest()


def test_lattices_and_least_point_posets_match_the_filtering_oracles():
    # the same labelled order matrices in the same order as filtering every
    # poset
    for n in range(1, 7):
        assert _lattices(n) == lattices_by_filter(n), n
        assert list(_grown_posets(n, None, True)) == posets_with_least_point(n), n


@pytest.mark.slow
def test_lattices_match_the_filtering_oracle_through_size_8():
    for n in range(1, 9):
        assert _lattices(n) == lattices_by_filter(n), n
    assert [len(_lattices(n)) for n in range(1, 9)] == [1, 1, 1, 2, 5, 15, 53, 222]


def test_capped_posets_match_the_recorded_digest():
    # recorded from the growth that enumerated each grown poset's down-sets
    # to count them
    assert [len(enumerate_posets(n, 10)) for n in range(10)] == [1, 1, 2, 5, 14, 26, 29, 22, 8, 1]
    assert _digest(repr(enumerate_posets(n, 10)) for n in range(10)) == (
        "f9104f2072c6b6a6d6afc2749b3bb8361b5c19906160a1e47437bcf8b472fb67"
    )


def test_enumerated_models_match_the_recorded_bytes():
    # recorded from the enumeration that took its lattices from every poset:
    # the same labelled models in the same order, so `enumerate --dump` and
    # every input drawn from these lists keep their bytes
    runs = (("srl", 5), ("sirl", 5), ("brouwerian", 8))
    models = [m for kind, size in runs for m in enumerate_models(kind, size, bound=size)]
    assert len(models) == 75 + 26 + 36
    assert _digest(save(m) for m in models) == (
        "c33469b84a6b590b6a5f070b8eec4a4a2e27bbbd005670bc4c1cec457f971a1b"
    )


@pytest.mark.slow
def test_srl_models_through_size_7_match_the_recorded_bytes():
    models = enumerate_models("srl", 7, bound=7)
    assert len(models) == 5493
    assert _digest(save(m) for m in models) == (
        "b3be02b1896edb8ce7414c4ff0492e5bae12a5080e15a7924f2a751d6a6ed1a7"
    )


def test_brouwerian_counts_match_goldens(brouwerian6):
    from collections import Counter

    by_size = Counter(a.size for a in brouwerian6)
    assert [by_size[n] for n in range(1, 7)] == [1, 1, 1, 2, 3, 5]


def test_brouwerian_counts_against_bruteforce_small():
    # oracle: scan all partial orders on labelled carriers, keep bounded
    # distributive lattices, count up to isomorphism via canonical forms
    from srlkit.core import FiniteAlgebra, residual_from_fusion
    from srlkit.enumeration import _lattice_tables

    for n, expected in ((1, 1), (2, 1), (3, 1), (4, 2)):
        seen = set()
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for bits in itertools.product((False, True), repeat=len(pairs)):
            rel = [[a == b for b in range(n)] for a in range(n)]
            for (a, b), bit in zip(pairs, bits):
                if bit:
                    rel[a][b] = True
            leq = tuple(tuple(r) for r in rel)
            # partial order?
            ok = all(
                not (leq[a][b] and leq[b][a])
                for a, b in pairs
            ) and all(
                not (leq[a][b] and leq[b][c]) or leq[a][c]
                for a in range(n) for b in range(n) for c in range(n)
            )
            if not ok or not is_lattice(leq):
                continue
            meet, join = _lattice_tables(leq)
            distributive = all(
                meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
                for a in range(n) for b in range(n) for c in range(n)
            )
            if not distributive:
                continue
            top = next(t for t in range(n) if all(leq[a][t] for a in range(n)))
            try:
                residual = residual_from_fusion(n, meet, meet)
            except Exception:
                continue
            algebra = FiniteAlgebra.build(n, meet, join, meet, residual, top)
            if validate(algebra).ok:
                seen.add(canonical_form(algebra))
        assert len(seen) == expected, n


def test_srl_enumeration_against_table_scan():
    # independent oracle: for every small lattice and identity position,
    # scan every symmetric fusion table outright and validate, with no
    # backtracking pruning in the way
    from srlkit.core import FiniteAlgebra, residual_from_fusion
    from srlkit.enumeration import _lattice_tables
    from srlkit.errors import NotResiduated

    for n, expected in ((1, 1), (2, 1), (3, 2)):
        seen = set()
        for leq in enumerate_posets(n):
            if not is_lattice(leq):
                continue
            meet, join = _lattice_tables(leq)
            cells = [(i, j) for i in range(n) for j in range(i, n)]
            for values in itertools.product(range(n), repeat=len(cells)):
                fusion = [[0] * n for _ in range(n)]
                for (i, j), v in zip(cells, values):
                    fusion[i][j] = fusion[j][i] = v
                fusion = tuple(tuple(r) for r in fusion)
                for e in range(n):
                    try:
                        residual = residual_from_fusion(n, meet, fusion)
                    except NotResiduated:
                        continue
                    algebra = FiniteAlgebra.build(n, meet, join, fusion, residual, e)
                    if validate(algebra).ok:
                        seen.add(canonical_form(algebra))
        assert len(seen) == expected, n


def test_fusion_search_matches_the_rescanning_oracle():
    # every (lattice, e) with at most 5 elements, and the crystal lattice
    # with e = 1: the same tables in the same order
    frozen = crystal()
    jobs = [(frozen.meet, frozen.join, 1)]
    for n in range(1, 6):
        for leq in enumerate_posets(n):
            tables = _lattice_tables(leq)
            if tables is not None:
                jobs += [(*tables, e) for e in range(n)]
    total = 0
    for meet, join, e in jobs:
        found = _fusion_search(meet, join, e)
        assert found == fusion_search_rescan(meet, join, e), (meet, e)
        total += len(found)
    assert (len(jobs), total) == (40, 138)


@pytest.mark.parametrize(
    "table, message",
    [
        ("join", r"e = 0 is not residuated: no maximum witness for residual\(1, 0\)"),
        ("meet", r"e = 0 fails identity neutral at \(1,\)"),
    ],
)
def test_srl_enumeration_raises_on_a_table_that_is_no_srl(monkeypatch, table, message):
    # on the 2-chain with e = 0, fusion = join has no residual, and
    # fusion = meet is residuated but 0 is not its identity
    from srlkit import enumeration

    monkeypatch.setattr(
        enumeration, "_fusion_search", lambda meet, join, e: [{"meet": meet, "join": join}[table]]
    )
    with pytest.raises(VerificationFailure, match="on 2 elements with " + message):
        enumeration._enumerate_srl(2)


def test_srl_enumeration_raises_on_an_isomorphic_copy(monkeypatch):
    # the reduction builds one table per isomorphism type, so a search that
    # returns the 2-chain's Brouwerian table twice trips the key check
    from srlkit import enumeration

    chain = ((0, 0), (0, 1))
    monkeypatch.setattr(
        enumeration, "_fusion_search",
        lambda meet, join, e: [chain, chain] if (meet, e) == (chain, 1) else [],
    )
    with pytest.raises(
        VerificationFailure,
        match=r"table \(\(0, 0\), \(0, 1\)\) on 2 elements with e = 1 is isomorphic to the kept",
    ):
        enumeration._enumerate_srl(2)


def test_srl_enumeration_keeps_every_type_a_faulty_search_returns(monkeypatch):
    # a table is skipped only for a lesser image that the same search
    # returned, so a search that loses the least table of an orbit loses no
    # type while another table of the orbit comes back
    from srlkit import enumeration

    search = enumeration._fusion_search

    def faulty(meet, join, e):
        tables = search(meet, join, e)
        n = len(meet)
        cells = [(a, b) for a in range(n) for b in range(n)]
        fixing = [  # (automorphism fixing e, its inverse)
            (p, sorted(range(n), key=p.__getitem__))
            for p in itertools.permutations(range(n))
            if p[e] == e and all(p[meet[a][b]] == meet[p[a]][p[b]] for a, b in cells)
        ]
        for i, f in enumerate(tables):
            if any(tuple(tuple(p[f[a][b]] for b in q) for a in q) != f for p, q in fixing):
                return tables[:i] + tables[i + 1:]
        return tables

    monkeypatch.setattr(enumeration, "_fusion_search", faulty)
    models = enumeration._enumerate_srl(5)
    assert sorted(map(canonical_form, models)) == [
        canonical_form(m) for m in enumerate_srl_unreduced(5)
    ]


def test_srl_enumeration_matches_the_unreduced_oracle(monkeypatch):
    # the same tables in the same order as keying every table of every
    # search, with one canonical form per model
    from srlkit import enumeration

    keyed = []
    monkeypatch.setattr(
        enumeration, "canonical_form", lambda a: keyed.append(a) or canonical_form(a)
    )
    models = enumeration._enumerate_srl(5)
    assert len(keyed) == len(models) == 75
    assert [(m, m.name) for m in models] == [(m, m.name) for m in enumerate_srl_unreduced(5)]


@pytest.mark.parametrize("kind", ["srl", "sirl"])
def test_enumerated_models_pass_the_full_validate(kind):
    # the enumeration runs each group of checks once, at the layer that
    # makes its tables; the full `validate` is the oracle for that split
    for model in enumerate_models(kind, 6):
        assert validate(model).ok, (kind, model.fusion, model.e, model.neg)


@pytest.mark.slow
def test_enumerated_models_through_size_7_pass_the_full_validate():
    for kind in ("srl", "sirl"):
        for model in enumerate_models(kind, 7, bound=7):
            assert validate(model).ok, (kind, model.fusion, model.e, model.neg)


def test_srl_enumeration_raises_on_a_lattice_that_is_no_lattice(monkeypatch):
    # on three elements the join becomes "the third element": idempotent and
    # commutative, but not associative, which the once-per-lattice check
    # names with its first witness
    from srlkit import enumeration

    def tables(leq):
        meet, join = _lattice_tables(leq)
        return meet, ((0, 2, 1), (2, 1, 0), (1, 0, 2)) if len(leq) == 3 else join

    monkeypatch.setattr(enumeration, "_lattice_tables", tables)
    with pytest.raises(
        VerificationFailure, match=r"on 3 elements fails join associative at \(0, 0, 1\)$"
    ):
        enumeration._enumerate_srl(3)


def test_lattices_are_pairwise_non_isomorphic_with_the_scanned_automorphisms():
    # the two premises of the reduction: an isomorphism between SRLs found on
    # different lattices is impossible, and every automorphism is listed
    for n in range(1, 7):
        lattices = _lattices(n)
        assert len({canonical_poset_key(leq) for leq in lattices}) == len(lattices), n
        for leq in lattices:
            scanned = [
                p for p in itertools.permutations(range(n))
                if all(leq[p[a]][p[b]] == leq[a][b] for a in range(n) for b in range(n))
            ]
            assert _automorphisms(*_lattice_tables(leq)) == scanned, leq


def test_sirl_enumeration_against_involution_scan():
    # every involution is determined by where it sends the identity, so the
    # oracle scans all unary tables outright for each size-3 base
    from srlkit.core import FiniteAlgebra, Signature

    bases = [a for a in enumerate_models("srl", 3) if a.size == 3]
    seen = set()
    for base in bases:
        for neg in itertools.product(range(3), repeat=3):
            algebra = FiniteAlgebra(
                size=3, meet=base.meet, join=base.join, fusion=base.fusion,
                residual=base.residual, e=base.e, neg=tuple(neg),
                signature=Signature(True, False),
            )
            if validate(algebra).ok:
                seen.add(canonical_form(algebra))
    assert len(seen) == sum(1 for a in enumerate_models("sirl", 3) if a.size == 3) == 1


def test_document_field_names_are_exact():
    import json

    doc = json.loads(save(crystal()))
    assert set(doc) == {"signature", "size", "e", "tables", "neg", "name"}
    assert set(doc["signature"]) == {"involution", "bottom"}
    assert set(doc["tables"]) == {"meet", "join", "fusion", "residual"}
    from srlkit.catalog import heyting_chain

    doc = json.loads(save(heyting_chain(2)))
    assert set(doc) == {"signature", "size", "e", "tables", "bottom", "name"}


def test_srl_sirl_golden_counts(srl5, sirl5):
    from collections import Counter

    srl_by_size = Counter(a.size for a in srl5)
    assert [srl_by_size[n] for n in range(1, 6)] == [1, 1, 2, 10, 61]
    sirl_by_size = Counter(a.size for a in sirl5)
    assert [sirl_by_size[n] for n in range(1, 6)] == [1, 1, 1, 7, 16]


def test_integral_srls_match_brouwerian_counts(srl5):
    # two independent enumeration routes agree on the integral slice
    from collections import Counter

    integral = Counter(a.size for a in srl5 if classify(a).integral)
    brouwerian = Counter(
        a.size for a in enumerate_models("brouwerian", 5)
    )
    assert integral == brouwerian


def test_enumeration_contains_catalog_entries(srl5, sirl5, brouwerian6):
    assert any(find_isomorphism(a, c4()) is not None for a in sirl5 if a.size == 4)
    assert any(
        find_isomorphism(a, sugihara(3)) is not None for a in sirl5 if a.size == 3
    )
    assert any(
        find_isomorphism(a, brouwerian_chain(5)) is not None
        for a in brouwerian6
        if a.size == 5
    )


def test_enumeration_is_deterministic():
    first = enumerate_models("srl", 4)
    second = enumerate_models("srl", 4)
    assert [a.meet for a in first] == [a.meet for a in second]
    assert [canonical_form(a) for a in first] == sorted(
        canonical_form(a) for a in first
    )


def test_enumeration_bound_guard():
    with pytest.raises(BoundExceeded):
        enumerate_models("brouwerian", 7)
    assert enumerate_models("brouwerian", 7, bound=8)


@pytest.mark.parametrize(
    "max_size, bound, message",
    [
        (-1, None, "max_size must not be negative, got -1"),
        (True, None, "max_size must be an integer, got True"),
        (3.0, None, "max_size must be an integer, got 3.0"),
        ("3", None, "max_size must be an integer, got '3'"),
        (3, -5, "bound must not be negative, got -5"),
        (3, False, "bound must be an integer, got False"),
        (3, 7.0, "bound must be an integer, got 7.0"),
    ],
)
def test_enumerate_models_rejects_bad_sizes(max_size, bound, message):
    with pytest.raises(ValueError) as exc:
        enumerate_models("srl", max_size, bound=bound)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "size, message",
    [
        (-1, "size must not be negative, got -1"),
        (True, "size must be an integer, got True"),
        (2.0, "size must be an integer, got 2.0"),
    ],
)
def test_enumerate_posets_rejects_bad_sizes(size, message):
    with pytest.raises(ValueError) as exc:
        enumerate_posets(size)
    assert str(exc.value) == message
    assert enumerate_posets(0) == ((),)


@pytest.mark.parametrize(
    "cap, message",
    [
        (-1, "down_set_cap must not be negative, got -1"),
        (True, "down_set_cap must be an integer, got True"),
        (2.5, "down_set_cap must be an integer, got 2.5"),
        ("4", "down_set_cap must be an integer, got '4'"),
    ],
)
def test_enumerate_posets_rejects_bad_down_set_caps(cap, message):
    with pytest.raises(ValueError) as exc:
        enumerate_posets(3, cap)
    assert str(exc.value) == message
    chain = ((True, True, True), (False, True, True), (False, False, True))
    assert enumerate_posets(3, 4) == (chain,)
    assert enumerate_posets(3, 0) == ()


@pytest.mark.slow
def test_srl_and_sirl_counts_through_size_7():
    # ROADMAP item 4's cumulative counts at max sizes 5, 6 and 7
    for kind, counts in (("srl", [75, 570, 5493]), ("sirl", [26, 105, 327])):
        assert [len(enumerate_models(kind, m, bound=7)) for m in (5, 6, 7)] == counts


def test_canonical_form_agrees_with_isomorphism_search(suite):
    small = [a for a in suite if a.size <= 5]
    for a in small:
        for b in small:
            if a.signature != b.signature or a.size != b.size:
                continue
            same_key = canonical_form(a) == canonical_form(b)
            isomorphic = find_isomorphism(a, b) is not None
            assert same_key == isomorphic, (a.name, b.name)


def test_subuniverse_key_is_the_built_subalgebras_canonical_form(suite):
    # `canonical_form` of the built subalgebra is the oracle for every
    # subuniverse, whether the invariants inside the carrier already tell
    # its elements apart (a discrete seed colouring) or the search refines
    # them; `test_canonical_form_agrees_with_isomorphism_search` checks
    # `canonical_form` itself against the isomorphism search
    import random

    from oracles import relabel

    from srlkit.catalog import brouwerian_diamond
    from srlkit.cones import all_subuniverses

    rng = random.Random(20261020)
    products = [
        direct_product(c4(), sugihara(3)),
        direct_product(brouwerian_diamond(), brouwerian_chain(3)),
    ]
    discrete = refined = 0
    for algebra in suite + products:
        for generator in (algebra, relabel(algebra, rng)):
            key = _subuniverse_key(generator)
            for mask in all_subuniverses(generator):
                carrier = sorted(mask)
                sub, _ = _subalgebra(generator, carrier)
                assert key(carrier) == canonical_form(sub), (generator.name, carrier)
                seed = {
                    _iso_invariant(
                        sub,
                        a,
                        sum(sub.leq(b, a) for b in sub.elements),
                        sum(sub.leq(a, b) for b in sub.elements),
                        sub.e,
                        sub.neg,
                    )
                    for a in sub.elements
                }
                if len(seed) == sub.size:
                    discrete += 1
                else:
                    refined += 1
    assert discrete and refined


def test_canonical_keys_match_the_recorded_family():
    changed = moved("canonical_keys")
    assert not changed, f"{len(changed)} keys moved, the first at {changed[0]}"


def test_enumerated_models_match_the_recorded_family():
    changed = moved("enumerated_models")
    assert not changed, f"{len(changed)} models moved, the first at {changed[0]}"


def test_canonical_poset_key_is_relabelling_invariant():
    import random

    rng = random.Random(7)
    for leq in enumerate_posets(5):
        n = len(leq)
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = tuple(
            tuple(leq[perm.index(i)][perm.index(j)] for j in range(n))
            for i in range(n)
        )
        assert canonical_poset_key(relabelled) == canonical_poset_key(leq)


def test_canonical_form_on_symmetric_products():
    import random

    from oracles import relabel

    from srlkit.catalog import brouwerian_diamond
    from srlkit.core import direct_product

    diamond, chain3 = brouwerian_diamond(), brouwerian_chain(3)
    diamond2 = direct_product(diamond, diamond)
    key = canonical_form(diamond2)
    for seed in (1, 2, 3):
        assert canonical_form(relabel(diamond2, random.Random(seed))) == key
    assert canonical_form(direct_product(diamond, chain3)) == canonical_form(
        direct_product(chain3, diamond)
    )
    chain4 = brouwerian_chain(4)
    assert canonical_form(direct_product(chain4, chain4)) != key

    rng = random.Random(11)
    antichain = tuple(tuple(a == b for b in range(8)) for a in range(8))
    # four points below each of four others
    two_level = tuple(tuple(a == b or (a < 4 <= b) for b in range(8)) for a in range(8))
    for leq in (antichain, two_level):
        perm = list(range(8))
        rng.shuffle(perm)
        relabelled = tuple(
            tuple(leq[perm.index(i)][perm.index(j)] for j in range(8)) for i in range(8)
        )
        assert canonical_poset_key(relabelled) == canonical_poset_key(leq)
    assert canonical_poset_key(antichain) != canonical_poset_key(two_level)

    def incidence(cycle_lengths):
        # the vertices of disjoint cycles below their edges
        edges, start = [], 0
        for k in cycle_lengths:
            edges += [(start + i, start + (i + 1) % k) for i in range(k)]
            start += k
        n = start + len(edges)
        return tuple(
            tuple(a == b or (b >= start and a in edges[b - start]) for b in range(n))
            for a in range(n)
        )

    # refinement leaves all vertices in one class, across two orbits, so the
    # key must not depend on which vertex is individualised first
    assert canonical_poset_key(incidence((3, 4))) == canonical_poset_key(incidence((4, 3)))


def test_sirl_enumeration_reuses_the_cached_srl_list(monkeypatch):
    from srlkit import enumeration

    enumerate_models("srl", 4)
    calls = []
    original = enumeration._enumerate_srl
    monkeypatch.setattr(
        enumeration, "_enumerate_srl", lambda n: calls.append(n) or original(n)
    )
    enumeration._enumerate_sirl(4)
    assert calls == []


def test_brouwerian_enumeration_at_sizes_0_and_1():
    assert enumerate_models("brouwerian", 0) == []
    [single] = enumerate_models("brouwerian", 1)
    assert single.size == 1 and validate(single).ok


def test_canonical_form_identifies_isomorphs():
    algebra = c4()
    # relabel by a permutation and compare canonical forms
    perm = (2, 0, 3, 1)
    inv = [0] * 4
    for a, b in enumerate(perm):
        inv[b] = a
    relabel = lambda t: tuple(
        tuple(perm[t[inv[i]][inv[j]]] for j in range(4)) for i in range(4)
    )
    from srlkit.core import FiniteAlgebra

    twisted = FiniteAlgebra.build(
        4,
        relabel(algebra.meet),
        relabel(algebra.join),
        relabel(algebra.fusion),
        relabel(algebra.residual),
        perm[algebra.e],
        neg=tuple(perm[algebra.neg[inv[i]]] for i in range(4)),
    )
    assert validate(twisted).ok
    assert canonical_form(twisted) == canonical_form(algebra)
    assert canonical_form(crystal()) != canonical_form(algebra)
