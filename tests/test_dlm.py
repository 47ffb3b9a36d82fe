"""Acts-for hierarchies, labels, relabeling, lifting, and declassification."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sifc.dlm
from sifc.dlm import (AuthorityMismatch, CorollaryViolation, DlmError, Label,
                      LabelSyntaxError, NotLagoisHierarchy, Policy,
                      PrincipalMapPair, PrincipalsHierarchy, UnknownPrincipal,
                      authority_label, check_lifted_connection,
                      cross_declassify_check, declassify_check, format_label,
                      hierarchy_violations, label_equiv, label_join,
                      label_leq, lift_label, parse_label, policy, policy_leq,
                      random_label)

from sifc.connection import PartialMap

from fixtures import principal_map_pair, wide_principal_map_pair
from oracles import (BruteLabels, BrutePoset, brute_lagois_violations, brute_lift,
                     one_policy_lifted_failures, one_policy_order, reach_table,
                     rows_above, sampled_lifted_failures)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Two mirrored chains of four named principals, connected College/University
# style: the left chain folds onto {uni_fac, uni_dean} plus the bounds.
LEFT_H = PrincipalsHierarchy(
    ["stu", "fac", "dean", "prin"],
    [("fac", "stu"), ("dean", "fac"), ("prin", "dean")])
RIGHT_H = PrincipalsHierarchy(
    ["uni_fac", "uni_dean", "vice", "chanc"],
    [("uni_dean", "uni_fac"), ("vice", "uni_dean"), ("chanc", "vice")])

PM_ALPHA = {"BOT": "BOT", "stu": "uni_fac", "fac": "uni_fac",
            "dean": "uni_dean", "prin": "uni_dean", "TOP": "TOP"}
PM_GAMMA = {"BOT": "BOT", "uni_fac": "fac", "uni_dean": "prin",
            "vice": "TOP", "chanc": "TOP", "TOP": "TOP"}


@pytest.fixture(scope="module")
def pm():
    return PrincipalMapPair.check(LEFT_H, RIGHT_H, PM_ALPHA, PM_GAMMA)


# -- hierarchies -------------------------------------------------------------

def test_acts_for_reflexive_transitive():
    h = PrincipalsHierarchy(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert h.acts_for("a", "a")
    assert h.acts_for("a", "c")
    assert not h.acts_for("c", "a")


def test_top_and_bot_are_implicit():
    h = PrincipalsHierarchy(["p"], [])
    assert h.acts_for("TOP", "p")
    assert h.acts_for("p", "BOT")
    assert h.acts_for("TOP", "BOT")


def test_preorder_cycles_allowed():
    h = PrincipalsHierarchy(["a", "b"], [("a", "b"), ("b", "a")])
    assert h.equiv("a", "b")


def _assert_acts_for_matches_oracle(h):
    """acts_for against brute-force reachability over the edges plus the
    implicit TOP-acts-for-all and all-act-for-BOT pairs."""
    reach = reach_table(h.principals, list(h.edges) + [("TOP", p) for p in h.principals]
                        + [(p, "BOT") for p in h.principals])
    for p in h.principals:
        for q in h.principals:
            assert h.acts_for(p, q) == (q in reach[p]), (p, q)


def test_acts_for_matches_oracle_on_fixture_hierarchies():
    pm = principal_map_pair()
    fixture_docs = [json.loads((FIXTURES / f"{side}-hierarchy.json").read_text())
                    for side in ("left", "right")]
    for h in (LEFT_H, RIGHT_H, pm.left, pm.right,
              *(PrincipalsHierarchy.from_dict(doc) for doc in fixture_docs)):
        _assert_acts_for_matches_oracle(h)


@pytest.mark.parametrize("seed", range(3))
def test_acts_for_matches_oracle_on_random_cyclic_hierarchies(seed):
    # Random edges in both directions make acts-for cycles; TOP and BOT may
    # appear as edge endpoints too (BOT acting for p makes everyone act for p).
    rng = random.Random(seed)
    cyclic = 0
    for _ in range(30):
        names = [f"p{i}" for i in range(rng.randint(1, 40))]
        pool = names + ["TOP", "BOT"]
        edges = [(rng.choice(pool), rng.choice(pool))
                 for _ in range(rng.randint(0, 2 * len(names)))]
        h = PrincipalsHierarchy(names, edges)
        _assert_acts_for_matches_oracle(h)
        cyclic += any(h.equiv(p, q) for p in names for q in names if p != q)
    assert cyclic > 0


def test_unknown_principal():
    h = PrincipalsHierarchy(["a"], [])
    with pytest.raises(UnknownPrincipal):
        h.acts_for("a", "zz")
    with pytest.raises(UnknownPrincipal):
        PrincipalsHierarchy(["a"], [("a", "zz")])


def test_hierarchy_round_trip():
    h = PrincipalsHierarchy(["a", "b"], [("a", "b")])
    again = PrincipalsHierarchy.from_dict(h.to_dict())
    assert again.principals == h.principals
    assert again.edges == h.edges


@pytest.mark.parametrize("doc", [
    {"principals": "ab", "acts_for": [["a", "b"]]},
    {"principals": ["a", "b"], "acts_for": ["ab"]},
    {"principals": ["a", "b"], "acts_for": "ab"},
])
def test_hierarchy_from_dict_rejects_strings_for_lists(doc):
    with pytest.raises(DlmError):
        PrincipalsHierarchy.from_dict(doc)


# -- policies and labels --------------------------------------------------------

def test_policy_leq_dropping_readers_raises():
    h = PrincipalsHierarchy(["o", "r1"], [])
    assert policy_leq(h, policy("o", "r1"), policy("o"))
    assert not policy_leq(h, policy("o"), policy("o", "r1"))


def test_policy_leq_reflexive():
    h = PrincipalsHierarchy(["o", "r"], [])
    i = policy("o", "r")
    assert policy_leq(h, i, i)


def test_policy_leq_owner_strength():
    h = PrincipalsHierarchy(["o", "p", "r"], [("p", "o")])
    assert policy_leq(h, policy("o", "r"), policy("p", "r"))
    assert not policy_leq(h, policy("p", "r"), policy("o", "r"))


def test_label_leq_examples():
    h = PrincipalsHierarchy(["o", "r1", "r2"], [])
    sample = Label.of(policy("o", "r1"), policy("r2"))
    assert label_leq(h, Label.empty(), sample)
    bigger = label_join(sample, Label.of(policy("r1")))
    assert label_leq(h, sample, bigger)


def test_label_with_redundant_stricter_policy():
    # {o: r1, r2; o: r1} demands both policies, so it collapses to the
    # stricter {o: r1} and sits strictly above the two-reader label.
    h = PrincipalsHierarchy(["o", "r1", "r2"], [])
    wide = Label.of(policy("o", "r1", "r2"))
    narrow = Label.of(policy("o", "r1"))
    both = Label.of(policy("o", "r1", "r2"), policy("o", "r1"))
    assert label_equiv(h, both, narrow)
    assert label_leq(h, wide, both)
    assert not label_leq(h, both, wide)


def test_label_join_is_union():
    l1 = Label.of(policy("o1", "r"))
    l2 = Label.of(policy("o2", "s"))
    assert label_join(l1, l2).policies == l1.policies | l2.policies
    assert label_join(l1, Label.empty()) == l1
    assert label_join(l1, l1) == l1


def test_least_and_greatest_labels():
    h = LEFT_H
    rng = random.Random(1)
    greatest = Label.of(policy("TOP"))
    for _ in range(50):
        lab = random_label(rng, [p for p in h.principals])
        assert label_leq(h, Label.empty(), lab)
        assert label_leq(h, lab, greatest)


@settings(max_examples=150)
@given(st.data())
def test_label_order_laws(data):
    h = LEFT_H
    pool = list(h.principals)
    policies = st.builds(
        Policy,
        owner=st.sampled_from(pool),
        readers=st.frozensets(st.sampled_from(pool), max_size=2))
    labels = st.builds(Label, st.frozensets(policies, max_size=3))
    l1, l2, l3 = data.draw(labels), data.draw(labels), data.draw(labels)
    assert label_leq(h, l1, l1)
    if label_leq(h, l1, l2) and label_leq(h, l2, l3):
        assert label_leq(h, l1, l3)
    assert label_leq(h, l1, label_join(l1, l2))
    assert label_join(l1, l2) == label_join(l2, l1)
    assert label_join(label_join(l1, l2), l3) == label_join(l1, label_join(l2, l3))
    # dropping a reader never lowers the label
    for pol in l1.policies:
        if pol.readers:
            smaller = Label(l1.policies - {pol}
                            | {Policy(pol.owner, frozenset(list(pol.readers)[1:]))})
            assert label_leq(h, l1, smaller)


# -- label literals ----------------------------------------------------------------

@pytest.mark.parametrize("src,expected", [
    ("{}", Label.empty()),
    ("{o:}", Label.of(policy("o"))),
    ("{o1: r1, r2; o2: r4}", Label.of(policy("o1", "r1", "r2"), policy("o2", "r4"))),
    ("{ o1 : r1 }", Label.of(policy("o1", "r1"))),
    ("{o: }", Label.of(policy("o"))),
])
def test_parse_label(src, expected):
    assert parse_label(src) == expected


@pytest.mark.parametrize("src", ["", "o: r", "{o r}", "{o: r", "{o!: r}",
                                 "{stu: fac,,}", "{a:,}", "{o: ,r}", "{o: r,,s}",
                                 "{o: r, }"])
def test_parse_label_errors(src):
    with pytest.raises(LabelSyntaxError):
        parse_label(src)


def test_format_label_round_trip():
    lab = Label.of(policy("o2", "r4"), policy("o1", "r1", "r2"))
    assert format_label(lab) == "{o1: r1, r2; o2: r4}"
    assert parse_label(format_label(lab)) == lab
    assert format_label(Label.empty()) == "{}"
    assert format_label(Label.of(policy("o"))) == "{o:}"


# -- hierarchy connections ------------------------------------------------------------

def test_pm_fixture_verifies(pm):
    # declaration order, with the implicit TOP/BOT appended last
    assert pm.budpoint_pairs() == [("fac", "uni_fac"), ("prin", "uni_dean"),
                                   ("TOP", "TOP"), ("BOT", "BOT")]


def test_pm_violations_detected():
    bad_gamma = dict(PM_GAMMA, vice="dean")
    violations = hierarchy_violations(LEFT_H, RIGHT_H, PM_ALPHA, bad_gamma)
    assert ("LC2", ("vice",)) in [(v.condition, v.witness) for v in violations]
    with pytest.raises(NotLagoisHierarchy):
        PrincipalMapPair.check(LEFT_H, RIGHT_H, PM_ALPHA, bad_gamma)


@pytest.mark.parametrize("side", ["alpha", "gamma"])
def test_principal_maps_reject_unknown_keys(side):
    alpha, gamma = dict(PM_ALPHA), dict(PM_GAMMA)
    (alpha if side == "alpha" else gamma)["zzz"] = "BOT"
    with pytest.raises(UnknownPrincipal) as exc:
        hierarchy_violations(LEFT_H, RIGHT_H, alpha, gamma)
    assert exc.value.name == "zzz"
    with pytest.raises(UnknownPrincipal):
        PrincipalMapPair.check(LEFT_H, RIGHT_H, alpha, gamma)


@pytest.mark.parametrize("side", ["alpha", "gamma"])
def test_unmapped_principals_raise_partial_map(side):
    alpha, gamma = dict(PM_ALPHA), dict(PM_GAMMA)
    table = alpha if side == "alpha" else gamma
    declared = (LEFT_H if side == "alpha" else RIGHT_H).principals
    missing = [p for p in declared if p in table][::2]
    for p in missing:
        del table[p]
    with pytest.raises(PartialMap) as exc:
        hierarchy_violations(LEFT_H, RIGHT_H, alpha, gamma)
    assert exc.value.missing == tuple(missing)
    with pytest.raises(PartialMap):
        PrincipalMapPair.check(LEFT_H, RIGHT_H, alpha, gamma)


def _converse_poset(h):
    """The brute-force order "q acts for p" as p <= q, from the raw edges."""
    names = h.principals
    return BrutePoset(names, [(q, p) for p, q in h.edges]
                      + [(p, "TOP") for p in names] + [("BOT", p) for p in names])


def _random_cyclic_hierarchy(rng, max_names=6):
    names = [f"p{i}" for i in range(rng.randint(1, max_names))]
    pool = names + ["TOP", "BOT"]
    return PrincipalsHierarchy(names, [(rng.choice(pool), rng.choice(pool))
                                       for _ in range(rng.randint(0, 2 * len(names)))])


@pytest.mark.parametrize("seed", range(3))
def test_hierarchy_violations_match_oracle_exactly(seed):
    # Arbitrary maps break every law somewhere; identity maps and maps into
    # a mutual-acts-for class pass; LC3/LC4 compare up to mutual acts-for.
    rng = random.Random(seed)
    passed = failed = 0
    for _ in range(60):
        left, right = _random_cyclic_hierarchy(rng), _random_cyclic_hierarchy(rng)
        if rng.random() < 0.2:
            right = left
            alpha = gamma = {p: rng.choice([q for q in left.principals if left.equiv(p, q)])
                             for p in left.principals}
        else:
            alpha = {p: rng.choice(right.principals) for p in left.principals}
            gamma = {q: rng.choice(left.principals) for q in right.principals}
        mine = [(v.condition, v.witness)
                for v in hierarchy_violations(left, right, alpha, gamma)]
        assert mine == brute_lagois_violations(_converse_poset(left), _converse_poset(right),
                                               alpha, gamma)
        passed += not mine
        failed += bool(mine)
    assert passed > 0 and failed > 0


def test_lift_label_pointwise(pm):
    assert lift_label(pm, "lr", Label.of(policy("stu", "fac"))) == \
        Label.of(policy("uni_fac", "uni_fac"))
    assert lift_label(pm, "lr", Label.empty()) == Label.empty()
    assert lift_label(pm, "rl", Label.of(policy("vice"))) == Label.of(policy("TOP"))


def test_lift_distributes_over_join(pm):
    rng = random.Random(3)
    pool = list(pm.left.principals)
    for _ in range(200):
        l1 = random_label(rng, pool)
        l2 = random_label(rng, pool)
        assert lift_label(pm, "lr", label_join(l1, l2)) == \
            label_join(lift_label(pm, "lr", l1), lift_label(pm, "lr", l2))


def test_lift_can_collapse_policies(pm):
    two = Label.of(policy("stu"), policy("fac"))
    assert len(lift_label(pm, "lr", two).policies) == 1


def test_check_lifted_connection_identity():
    h = LEFT_H
    ident = {p: p for p in h.principals}
    ipm = PrincipalMapPair.check(h, h, ident, ident)
    report = check_lifted_connection(ipm, samples=100, seed=0)
    assert report.passed


def test_check_lifted_connection_fixture(pm):
    report = check_lifted_connection(pm, samples=500, seed=0)
    assert report.passed, report.failures
    assert all(report.checks[name] > 0 for name in ("1a", "1b", "2a", "2b", "3a", "3b"))


def test_check_lifted_connection_broken_gamma_fails_2b():
    # bypass verification to build a deliberately broken pair
    bad = PrincipalMapPair(LEFT_H, RIGHT_H, PM_ALPHA, dict(PM_GAMMA, vice="dean"))
    report = check_lifted_connection(bad, samples=200, seed=0)
    assert not report.passed
    assert any(name == "2b" for name, _ in report.failures)


def test_lifted_exhaustive_two_principals():
    h1 = PrincipalsHierarchy(["a", "b"], [("b", "a")])
    h2 = PrincipalsHierarchy(["u", "v"], [("v", "u")])
    alpha = {"BOT": "BOT", "a": "u", "b": "v", "TOP": "TOP"}
    gamma = {"BOT": "BOT", "u": "a", "v": "b", "TOP": "TOP"}
    small = PrincipalMapPair.check(h1, h2, alpha, gamma)

    def all_labels(names):
        pols = [Policy(o, frozenset(rs))
                for o in names
                for rs in _subsets(names, 2)]
        out = []
        for mask in range(1 << len(pols)):
            out.append(Label(frozenset(p for i, p in enumerate(pols)
                                       if mask >> i & 1)))
        return out

    labels = all_labels(["a", "b"])
    assert len(labels) == 256
    for lab in labels:
        lifted = lift_label(small, "lr", lab)
        back = lift_label(small, "rl", lifted)
        assert label_leq(h1, lab, back)
        assert label_equiv(h2, lifted,
                           lift_label(small, "lr", back))
    for l1 in labels[:32]:
        for l2 in labels[:32]:
            assert lift_label(small, "lr", label_join(l1, l2)) == \
                label_join(lift_label(small, "lr", l1), lift_label(small, "lr", l2))
            if label_leq(h1, l1, l2):
                assert label_leq(h2, lift_label(small, "lr", l1),
                                 lift_label(small, "lr", l2))


def _subsets(items, max_size):
    import itertools
    out = []
    for k in range(max_size + 1):
        out.extend(frozenset(c) for c in itertools.combinations(items, k))
    return out


# -- declassification -------------------------------------------------------------------

def test_declassify_own_policy():
    h = PrincipalsHierarchy(["p"], [])
    assert declassify_check(h, ["p"], Label.of(policy("p")), Label.empty())


def test_declassify_empty_authority_is_plain_relabel():
    h = PrincipalsHierarchy(["p", "q"], [("p", "q")])
    l1 = Label.of(policy("q"))
    l2 = Label.of(policy("p"))
    assert declassify_check(h, [], l1, l2) == label_leq(h, l1, l2)


def test_declassify_unrelated_owner_refused():
    h = PrincipalsHierarchy(["p", "q"], [])
    assert not declassify_check(h, ["p"], Label.of(policy("q")), Label.empty())


def test_authority_label():
    assert authority_label(["p", "q"]) == Label.of(policy("p"), policy("q"))


def test_cross_declassify_identity_pm():
    h = LEFT_H
    ident = {p: p for p in h.principals}
    ipm = PrincipalMapPair.check(h, h, ident, ident)
    l1 = Label.of(policy("stu"))
    l2 = Label.of(policy("fac"))
    res = cross_declassify_check(ipm, ["fac"], ["fac"], l1, l2)
    assert res.allowed == declassify_check(h, ["fac"], l1, l2)


def test_cross_declassify_budpoint_scope(pm):
    # on transfer principals both views agree, in both directions
    l1 = Label.of(policy("fac"))
    res = cross_declassify_check(pm, ["fac"], ["uni_fac"], l1, Label.empty())
    assert res.allowed
    res2 = cross_declassify_check(pm, [], [], l1, Label.empty())
    assert not res2.allowed
    res3 = cross_declassify_check(pm, [], [], Label.of(policy("uni_fac")),
                                  Label.of(policy("fac")), direction="rl")
    assert res3.allowed == label_leq(pm.right, Label.of(policy("uni_fac")),
                                     lift_label(pm, "lr", Label.of(policy("fac"))))


def test_cross_declassify_authority_mismatch(pm):
    with pytest.raises(AuthorityMismatch):
        cross_declassify_check(pm, ["fac"], ["uni_dean"],
                               Label.of(policy("fac")), Label.empty())


def test_cross_declassify_detects_disagreement_off_transfer_scope(pm):
    # 'vice' is not a transfer principal: pushing {TOP:} right cannot flow to
    # it although the pulled-back view (everything at TOP) says yes.
    with pytest.raises(CorollaryViolation):
        cross_declassify_check(pm, [], [], Label.of(policy("TOP")),
                               Label.of(policy("vice")))


# -- the label order against its definition ---------------------------------------------

def _principal_map_pairs(case):
    """The fixture pair, the 50-principal wide pair, or 40 random cyclic
    hierarchies, each connected to itself by a map into its acts-for classes."""
    if case == "fixture":
        return [principal_map_pair()]
    if case == "wide":
        return [wide_principal_map_pair()]
    rng = random.Random(11)
    out = []
    for _ in range(40):
        h = _random_cyclic_hierarchy(rng, max_names=12)
        table = {p: rng.choice([q for q in h.principals if h.equiv(p, q)])
                 for p in h.principals}
        out.append(PrincipalMapPair.check(h, h, table, table))
    return out


def _brute(h):
    return BruteLabels(h.principals, h.edges)


def _draw(rng, names, max_readers=8):
    """A random label as (owner, readers) pairs: up to four policies."""
    return [(rng.choice(names), frozenset(rng.sample(names, rng.randint(0, min(max_readers,
                                                                               len(names))))))
            for _ in range(rng.randint(0, 4))]


def _draw_above(rng, brute, names, base):
    """A label the definition accepts from `base`, drawn over `names`, or
    one reader off it."""
    out = []
    for owner, readers in base:
        # Acts-for is reflexive: a principal outside `names` may stand for itself.
        new = {rng.choice([p for p in names if brute.acts_for(p, r)] or [r])
               for r in readers if rng.random() < 0.7}
        out.append((rng.choice([p for p in names if brute.acts_for(p, owner)] or [owner]),
                    frozenset(new)))
    if out and rng.random() < 0.3:
        owner, readers = out.pop(rng.randrange(len(out)))
        out.append((owner, readers | {rng.choice(names)}))
    return out


def _label(pairs):
    return Label(frozenset(Policy(o, frozenset(rs)) for o, rs in pairs))


def _pairs_of(label):
    return [(p.owner, p.readers) for p in label.policies]


@pytest.mark.parametrize("case", ["fixture", "wide", "cyclic"])
def test_label_order_matches_definition(case):
    rng = random.Random(case)
    verdicts = set()
    for pm in _principal_map_pairs(case):
        for h in (pm.left, pm.right):
            brute, names = _brute(h), list(h.principals)
            for _ in range(400 if case != "cyclic" else 20):
                l1 = _draw(rng, names)
                l2 = _draw_above(rng, brute, names, l1) if rng.random() < 0.5 \
                    else _draw(rng, names)
                a, b = _label(l1), _label(l2)
                expected = brute.label_leq(l1, l2)
                assert label_leq(h, a, b) == expected, (a, b)
                verdicts.add(expected)
                authority = rng.sample(names, rng.randint(0, 2))
                assert declassify_check(h, authority, a, b) == \
                    brute.declassify(authority, l1, l2), (authority, a, b)
                for i in a.policies:
                    for j in b.policies:
                        assert policy_leq(h, i, j) == \
                            brute.policy_leq((i.owner, i.readers), (j.owner, j.readers))
    assert verdicts == {True, False}


@pytest.mark.parametrize("case", ["fixture", "wide", "cyclic"])
def test_lift_and_cross_declassify_match_definition(case):
    rng = random.Random(case)
    for pm in _principal_map_pairs(case):
        for direction in ("lr", "rl"):
            near_h, far_h = (pm.left, pm.right) if direction == "lr" else (pm.right, pm.left)
            push, pull = (pm.alpha, pm.gamma) if direction == "lr" else (pm.gamma, pm.alpha)
            back = "rl" if direction == "lr" else "lr"
            near_brute, far_brute = _brute(near_h), _brute(far_h)
            buds = pm.budpoint_pairs()
            near_buds = [p if direction == "lr" else q for p, q in buds]
            far_buds = [q if direction == "lr" else p for p, q in buds]
            for _ in range(200 if case != "cyclic" else 10):
                on_buds = bool(buds) and rng.random() < 0.7
                l1 = _draw(rng, near_buds if on_buds else list(near_h.principals))
                l2 = _draw(rng, far_buds if on_buds else list(far_h.principals))
                if rng.random() < 0.5:
                    l2 = _draw_above(rng, far_brute, far_buds if on_buds
                                     else list(far_h.principals), brute_lift(push, l1))
                a, b = _label(l1), _label(l2)
                assert lift_label(pm, direction, a) == _label(brute_lift(push, l1))
                assert lift_label(pm, back, b) == _label(brute_lift(pull, l2))
                chosen = rng.sample(buds, rng.randint(0, min(2, len(buds))))
                auth_l, auth_r = [p for p, _ in chosen], [q for _, q in chosen]
                auth_near, auth_far = (auth_l, auth_r) if direction == "lr" else (auth_r, auth_l)
                near = near_brute.declassify(auth_near, l1, brute_lift(pull, l2))
                far = far_brute.declassify(auth_far, brute_lift(push, l1), l2)
                if near != far:
                    with pytest.raises(CorollaryViolation):
                        cross_declassify_check(pm, auth_l, auth_r, a, b, direction)
                else:
                    res = cross_declassify_check(pm, auth_l, auth_r, a, b, direction)
                    assert (res.allowed, res.near_side, res.far_side) == (near, near, far)


def _first_unknown(h, *policy_sets):
    """The name the library has always reported: the first principal outside
    h, scanning the sets in order, each policy's owner before its readers."""
    for policies in policy_sets:
        for pol in policies:
            for name in (pol.owner, *pol.readers):
                if name not in h:
                    return name
    return None


def _plant_unknowns(rng, label):
    """Replace owners or add readers outside every hierarchy."""
    out = []
    for owner, readers in label:
        if rng.random() < 0.3:
            owner = f"zz{rng.randrange(3)}"
        if rng.random() < 0.3:
            readers = readers | {f"zz{rng.randrange(3)}"}
        out.append((owner, readers))
    return out


@pytest.mark.parametrize("case", ["fixture", "wide"])
def test_unknown_principals_are_named_as_by_a_full_scan(case):
    rng = random.Random(case)
    pm = _principal_map_pairs(case)[0]
    h, names = pm.left, list(pm.left.principals)
    seen = 0
    for _ in range(300):
        a = _label(_plant_unknowns(rng, _draw(rng, names)))
        b = _label(_plant_unknowns(rng, _draw(rng, names)))
        authority = rng.sample(names + ["zz0", "zz9"], rng.randint(0, 2))
        expected = _first_unknown(h, a.policies, b.policies)
        if expected is not None:
            seen += 1
            with pytest.raises(UnknownPrincipal) as exc:
                label_leq(h, a, b)
            assert exc.value.name == expected
        joined = b.policies | frozenset(Policy(p, frozenset()) for p in authority)
        unknown_authority = [p for p in authority if p not in h]
        expected = (unknown_authority[0] if unknown_authority
                    else _first_unknown(h, a.policies, joined))
        if expected is not None:
            with pytest.raises(UnknownPrincipal) as exc:
                declassify_check(h, authority, a, b)
            assert exc.value.name == expected
        expected = _first_unknown(h, a.policies)
        if expected is not None:
            with pytest.raises(UnknownPrincipal) as exc:
                lift_label(pm, "lr", a)
            assert exc.value.name == expected
        # The far label is lifted before the near one is checked.
        b_right = Label(frozenset(Policy(pm.alpha.get(p.owner, p.owner),
                                         frozenset(pm.alpha.get(r, r) for r in p.readers))
                                  for p in b.policies))
        expected = _first_unknown(pm.right, b_right.policies) or _first_unknown(h, a.policies)
        if expected is not None:
            with pytest.raises(UnknownPrincipal) as exc:
                cross_declassify_check(pm, [], [], a, b_right, "lr")
            assert exc.value.name == expected
        # Right to left: the left label b is pushed before the right one is checked.
        expected = _first_unknown(h, b.policies) or _first_unknown(pm.right, b_right.policies)
        if expected is not None:
            with pytest.raises(UnknownPrincipal) as exc:
                cross_declassify_check(pm, [], [], b_right, b, "rl")
            assert exc.value.name == expected
    assert seen > 100


def _lifted_outcome(pm, auth_l, auth_r, l1, l2, direction):
    """A cross decision by its definition, on the labels `lift_label`
    builds: the verdict both sides agree on, CorollaryViolation when they
    differ, or the UnknownPrincipal raised and the name it gives."""
    near_h, far_h, a_near, a_far, back = ((pm.left, pm.right, auth_l, auth_r, "rl")
                                          if direction == "lr" else
                                          (pm.right, pm.left, auth_r, auth_l, "lr"))
    try:
        near = declassify_check(near_h, a_near, l1, lift_label(pm, back, l2))
        far = declassify_check(far_h, a_far, lift_label(pm, direction, l1), l2)
    except UnknownPrincipal as exc:
        return "UnknownPrincipal", exc.name
    return ("agree", near) if near == far else ("CorollaryViolation", None)


def _cross_outcome(pm, auth_l, auth_r, l1, l2, direction):
    """What `cross_declassify_check` gives, in the terms of `_lifted_outcome`."""
    try:
        res = cross_declassify_check(pm, auth_l, auth_r, l1, l2, direction)
    except UnknownPrincipal as exc:
        return "UnknownPrincipal", exc.name
    except CorollaryViolation:
        return "CorollaryViolation", None
    assert res.allowed == res.near_side == res.far_side and res.direction == direction
    return "agree", res.allowed


def _partial_pairs():
    """Hand-built fixture pairs whose maps leave a principal out or send one
    outside the far hierarchy."""
    def drop(table, key):
        return {p: q for p, q in table.items() if p != key}
    return [PrincipalMapPair(LEFT_H, RIGHT_H, drop(PM_ALPHA, "stu"), PM_GAMMA),
            PrincipalMapPair(LEFT_H, RIGHT_H, dict(PM_ALPHA, dean="zz_far"), PM_GAMMA),
            PrincipalMapPair(LEFT_H, RIGHT_H, PM_ALPHA, drop(PM_GAMMA, "vice")),
            PrincipalMapPair(LEFT_H, RIGHT_H, PM_ALPHA, dict(PM_GAMMA, uni_fac="zz_near")),
            PrincipalMapPair(LEFT_H, RIGHT_H, drop(PM_ALPHA, "fac"),
                             dict(PM_GAMMA, chanc="zz_near"))]


def test_unknown_principals_on_partial_maps_are_named_as_lifted_labels_name_them():
    rng = random.Random(7)
    named = set()
    for pm in _partial_pairs():
        for direction in ("lr", "rl"):
            near_h, far_h = (pm.left, pm.right) if direction == "lr" else (pm.right, pm.left)
            for _ in range(150):
                a = _label(_plant_unknowns(rng, _draw(rng, list(near_h.principals))))
                b = _label(_plant_unknowns(rng, _draw(rng, list(far_h.principals))))
                expected = _lifted_outcome(pm, [], [], a, b, direction)
                assert _cross_outcome(pm, [], [], a, b, direction) == expected, (a, b)
                if expected[0] == "UnknownPrincipal":
                    named.add(expected[1])
    assert {"stu", "fac", "vice", "zz_far", "zz_near", "zz0"} <= named


@pytest.mark.parametrize("side", ["alpha", "gamma"])
def test_cross_declassify_names_an_unmapped_authority_principal(side):
    # A hand-built pair whose map leaves authority principals out names the
    # first of them in sorted order, as `lift_label` names a label's.
    if side == "alpha":
        alpha = {p: q for p, q in PM_ALPHA.items() if p not in ("stu", "prin")}
        pm = PrincipalMapPair(LEFT_H, RIGHT_H, alpha, PM_GAMMA)
        authority, expected, direction = (["stu", "prin", "fac"], ["uni_fac"]), "prin", "lr"
    else:
        gamma = {q: p for q, p in PM_GAMMA.items() if q != "uni_fac"}
        pm = PrincipalMapPair(LEFT_H, RIGHT_H, PM_ALPHA, gamma)
        authority, expected, direction = (["fac"], ["uni_fac"]), "uni_fac", "rl"
    with pytest.raises(UnknownPrincipal) as lifted:
        lift_label(pm, direction, authority_label([expected]))
    assert lifted.value.name == expected
    for d in ("lr", "rl"):
        with pytest.raises(UnknownPrincipal) as exc:
            cross_declassify_check(pm, *authority, Label.empty(), Label.empty(), d)
        assert exc.value.name == expected


def test_cross_declassify_on_unchecked_pairs_matches_lifted_labels(monkeypatch):
    def no_lift(*args):
        raise AssertionError("a cross decision built a lifted label")

    # The reference below calls this module's own `lift_label`.
    monkeypatch.setattr(sifc.dlm, "lift_label", no_lift)
    rng = random.Random(10)
    pairs = [_random_lifted_pair(rng) for _ in range(300)]
    seen = set()
    for pm in pairs:
        buds = pm.budpoint_pairs()
        for direction in ("lr", "rl"):
            near_h, far_h = (pm.left, pm.right) if direction == "lr" else (pm.right, pm.left)
            for _ in range(6):
                a = _label(_draw(rng, list(near_h.principals)))
                b = _label(_draw(rng, list(far_h.principals)))
                if rng.random() < 0.8:
                    chosen = rng.sample(buds, rng.randint(0, min(2, len(buds))))
                    auth_l, auth_r = [p for p, _ in chosen], [q for _, q in chosen]
                else:
                    auth_l = rng.sample(pm.left.principals, rng.randint(0, 2))
                    auth_r = rng.sample(pm.right.principals, rng.randint(0, 2))
                try:
                    outcome = _cross_outcome(pm, auth_l, auth_r, a, b, direction)
                except AuthorityMismatch:
                    assert ({pm.alpha[p] for p in auth_l} != set(auth_r)
                            or {pm.gamma[q] for q in auth_r} != set(auth_l))
                    seen.add("AuthorityMismatch")
                    continue
                assert outcome == _lifted_outcome(pm, auth_l, auth_r, a, b, direction), \
                    (direction, auth_l, auth_r, a, b)
                seen.add(outcome)
    assert seen == {("agree", True), ("agree", False), ("CorollaryViolation", None),
                    "AuthorityMismatch"}


# -- the lifted laws, exactly ------------------------------------------------------------

def _random_lifted_pair(rng):
    """An unchecked pair between random cyclic hierarchies of at most four
    named principals: arbitrary maps, or positional ones (p_i <-> q_i and
    the bounds to themselves) onto a copy whose edges were thinned and
    extended at random."""
    left = _random_cyclic_hierarchy(rng, max_names=4)
    if rng.random() < 0.5:
        right = _random_cyclic_hierarchy(rng, max_names=4)
        return PrincipalMapPair(left, right,
                                {p: rng.choice(right.principals) for p in left.principals},
                                {q: rng.choice(left.principals) for q in right.principals})
    alpha = {p: p if p in ("TOP", "BOT") else "q" + p[1:] for p in left.principals}
    pool = list(alpha.values())
    edges = [(alpha[p], alpha[q]) for p, q in left.edges if rng.random() < 0.8]
    edges += [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 1))]
    right = PrincipalsHierarchy([q for q in pool if q not in ("TOP", "BOT")], edges)
    return PrincipalMapPair(left, right, alpha, {q: p for p, q in alpha.items()})


def _lifted_cases():
    """The fixture, wide and identity pairs, then 300 random ones."""
    rng = random.Random(2024)
    ident = {p: p for p in LEFT_H.principals}
    return ([("fixture", principal_map_pair()), ("wide", wide_principal_map_pair()),
             ("identity", PrincipalMapPair.check(LEFT_H, LEFT_H, ident, ident))]
            + [(f"random-{i}", _random_lifted_pair(rng)) for i in range(300)])


def _replays(pm, prop, witness):
    """Does the witness, parsed and pushed through the public label
    functions, break the property it is reported for?"""
    src, dst, push, pull = ((pm.left, pm.right, "lr", "rl") if prop[1] == "a"
                            else (pm.right, pm.left, "rl", "lr"))
    if prop[0] == "1":
        lo, hi = map(parse_label, witness.split(" <= "))
        return label_leq(src, lo, hi) and not label_leq(
            dst, lift_label(pm, push, lo), lift_label(pm, push, hi))
    lab = parse_label(witness)
    there = lift_label(pm, push, lab)
    back = lift_label(pm, pull, there)
    if prop[0] == "2":
        return not label_leq(src, lab, back)
    return not label_equiv(dst, there, lift_label(pm, push, back))


def test_one_policy_order_is_the_definition():
    rng = random.Random(5)
    for h in [LEFT_H, *(_random_cyclic_hierarchy(rng, max_names=4) for _ in range(5))]:
        brute = _brute(h)
        key, leq = one_policy_order(brute)
        labels = [[(owner, frozenset(readers))] for owner in h.principals
                  for readers in _subsets(h.principals, 2)]
        keys = [key(label) for label in labels]
        for lo, lo_key, row in zip(labels, keys, rows_above(brute, keys)):
            for j, (hi, hi_key) in enumerate(zip(labels, keys)):
                assert leq(lo_key, hi_key) == brute.label_leq(lo, hi) == bool(row >> j & 1)


def test_lifted_laws_match_the_label_level_definition():
    # The exact report names the same properties as the definition over
    # every label of at most one policy (one reader on the 50-principal
    # wide pair), and sampling only ever finds some of them.
    found = set()
    passed = 0
    for name, pm in _lifted_cases():
        report = check_lifted_connection(pm, samples=20, seed=7)
        exact = {prop for prop, _ in report.failures}
        assert exact == one_policy_lifted_failures(
            pm, 1 if name == "wide" else None), name
        sampled = {prop for prop, _ in sampled_lifted_failures(pm, 20, 7)}
        assert sampled <= exact, name
        found |= exact
        passed += report.passed
    assert found == {"1a", "1b", "2a", "2b", "3a", "3b"}
    assert 10 < passed < 300


def test_lifted_verdict_does_not_depend_on_the_seed():
    # gamma is not monotone: q2 acts for q1, but p2 does not act for p1.
    # Random labels find this at some seeds and miss it at others (200
    # samples at seed 233 miss it); the exact check reads no seed.
    left = PrincipalsHierarchy(["p0", "p1", "p2"], [])
    right = PrincipalsHierarchy(["q0", "q1", "q2"], [("q2", "q1")])
    alpha = {"p0": "q0", "p1": "q1", "p2": "q2", "TOP": "TOP", "BOT": "BOT"}
    pm = PrincipalMapPair(left, right, alpha, {q: p for p, q in alpha.items()})
    reports = {(samples, seed): check_lifted_connection(pm, samples, seed)
               for samples, seed in [(200, 233), (200, 0), (200, 1), (500, 99), (0, 0)]}
    for (samples, seed), report in reports.items():
        assert (report.passed, report.failures) == (False, (("1b", "{q1:} <= {q2:}"),))
        assert report.checks == {"1a": 12, "1b": 13, "2a": 5, "2b": 5, "3a": 5, "3b": 5}
        assert (report.samples, report.seed) == (samples, seed)
    assert one_policy_lifted_failures(pm) == {"1b"}
    assert sampled_lifted_failures(pm, 200, 233) == []
    assert {prop for prop, _ in sampled_lifted_failures(pm, 200, 0)} == {"1b"}


def test_lifted_failure_witnesses_replay():
    bad = PrincipalMapPair(LEFT_H, RIGHT_H, PM_ALPHA, dict(PM_GAMMA, vice="dean"))
    report = check_lifted_connection(bad, samples=0, seed=0)
    assert report.failures == (("1b", "{uni_dean:} <= {vice:}"), ("2b", "{vice:}"),
                               ("3b", "{vice:}"))
    replayed = 0
    for name, case in [("broken-gamma", bad), *_lifted_cases()[3:]]:
        for prop, witness in check_lifted_connection(case, 0, 0).failures:
            assert _replays(case, prop, witness), (name, prop, witness)
            replayed += 1
    assert replayed > 300


def test_lifted_check_needs_total_maps():
    partial = dict(PM_GAMMA)
    del partial["vice"]
    with pytest.raises(PartialMap):
        check_lifted_connection(PrincipalMapPair(LEFT_H, RIGHT_H, PM_ALPHA, partial), 10, 0)
