"""sifc's records behave as the dataclasses they replaced.  Each record is
compared with a frozen `@dataclass` twin built from its own field tuple, on
seeded instances from the generators and the fixtures: repr, `==` and `!=`
within and across classes, hash or the TypeError it raises, the TypeError of
ordering, assignment and deletion, copies, and the verdict's fresh list."""

import copy
import dataclasses
import operator
import pickle
import random
import sys
from itertools import product

import pytest

from sifc import cli, connection, dlm, flowlang
from sifc.lattice import Record

import fixtures as fx
from gen import random_connection, random_expr, random_lattice, random_monotone_map, random_phrase

RECORDS = [c for m in (connection, dlm, flowlang, cli) for c in vars(m).values()
           if isinstance(c, type) and issubclass(c, Record) and c.__module__ == m.__name__]

# What each class says besides its fields, as dataclass field specifications.
SPECS = {cli.Verdict: {"lines": dataclasses.field(default_factory=list)},
         flowlang.Program: {"env": dataclasses.field(init=False, repr=False, compare=False)}}
OWN_REPR = {connection.LagoisConnection}


def twin(cls):
    """A frozen dataclass with the record's fields, in order."""
    specs = SPECS.get(cls, {})
    names = dict.fromkeys([*cls.__match_args__, *specs])
    return dataclasses.make_dataclass(
        cls.__name__, [(n, object, specs[n]) if n in specs else (n, object) for n in names],
        namespace={"__repr__": cls.__repr__} if cls in OWN_REPR else None, frozen=True)


def values(x) -> list:
    return [getattr(x, n) for n in x.__match_args__]


def outcome(fn, *args):
    """fn's value, or the type and message of the TypeError or AttributeError it raises."""
    try:
        return "ok", fn(*args)
    except (TypeError, AttributeError) as exc:
        return AttributeError if isinstance(exc, AttributeError) else TypeError, str(exc)


def samples(seed: int) -> dict[type, list]:
    """A few instances of each record, built by the library from seeded inputs."""
    rng = random.Random(seed)
    cu, pm = fx.college_university(), fx.principal_map_pair()
    conns = [random_connection(rng, max_classes=5) for _ in range(3)]
    lats = [random_lattice(rng, max_classes=4) for _ in range(4)]
    maps = [(a, b, random_monotone_map(rng, a, b), random_monotone_map(rng, b, a))
            for a, b in zip(lats[::2], lats[1::2])]
    decls = fx.ni_decls()
    progs = [flowlang.gen_well_typed(decls, cu, n, seed) for n in (0, 3, 6)]
    pairs = flowlang.adversary_pairs(cu)
    labels = [dlm.random_label(rng, pm.left.principals) for _ in range(8)]
    phrases = [random_phrase(rng, decls) for _ in range(60)]
    exprs = [random_expr(rng, ["a", "b"]) for _ in range(8)]
    out = {
        connection.Violation: [v for m in maps for v in connection.connection_violations(*m)],
        connection.LagoisConnection: [cu, cu.transpose(), *conns],
        connection.TightnessReport: [connection.check_tightness(c) for c in conns],
        connection.Composition: [connection.compose(c, connection.identity_connection(c.right))
                                 for c in conns],
        connection.Decomposition: [connection.decompose(c) for c in conns[:2]],
        dlm.Policy: [p for label in labels for p in label.policies],
        dlm.Label: labels,
        dlm.PrincipalMapPair: [pm, fx.principal_map_pair()],
        dlm.LiftedReport: [dlm.check_lifted_connection(pm, n, seed) for n in (3, 10)],
        dlm.CrossDeclassifyResult: [
            dlm.cross_declassify_check(pm, ["fac"], ["uni_fac"], dlm.Label.of(dlm.policy("fac")),
                                       dlm.Label.empty()),
            dlm.cross_declassify_check(pm, [], [], dlm.Label.of(dlm.policy("fac")),
                                       dlm.Label.empty())],
        flowlang.Const: [*(e for e in exprs if isinstance(e, flowlang.Const)),
                         flowlang.Const(seed)],
        flowlang.Var: [flowlang.Var("a"), flowlang.Var("b")],
        flowlang.Add: [e for e in exprs if isinstance(e, flowlang.Add)],
        flowlang.VarDecl: list(decls[:4]),
        flowlang.PhraseType: [flowlang.typecheck(p, cu) for p in progs],
        flowlang.StorePair: list(flowlang.draw_store_pairs(progs[2], cu, pairs[seed], seed)),
        flowlang.Program: [*progs, flowlang.Program(decls, tuple(phrases[:5]))],
        flowlang.NiTrialResult: [flowlang.ni_trial(progs[2], cu, pair, seed, keep)
                                 for pair, keep in zip(pairs, (False, True, True))],
        flowlang.NiSuiteReport: [flowlang.run_ni_suite(decls, cu, n, 4, seed, draws=1)
                                for n in (1, 2)],
        cli.Verdict: [cli.cli_dispatch(["check-lattice", str(fx.ROOT / "fixtures" / name)])
                      for name in ("college.json", "university.json")] + [cli.Verdict({}, [{}])],
    }
    for cls in (flowlang.Txn, flowlang.Rd, flowlang.Wr, flowlang.Trl, flowlang.Tlr):
        out[cls] = [p for p in phrases if type(p) is cls][:6]
    return out


def test_there_are_25_records_and_each_has_samples():
    assert len(RECORDS) == 25
    assert all(len(xs) >= 2 for xs in samples(0).values())
    assert set(samples(0)) == set(RECORDS)


@pytest.mark.parametrize("seed", range(3))
def test_records_behave_as_their_dataclass_twins(seed):
    for cls, xs in samples(seed).items():
        twin_cls = twin(cls)
        assert twin_cls.__match_args__ == cls.__match_args__
        xs = xs + [cls(*values(x)) for x in xs]  # equal, not identical
        ts = [twin_cls(*values(x)) for x in xs]
        for x, t in zip(xs, ts):
            assert repr(x) == repr(t)
            assert outcome(hash, x) == outcome(hash, t)
            for again, twin_again in ((copy.copy(x), copy.copy(t)),
                                      (copy.deepcopy(x), copy.deepcopy(t))):
                assert type(again) is cls and repr(again) == repr(twin_again)
                assert (again == x, again is x) == (twin_again == t, twin_again is t)
            pickled = pickle.loads(pickle.dumps(x))  # a twin has no importable name
            assert type(pickled) is cls and (pickled == x) == (copy.deepcopy(x) == x)
            for name in cls.__match_args__:
                assert outcome(setattr, x, name, 0) == outcome(setattr, t, name, 0)
                assert outcome(delattr, x, name) == outcome(delattr, t, name)
        for (x, t), (y, u) in product(zip(xs, ts), repeat=2):
            assert (x == y, x != y) == (t == u, t != u)
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert outcome(op, x, y) == outcome(op, t, u)


def test_records_of_different_classes_are_never_equal():
    f = flowlang
    for a, b in ((f.Rd("L", "a", "b"), f.Wr("L", "a", "b")), (f.Trl("y", "x"), f.Tlr("y", "x")),
                 (f.PhraseType("a", "b"), f.StorePair("a", "b"))):
        ta, tb = twin(type(a))(*values(a)), twin(type(b))(*values(b))
        for x, y in ((a, b), (ta, tb)):
            assert (x == y, x != y, x == "a", x.__eq__(y)) == (False, True, False, NotImplemented)
    policy = dlm.policy("o")
    assert outcome(lambda: policy < 1) == outcome(lambda: twin(dlm.Policy)("o", frozenset()) < 1)


def test_defaults_and_fresh_lists():
    fields = (True, ("a", "b"), 1, None)  # no defaults: both raise the same TypeError
    assert (outcome(flowlang.NiTrialResult, *fields)
            == outcome(twin(flowlang.NiTrialResult), *fields))
    first, second = cli.Verdict({}), cli.Verdict({})
    assert first.lines == [] and first.lines is not second.lines
    assert repr(first) == repr(twin(cli.Verdict)({}))


def test_custom_and_hidden_fields_stay_out_of_repr_and_equality():
    cu = fx.college_university()
    assert repr(cu) == "LagoisConnection(College <-> University, 4 budpoint pairs)"
    prog = flowlang.Program(fx.ni_decls(), ())
    assert set(prog.env) == {d.name for d in fx.ni_decls()} and "env" not in repr(prog)
    pm = fx.principal_map_pair()
    fresh = dlm.PrincipalMapPair(*values(pm))
    shown = repr(pm)
    assert "_through" not in vars(pm)
    dlm.cross_declassify_check(pm, ["fac"], ["uni_fac"], dlm.Label.of(dlm.policy("fac")),
                               dlm.Label.empty())
    built = vars(pm)["_through"]
    dlm.cross_declassify_check(pm, [], [], dlm.Label.of(dlm.policy("fac")), dlm.Label.empty())
    assert vars(pm)["_through"] is built and set(built) == {"lr", "rl"}
    assert repr(pm) == shown and pm == fresh
    assert outcome(hash, pm) == (TypeError, "unhashable type: 'dict'")


def test_repr_and_hash_reach_as_deep_as_equality():
    def chain(depth):
        e = flowlang.Const(0)
        for _ in range(depth):
            e = flowlang.Add(e, flowlang.Var("x"))
        return e

    def handles(fn, depth) -> bool:
        try:
            fn(chain(depth), chain(depth))
            return True
        except RecursionError:
            return False

    low, high = 1, sys.getrecursionlimit()  # == handles low and not high
    assert handles(operator.eq, low) and not handles(operator.eq, high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if handles(operator.eq, mid) else (low, mid)
    assert handles(lambda a, _: repr(a), low) and handles(lambda a, _: hash(a), low)
