"""Round trips of the load, parse and serialize paths on generated inputs,
through JSON text where the value is stored as a document."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sifc.dlm import (Label, Policy, PrincipalsHierarchy, format_label,
                      parse_label)
from sifc.flowlang import StorePair, store_pair_from_dict, store_pair_to_dict
from sifc.lattice import Lattice, build_lattice

from gen import random_lattice_exact

CLASS_NAMES = st.from_regex(r"[A-Za-z0-9_()+-]{1,6}", fullmatch=True)
PRINCIPAL_NAMES = st.from_regex(r"[A-Za-z0-9_]{1,5}", fullmatch=True)


def _via_json(doc):
    return json.loads(json.dumps(doc))


@st.composite
def lattices(draw):
    """A random lattice shape with arbitrary class names and display name."""
    names = draw(st.lists(CLASS_NAMES, min_size=1, max_size=8, unique=True))
    shape = random_lattice_exact(random.Random(draw(st.integers(0, 2 ** 32))), len(names))
    rename = dict(zip(shape.classes, names))
    return build_lattice(draw(st.text(max_size=8)), [rename[c] for c in shape.classes],
                         [(rename[a], rename[b]) for a, b in shape.covers])


@settings(max_examples=100, deadline=None)
@given(lattices())
def test_lattice_round_trip(lat):
    again = Lattice.from_dict(_via_json(lat.to_dict()))
    assert again == lat
    assert (again.name, again.classes, again.covers) == (lat.name, lat.classes, lat.covers)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hierarchy_round_trip(data):
    names = data.draw(st.lists(PRINCIPAL_NAMES, max_size=6, unique=True))
    pool = names + ["TOP", "BOT"]
    edges = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                               max_size=8))
    h = PrincipalsHierarchy(names, edges)
    again = PrincipalsHierarchy.from_dict(_via_json(h.to_dict()))
    assert set(again.principals) == set(h.principals)
    assert all(again.acts_for(p, q) == h.acts_for(p, q)
               for p in h.principals for q in h.principals)


@settings(max_examples=100, deadline=None)
@given(st.builds(StorePair, *[st.dictionaries(st.text(max_size=6), st.integers())] * 2))
def test_store_round_trip(store):
    assert store_pair_from_dict(_via_json(store_pair_to_dict(store))) == store


POLICIES = st.builds(Policy, PRINCIPAL_NAMES,
                     st.frozensets(PRINCIPAL_NAMES, max_size=3))


@settings(max_examples=100, deadline=None)
@given(st.builds(Label, st.frozensets(POLICIES, max_size=4)))
def test_label_round_trip(label):
    assert parse_label(format_label(label)) == label
