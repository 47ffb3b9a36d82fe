"""Definition-level decentralized-label oracle.

Labels are lists of (owner, readers) pairs.  The relabeling rule is read
straight off its definition (Myers and Liskov): L1 may be relabeled to L2
iff every policy i of L1 is matched by some policy j of L2 whose owner acts
for i's owner and each of whose effective readers acts for some effective
reader of i.  Nothing here calls into `sifc`.
"""

from __future__ import annotations

Label = list[tuple[str, list[str]]]


def acts_for_closure(doc: dict) -> dict[str, set[str]]:
    """p -> every principal p acts for, from a hierarchy document; TOP acts
    for everyone and everyone acts for BOT."""
    names = list(doc["principals"]) + [p for p in ("TOP", "BOT")
                                        if p not in doc["principals"]]
    succ = {p: {q for a, q in doc["acts_for"] if a == p} | {p, "BOT"} for p in names}
    succ["TOP"] |= set(names)
    closure = {}
    for p in names:
        seen, todo = {p}, [p]
        while todo:
            for q in succ[todo.pop()]:
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        closure[p] = seen
    return closure


def label_leq(acts: dict[str, set[str]], l1: Label, l2: Label) -> bool:
    def subsumes(j, i) -> bool:
        (oj, rj), (oi, ri) = j, i
        eff_i = set(ri) | {oi}
        return oi in acts[oj] and all(acts[r] & eff_i for r in set(rj) | {oj})

    return all(any(subsumes(j, i) for j in l2) for i in l1)


def declassify(acts: dict[str, set[str]], authority: list[str],
               l1: Label, l2: Label) -> bool:
    return label_leq(acts, l1, l2 + [(p, []) for p in authority])


def lift(table: dict[str, str], label: Label) -> Label:
    return [(table[o], [table[r] for r in rs]) for o, rs in label]
