"""Answer oracles that share no code with the planner or the executor.

Each oracle counts, straight from the generated rows, how often every
projected value occurs in a query's answer, and returns that multiset
as a ``Counter`` of row tuples.  They rely on the queries' shape (which
predicates join which aliases), never on a join algorithm: a full
theta-join is never materialised, so they stay fast at benchmark sizes
for any seed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

Row = Tuple[int, ...]


def _columns(relation, *names: str) -> List[int]:
    schema_names = list(relation.schema.names)
    return [schema_names.index(name) for name in names]


def concurrent_calls(calls, same_station: bool) -> Counter:
    """Mobile Q1 (``same_station``) or Q2: the multiset of ``t3.id``.

    t1 and t2 are concurrent calls of one day (``t1.bt <= t2.bt``,
    ``t1.l >= t2.l``); t3 is a call of that day at the same (Q1) or a
    different (Q2) station as t2.  So every t3 occurs once per matching
    (t1, t2) pair whose t2 sits on its day at an allowed station.
    """
    uid, day, begin, length, station = _columns(calls, "id", "d", "bt", "l", "bsc")
    by_day: Dict[int, List[Sequence[int]]] = defaultdict(list)
    for row in calls:
        by_day[row[day]].append(row)
    answer: Counter = Counter()
    for rows in by_day.values():
        pairs_at_station: Counter = Counter()
        for t2 in rows:
            pairs_at_station[t2[station]] += sum(
                1 for t1 in rows if t1[begin] <= t2[begin] and t1[length] >= t2[length]
            )
        pairs_that_day = sum(pairs_at_station.values())
        for t3 in rows:
            same = pairs_at_station[t3[station]]
            weight = same if same_station else pairs_that_day - same
            if weight:
                answer[(t3[uid],)] += weight
    return answer


def three_day_chains(calls, same_station: bool) -> Counter:
    """Mobile Q3 (``same_station``) or Q4: the multiset of ``t1.id``.

    t1, t2, t3 are calls of one user on strictly increasing days within
    ``t1.d + 3``; t4 is any call on t1's day at the same (Q3) or a
    different (Q4) station as t1.
    """
    uid, day, station = _columns(calls, "id", "d", "bsc")
    days_by_user: Dict[int, List[int]] = defaultdict(list)
    calls_on_day: Counter = Counter()
    calls_at_station: Counter = Counter()
    for row in calls:
        days_by_user[row[uid]].append(row[day])
        calls_on_day[row[day]] += 1
        calls_at_station[(row[day], row[station])] += 1
    answer: Counter = Counter()
    for t1 in calls:
        start = t1[day]
        later = [d for d in days_by_user[t1[uid]] if start < d < start + 3]
        chains = sum(1 for d2 in later for d3 in later if d2 < d3)
        if not chains:
            continue
        same = calls_at_station[(start, t1[station])]
        partners = same if same_station else calls_on_day[start] - same
        if partners:
            answer[(t1[uid],)] += chains * partners
    return answer


def orders_shipped_after(customer, orders, lineitem) -> Counter:
    """TPC-H customer-orders-lineitem, shipped after the order date.

    ``c.custkey = o.custkey AND l.orderkey = o.orderkey AND
    o.orderdate < l.shipdate``, projected on ``(l.orderkey,
    o.orderdate)``.
    """
    (c_key,) = _columns(customer, "custkey")
    o_key, o_cust, o_date = _columns(orders, "orderkey", "custkey", "orderdate")
    l_key, l_ship = _columns(lineitem, "orderkey", "shipdate")
    customers = Counter(row[c_key] for row in customer)
    ships: Dict[int, List[int]] = defaultdict(list)
    for row in lineitem:
        ships[row[l_key]].append(row[l_ship])
    answer: Counter = Counter()
    for order in orders:
        owners = customers[order[o_cust]]
        if not owners:
            continue
        for ship in ships[order[o_key]]:
            if order[o_date] < ship:
                answer[(order[o_key], order[o_date])] += owners
    return answer


def as_multiset(rows: Iterable[Sequence[object]]) -> Counter:
    """An answer's rows as a multiset of tuples (wire rows may be lists)."""
    return Counter(tuple(row) for row in rows)
