"""Shared hypothesis strategies: small random normalized instances."""

from hypothesis import assume
from hypothesis import strategies as st

from egalpof import Allocation, normalize_instance


@st.composite
def instances(draw, min_n=2, max_n=3, min_m=1, max_m=5, max_value=9, repeat_columns=False):
    """With `repeat_columns`, every good's column (all agents' values for
    it) is one of 2-3 distinct columns, in any order, so goods of one class
    of identical goods need not be adjacent."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_m, max_m))
    if repeat_columns:
        column = st.tuples(*[st.integers(0, max_value)] * n)
        pool = draw(st.lists(column, min_size=2, max_size=3, unique=True))
        columns = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        rows = [list(row) for row in zip(*columns)]
        assume(all(map(any, rows)))
    else:
        rows = [
            draw(
                st.lists(st.integers(0, max_value), min_size=m, max_size=m).filter(any)
            )
            for _ in range(n)
        ]
    return normalize_instance(rows)


@st.composite
def instances_with_allocation(draw, **kwargs):
    inst = draw(instances(**kwargs))
    owner = tuple(draw(st.integers(1, inst.n)) for _ in range(inst.m))
    return inst, Allocation(inst.n, owner)
