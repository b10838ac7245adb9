"""RAA counter semantics (DDR5 RFM interface)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.rfm import RaaCounterBank
from repro.dram.device import BankAddress

A = BankAddress(0, 0, 0)
B = BankAddress(0, 0, 1)


def test_threshold_detection():
    raa = RaaCounterBank(raaimt=4)
    for _ in range(3):
        raa.on_activate(A)
    assert not raa.rfm_needed(A)
    raa.on_activate(A)
    assert raa.rfm_needed(A)
    assert raa.banks_needing_rfm() == [A]


def test_rfm_subtracts_raaimt():
    raa = RaaCounterBank(raaimt=4)
    for _ in range(6):
        raa.on_activate(A)
    raa.on_rfm(A)
    assert raa.count(A) == 2
    assert raa.rfms_issued == 1


def test_rfm_below_threshold_rejected():
    raa = RaaCounterBank(raaimt=4)
    raa.on_activate(A)
    with pytest.raises(RuntimeError):
        raa.on_rfm(A)


def test_ref_credits_counter():
    raa = RaaCounterBank(raaimt=8)
    for _ in range(5):
        raa.on_activate(A)
    raa.on_ref(A)
    assert raa.count(A) == 0  # floor at zero


def test_custom_ref_credit():
    raa = RaaCounterBank(raaimt=8, ref_credit=2)
    for _ in range(5):
        raa.on_activate(A)
    raa.on_ref(A)
    assert raa.count(A) == 3


def test_banks_independent():
    raa = RaaCounterBank(raaimt=2)
    raa.on_activate(A)
    raa.on_activate(A)
    raa.on_activate(B)
    assert raa.rfm_needed(A)
    assert not raa.rfm_needed(B)


def test_validation():
    with pytest.raises(ValueError):
        RaaCounterBank(raaimt=0)
    with pytest.raises(ValueError):
        RaaCounterBank(raaimt=4, ref_credit=-1)


# -- the incrementally kept due set against a brute-force model ---------------

BANKS = [BankAddress(ch, rk, bk) for ch in range(2) for rk in range(2)
         for bk in range(3)]
_op = st.tuples(st.sampled_from(["act", "act", "act", "rfm", "ref"]),
                st.sampled_from(BANKS))


@given(raaimt=st.integers(1, 6), ref_credit=st.integers(0, 8),
       ops=st.lists(_op, max_size=120))
@settings(max_examples=150, deadline=None)
def test_due_set_matches_first_touch_filter(raaimt, ref_credit, ops):
    raa = RaaCounterBank(raaimt=raaimt, ref_credit=ref_credit)
    model = {}  # bank -> count, in first-touch (insertion) order
    for kind, addr in ops:
        if kind == "act":
            model[addr] = model.get(addr, 0) + 1
            raa.on_activate(addr)
        elif kind == "ref":
            # A REF touches every bank of the rank, activated or not.
            model[addr] = max(0, model.get(addr, 0) - ref_credit)
            raa.on_ref(addr)
        elif model.get(addr, 0) >= raaimt:
            model[addr] -= raaimt
            raa.on_rfm(addr)
        else:
            with pytest.raises(RuntimeError):
                raa.on_rfm(addr)
        expected = [a for a, c in model.items() if c >= raaimt]
        assert raa.banks_needing_rfm() == expected
        assert raa.due_count == len(expected)
        for a in BANKS:
            assert raa.rfm_needed(a) == (a in expected)
            assert raa.count(a) == model.get(a, 0)
