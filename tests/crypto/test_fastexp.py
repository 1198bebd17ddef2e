"""Fixed-base comb exponentiation: Python comb, native comb, g_pow, h_pow.

Every path must compute exactly ``pow(G, e, P)`` (or ``pow(H, e, P)``)
-- the combs are the hottest operations in the scaled kernel and any
divergence would corrupt every signature, key and VRF credential in a
run.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastexp, group
from repro.crypto.fastexp import FixedBaseComb, g_pow, h_pow
from repro.crypto.native import load_native_comb

# deterministic spread: boundaries plus a multiplicative orbit in Z_Q.
# 0, 256 and 2**160 have a zero lowest window (the native comb starts
# its accumulator there); 2**168 - 1 has every window 0xff.
EXPONENTS = [0, 1, 2, 255, 256, 257, 1 << 160, (1 << 168) - 1, group.Q - 1, group.Q // 2] + [
    pow(1000003, i, group.Q) for i in range(1, 6)
]


class TestFixedBaseComb:
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_matches_builtin_pow(self, exponent):
        comb = FixedBaseComb(group.G, group.P)
        assert comb.pow(exponent) == pow(group.G, exponent, group.P)

    @pytest.mark.parametrize("window_bits", [4, 8])
    def test_window_width_does_not_change_results(self, window_bits):
        comb = FixedBaseComb(group.G, group.P, window_bits=window_bits)
        for exponent in EXPONENTS:
            assert comb.pow(exponent) == pow(group.G, exponent, group.P)

    def test_arbitrary_base(self):
        base = pow(group.G, 12345, group.P)
        comb = FixedBaseComb(base, group.P)
        assert comb.pow(6789) == pow(base, 6789, group.P)

    def test_negative_exponent_rejected(self):
        comb = FixedBaseComb(group.G, group.P)
        with pytest.raises(ValueError):
            comb.pow(-1)

    def test_exponent_beyond_comb_width_rejected(self):
        comb = FixedBaseComb(group.G, group.P, max_exponent_bits=16)
        with pytest.raises(ValueError):
            comb.pow(1 << 17)


class TestNativeComb:
    """The OpenSSL-backed comb on ``G``, when the host toolchain can build it.

    Skipped (not failed) where no compiler or headers exist -- the
    kernel falls back to the Python comb there, which the tests above
    already pin.  CI fails instead if the combs it serves are not
    native.
    """

    base = group.G

    @pytest.fixture(scope="class")
    def native(self):
        comb = load_native_comb(self.base, group.P)
        if comb is None:
            pytest.skip("native comb unavailable on this host")
        return comb

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_matches_builtin_pow(self, native, exponent):
        assert native.pow(exponent) == pow(self.base, exponent, group.P)

    def test_negative_exponent_rejected(self, native):
        with pytest.raises(ValueError):
            native.pow(-1)

    def test_exponent_beyond_comb_width_rejected(self, native):
        with pytest.raises(ValueError):
            native.pow(1 << 168)

    @pytest.mark.parametrize("exponent", [1.0, "1", None])
    def test_non_int_exponent_rejected(self, native, exponent):
        with pytest.raises(TypeError):
            native.pow(exponent)


class TestNativeCombH(TestNativeComb):
    """The same kernel checks on the ``H`` comb."""

    base = group.H


@pytest.fixture(scope="module")
def native_combs():
    combs = [load_native_comb(base, group.P) for base in (group.G, group.H)]
    if None in combs:
        pytest.skip("native comb unavailable on this host")
    return dict(zip((group.G, group.H), combs))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 168) - 1))
def test_native_combs_match_builtin_pow(native_combs, exponent):
    for base, comb in native_combs.items():
        assert comb.pow(exponent) == pow(base, exponent, group.P)


def test_shared_combs_from_threads():
    """Four threads, each calling g_pow and h_pow on the shared combs.

    The native comb takes no lock: each call holds the GIL throughout,
    so calls on one comb's BN_CTX cannot interleave.  A tiny switch
    interval makes the threads swap between calls; every result is
    checked.
    """
    distinct = [pow(1000003, i, group.Q) for i in range(1, 101)]
    exponents = distinct * 20
    expected = [(pow(group.G, e, group.P), pow(group.H, e, group.P)) for e in distinct] * 20

    def run(order):
        return [(g_pow(e), h_pow(e)) for e in exponents[::order]][::order]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, (1, -1, 1, -1), timeout=120))
    finally:
        sys.setswitchinterval(previous)
    assert results == [expected] * 4


class _FakeNativeComb:
    """A stand-in native comb: builtin ``pow``, wrong on one exponent."""

    def __init__(self, base, wrong_at=None):
        self.base = base
        self.wrong_at = wrong_at

    def pow(self, exponent):
        value = pow(self.base, exponent, group.P)
        return value + 1 if exponent == self.wrong_at else value


class TestMakeComb:
    """``_make_comb``'s three outcomes, with ``load_native_comb`` stubbed."""

    @pytest.fixture
    def built_python_combs(self, monkeypatch):
        built = []

        class CountingComb(FixedBaseComb):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fastexp, "FixedBaseComb", CountingComb)
        return built

    def test_native_comb_passing_every_probe_is_used(self, monkeypatch, built_python_combs):
        fake = _FakeNativeComb(group.G)
        monkeypatch.setattr("repro.crypto.native.load_native_comb", lambda base, modulus: fake)
        assert fastexp._make_comb(group.G) is fake
        assert built_python_combs == []

    def test_native_comb_wrong_on_one_probe_falls_back(self, monkeypatch, built_python_combs):
        fake = _FakeNativeComb(group.G, wrong_at=group.Q // 2)
        monkeypatch.setattr("repro.crypto.native.load_native_comb", lambda base, modulus: fake)
        comb = fastexp._make_comb(group.G)
        assert built_python_combs == [comb]
        assert comb.pow(group.Q // 2) == pow(group.G, group.Q // 2, group.P)

    @pytest.mark.parametrize("probe", range(13))
    @pytest.mark.parametrize("base", [group.G, group.H], ids=["G", "H"])
    def test_native_comb_wrong_on_any_probe_falls_back(self, monkeypatch, built_python_combs, base, probe):
        exponent, expected = fastexp._probes(base)[probe]
        assert expected == pow(base, exponent, group.P)  # the cheap derivation is the ground truth
        fake = _FakeNativeComb(base, wrong_at=exponent)
        monkeypatch.setattr("repro.crypto.native.load_native_comb", lambda base, modulus: fake)
        comb = fastexp._make_comb(base)
        assert built_python_combs == [comb]

    def test_native_comb_of_the_wrong_base_falls_back(self, monkeypatch, built_python_combs):
        fake = _FakeNativeComb(group.G)
        monkeypatch.setattr("repro.crypto.native.load_native_comb", lambda base, modulus: fake)
        comb = fastexp._make_comb(group.H)
        assert built_python_combs == [comb]
        assert comb.pow(12345) == pow(group.H, 12345, group.P)

    def test_probes_are_the_thirteen_exponents(self):
        exponents = [exponent for exponent, _ in fastexp._probes(group.G)]
        orbit = [pow(1000003, i, group.Q) for i in range(1, 9)]
        assert exponents == [0, 1, 2, group.Q - 1, group.Q // 2, *orbit]

    def test_no_native_comb_gives_the_python_comb(self, monkeypatch, built_python_combs):
        monkeypatch.setattr("repro.crypto.native.load_native_comb", lambda base, modulus: None)
        comb = fastexp._make_comb(group.H)
        assert built_python_combs == [comb]
        assert comb.pow(12345) == pow(group.H, 12345, group.P)


class TestGPow:
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_drop_in_for_pow(self, exponent):
        assert g_pow(exponent) == pow(group.G, exponent, group.P)

    def test_reduces_modulo_subgroup_order(self):
        # G has order Q, so reducing the exponent mod Q is invisible
        assert g_pow(group.Q + 5) == pow(group.G, 5, group.P)


# boundaries for the H comb; the properties below add a random spread
H_EXPONENTS = [0, 1, group.Q - 1, group.Q // 2]
_exponents = st.integers(min_value=0, max_value=group.Q - 1)


class TestHComb:
    """The second shared comb, on ``H``: same contract as ``G``'s."""

    @pytest.fixture(scope="class")
    def python_comb(self):
        return FixedBaseComb(group.H, group.P)

    @pytest.fixture(scope="class")
    def native_comb(self):
        comb = load_native_comb(group.H, group.P)
        if comb is None:
            pytest.skip("native comb unavailable on this host")
        return comb

    @pytest.mark.parametrize("exponent", H_EXPONENTS)
    def test_python_comb_matches_builtin_pow(self, python_comb, exponent):
        assert python_comb.pow(exponent) == pow(group.H, exponent, group.P)

    @pytest.mark.parametrize("exponent", H_EXPONENTS)
    def test_native_comb_matches_builtin_pow(self, native_comb, exponent):
        assert native_comb.pow(exponent) == pow(group.H, exponent, group.P)

    @pytest.mark.parametrize("exponent", H_EXPONENTS)
    def test_h_pow_drop_in_for_pow(self, exponent):
        assert h_pow(exponent) == pow(group.H, exponent, group.P)

    @settings(max_examples=25, deadline=None)
    @given(_exponents)
    def test_property_python_comb_and_h_pow(self, python_comb, exponent):
        expected = pow(group.H, exponent, group.P)
        assert python_comb.pow(exponent) == expected
        assert h_pow(exponent) == expected

    @settings(max_examples=25, deadline=None)
    @given(_exponents)
    def test_property_native_comb(self, native_comb, exponent):
        assert native_comb.pow(exponent) == pow(group.H, exponent, group.P)

    def test_h_pow_reduces_modulo_subgroup_order(self):
        assert h_pow(group.Q + 5) == pow(group.H, 5, group.P)


class TestHashToExponent:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=64))
    def test_hash_to_group_is_h_to_the_exponent(self, message):
        exponent = group.hash_to_exponent(message)
        assert 0 < exponent < group.Q
        assert h_pow(exponent) == pow(group.H, exponent, group.P)
