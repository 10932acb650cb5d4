"""Tests for DH, WEP, ESP, CRC-32 and farm session keying."""

import binascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import Aes
from repro.crypto.crc import crc32
from repro.crypto.dh import (DiffieHellman, DhGroup, OAKLEY_GROUP1,
                             generate_group, validate_group)
from repro.crypto.modexp import ModExpConfig
from repro.mp import DeterministicPrng, Mpz, hooks
from repro.protocols.builtin import farm_session, session_id_for_client
from repro.protocols.esp import EspError, EspSecurityAssociation
from repro.protocols.wep import WepError, WepPeer
from repro.ssl.session_cache import SessionCache


class TestCrc32:
    @given(st.binary(max_size=300))
    def test_matches_binascii(self, data):
        assert crc32(data) == binascii.crc32(data)

    def test_incremental(self):
        assert crc32(b"world", crc32(b"hello ")) == crc32(b"hello world")

    def test_known_vector(self):
        assert crc32(b"123456789") == 0xCBF43926


class TestDiffieHellman:
    @pytest.fixture(scope="class")
    def group(self):
        # A small safe-prime group so tests stay fast.
        return generate_group(48, DeterministicPrng(31))

    def test_agreement(self, group):
        alice = DiffieHellman(group, prng=DeterministicPrng(1))
        bob = DiffieHellman(group, prng=DeterministicPrng(2))
        assert int(alice.shared_secret(bob.public)) == \
            int(bob.shared_secret(alice.public))

    def test_distinct_privates_distinct_publics(self, group):
        a = DiffieHellman(group, prng=DeterministicPrng(1))
        b = DiffieHellman(group, prng=DeterministicPrng(2))
        assert int(a.public) != int(b.public)

    def test_peer_value_validated(self, group):
        alice = DiffieHellman(group, prng=DeterministicPrng(1))
        with pytest.raises(ValueError):
            alice.shared_secret(Mpz(1))
        with pytest.raises(ValueError):
            alice.shared_secret(group.p - 1)

    def test_group_validation(self, group):
        assert validate_group(group)
        assert not validate_group(DhGroup(p=Mpz(15), g=Mpz(2)))

    def test_oakley_group1_is_valid(self):
        assert OAKLEY_GROUP1.bits == 768
        assert validate_group(OAKLEY_GROUP1, rounds=4)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            DiffieHellman(DhGroup(p=Mpz(16), g=Mpz(2)))

    def test_agreement_across_configs(self, group):
        """Different modexp configurations must agree on the secret."""
        a = DiffieHellman(group, ModExpConfig(modmul="barrett", window=2),
                          prng=DeterministicPrng(5))
        b = DiffieHellman(group, ModExpConfig(modmul="montgomery", window=5,
                                              caching="full"),
                          prng=DeterministicPrng(6))
        assert int(a.shared_secret(b.public)) == \
            int(b.shared_secret(a.public))


class TestWep:
    KEY = b"\x01\x02\x03\x04\x05"

    def test_roundtrip(self):
        sender = WepPeer(self.KEY, DeterministicPrng(1))
        receiver = WepPeer(self.KEY)
        frame = sender.seal(b"802.11 payload")
        assert receiver.open(frame) == b"802.11 payload"

    def test_wep104(self):
        key = bytes(range(13))
        frame = WepPeer(key, DeterministicPrng(2)).seal(b"data")
        assert WepPeer(key).open(frame) == b"data"

    def test_bad_key_length(self):
        with pytest.raises(WepError):
            WepPeer(b"\x00" * 7)

    def test_tampering_detected(self):
        sender = WepPeer(self.KEY, DeterministicPrng(1))
        frame = bytearray(sender.seal(b"payload!"))
        frame[6] ^= 0x40
        with pytest.raises(WepError):
            WepPeer(self.KEY).open(bytes(frame))

    def test_short_frame(self):
        with pytest.raises(WepError):
            WepPeer(self.KEY).open(b"\x00\x00\x00\x00")

    def test_iv_varies_per_frame(self):
        sender = WepPeer(self.KEY, DeterministicPrng(1))
        f1 = sender.seal(b"same")
        f2 = sender.seal(b"same")
        assert f1[:3] != f2[:3]
        assert f1[4:] != f2[4:]

    def test_keystream_reuse_weakness(self):
        """WEP's defining flaw: a repeated IV leaks the XOR of the
        plaintexts -- demonstrable, not just folklore."""
        sender = WepPeer(self.KEY)
        iv = b"\x00\x00\x01"
        p1, p2 = b"ATTACK AT DAWN!!", b"RETREAT AT DUSK!"
        c1 = sender.seal(p1, iv=iv)[4:]
        c2 = sender.seal(p2, iv=iv)[4:]
        xor_ct = bytes(a ^ b for a, b in zip(c1[:16], c2[:16]))
        xor_pt = bytes(a ^ b for a, b in zip(p1, p2))
        assert xor_ct == xor_pt


class TestEsp:
    def _pair(self):
        cipher_key = bytes(range(16))
        auth = b"auth-key"
        out_sa = EspSecurityAssociation(0x1001, Aes(cipher_key), auth,
                                        DeterministicPrng(1))
        in_sa = EspSecurityAssociation(0x1001, Aes(cipher_key), auth)
        return out_sa, in_sa

    def test_roundtrip(self):
        out_sa, in_sa = self._pair()
        packet = out_sa.seal(b"inner IP datagram")
        assert in_sa.open(packet) == b"inner IP datagram"

    @settings(max_examples=10)
    @given(payload=st.binary(max_size=200))
    def test_roundtrip_property(self, payload):
        out_sa, in_sa = self._pair()
        assert in_sa.open(out_sa.seal(payload)) == payload

    def test_replay_rejected(self):
        out_sa, in_sa = self._pair()
        packet = out_sa.seal(b"once")
        in_sa.open(packet)
        with pytest.raises(EspError, match="replay"):
            in_sa.open(packet)

    def test_out_of_order_within_window_ok(self):
        out_sa, in_sa = self._pair()
        p1 = out_sa.seal(b"one")
        p2 = out_sa.seal(b"two")
        assert in_sa.open(p2) == b"two"
        assert in_sa.open(p1) == b"one"  # late but inside the window

    def test_too_old_rejected(self):
        out_sa, in_sa = self._pair()
        first = out_sa.seal(b"ancient")
        for i in range(70):
            in_sa.open(out_sa.seal(b"filler %d" % i))
        with pytest.raises(EspError, match="old"):
            in_sa.open(first)

    def test_tampering_detected(self):
        out_sa, in_sa = self._pair()
        packet = bytearray(out_sa.seal(b"payload"))
        packet[10] ^= 1
        with pytest.raises(EspError, match="ICV"):
            in_sa.open(bytes(packet))

    def test_wrong_spi(self):
        out_sa, _ = self._pair()
        other = EspSecurityAssociation(0x2002, Aes(bytes(range(16))),
                                       b"auth-key")
        with pytest.raises(EspError):
            other.open(out_sa.seal(b"x"))

    def test_bad_spi_value(self):
        with pytest.raises(EspError):
            EspSecurityAssociation(0, Aes(bytes(16)), b"k")

    def test_short_packet(self):
        _, in_sa = self._pair()
        with pytest.raises(EspError, match="short"):
            in_sa.open(b"\x00" * 10)


class TestFarmSessionKeying:
    """Farm keying hashes with hashlib; the SSL session cache keeps the
    traced SHA-1 that estimation charges."""

    def test_matches_session_cache_id(self):
        for client in [*range(2000), 2 ** 64, 2 ** 256 - 1]:
            assert (session_id_for_client(client)
                    == SessionCache.session_id(farm_session(client)))

    def test_session_cache_id_still_traced(self):
        routines = []
        with hooks.traced(lambda name, params: routines.append(name)):
            SessionCache.session_id(farm_session(7))
            traced = len(routines)
            session_id_for_client(7)
        assert "rotl" in routines
        assert len(routines) == traced     # farm keying traces nothing
