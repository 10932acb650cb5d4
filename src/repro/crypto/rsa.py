"""RSA key generation, encryption, decryption and signatures (Layer 3).

Decryption/signing routes through the configurable
:class:`repro.crypto.modexp.ModExpEngine`, so the whole 450-point
algorithm design space (modmul x window x CRT x radix x caching) is
reachable from real RSA traffic -- exactly the workload the paper's
exploration phase optimizes.

Message padding is PKCS#1 v1.5 style (type-2 random padding for
encryption, type-1 for signatures) -- enough structure to exercise the
byte path; this repository is a performance-methodology reproduction,
not a hardened crypto library.
"""

from dataclasses import dataclass
from typing import Optional

from repro.mp import DeterministicPrng, Mpz
from repro.crypto.modexp import ModExpConfig, ModExpEngine
from repro.crypto.primes import generate_prime
from repro.crypto.sha1 import sha1


@dataclass
class RsaPublicKey:
    n: Mpz
    e: Mpz

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_size(self) -> int:
        return (self.bits + 7) // 8


@dataclass
class RsaPrivateKey:
    n: Mpz
    e: Mpz
    d: Mpz
    p: Mpz
    q: Mpz
    dp: Mpz
    dq: Mpz
    qinv: Mpz

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_size(self) -> int:
        return (self.bits + 7) // 8

    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)


@dataclass
class RsaKeyPair:
    public: RsaPublicKey
    private: RsaPrivateKey


def generate_rsa_keypair(bits: int, prng: Optional[DeterministicPrng] = None,
                         e: int = 65537) -> RsaKeyPair:
    """Generate an RSA key pair with an n of roughly ``bits`` bits."""
    if bits < 16:
        raise ValueError("modulus must be at least 16 bits")
    if prng is None:
        prng = DeterministicPrng()
    half = bits // 2
    e_mpz = Mpz(e)
    while True:
        p = generate_prime(half, prng)
        q = generate_prime(bits - half, prng)
        if p == q:
            continue
        if p < q:
            p, q = q, p
        phi = (p - 1) * (q - 1)
        if int(phi.gcd(e_mpz)) != 1:
            continue
        n = p * q
        d = e_mpz.invert(phi)
        dp = d % (p - 1)
        dq = d % (q - 1)
        qinv = q.invert(p)
        private = RsaPrivateKey(n=n, e=e_mpz, d=d, p=p, q=q, dp=dp, dq=dq,
                                qinv=qinv)
        return RsaKeyPair(public=private.public(), private=private)


class Rsa:
    """RSA operations under a chosen modular-exponentiation configuration."""

    name = "RSA"

    def __init__(self, config: ModExpConfig = ModExpConfig()):
        self.engine = ModExpEngine(config)

    # -- raw integer ops ---------------------------------------------------

    def encrypt_int(self, m: int, key: RsaPublicKey) -> int:
        if not 0 <= m < int(key.n):
            raise ValueError("message representative out of range")
        return int(self.engine.powm(m, key.e, key.n))

    def decrypt_int(self, c: int, key: RsaPrivateKey) -> int:
        if not 0 <= c < int(key.n):
            raise ValueError("ciphertext representative out of range")
        return int(self.engine.powm_crt(c, key.d, key.p, key.q,
                                        dp=key.dp, dq=key.dq, qinv=key.qinv))

    # -- PKCS#1 v1.5-style byte ops -----------------------------------------

    def encrypt(self, message: bytes, key: RsaPublicKey,
                prng: Optional[DeterministicPrng] = None) -> bytes:
        """Type-2 (random nonzero) padded encryption."""
        k = key.byte_size
        if len(message) > k - 11:
            raise ValueError("message too long for modulus")
        if prng is None:
            prng = DeterministicPrng()
        pad_len = k - 3 - len(message)
        padding = bytes(prng.next_range(1, 255) for _ in range(pad_len))
        block = b"\x00\x02" + padding + b"\x00" + message
        c = self.encrypt_int(int.from_bytes(block, "big"), key)
        return c.to_bytes(k, "big")

    def decrypt(self, ciphertext: bytes, key: RsaPrivateKey) -> bytes:
        k = key.byte_size
        if len(ciphertext) != k:
            raise ValueError("ciphertext length must equal the modulus size")
        m = self.decrypt_int(int.from_bytes(ciphertext, "big"), key)
        block = m.to_bytes(k, "big")
        if block[0:2] != b"\x00\x02":
            raise ValueError("decryption error: bad padding header")
        sep = block.find(b"\x00", 2)
        if sep < 10:
            raise ValueError("decryption error: bad padding body")
        return block[sep + 1:]

    def sign(self, message: bytes, key: RsaPrivateKey) -> bytes:
        """Type-1 padded signature over SHA-1(message)."""
        k = key.byte_size
        digest = sha1(message)
        if k < len(digest) + 11:
            raise ValueError("modulus too small for a SHA-1 signature")
        block = b"\x00\x01" + b"\xff" * (k - 3 - len(digest)) + b"\x00" + digest
        s = int(self.engine.powm_crt(int.from_bytes(block, "big"), key.d,
                                     key.p, key.q, dp=key.dp, dq=key.dq,
                                     qinv=key.qinv))
        return s.to_bytes(k, "big")

    def verify(self, message: bytes, signature: bytes,
               key: RsaPublicKey) -> bool:
        k = key.byte_size
        if len(signature) != k:
            return False
        s = int.from_bytes(signature, "big")
        if not 0 <= s < int(key.n):
            return False
        m = self.encrypt_int(s, key)
        block = m.to_bytes(k, "big")
        digest = sha1(message)
        expected = b"\x00\x01" + b"\xff" * (k - 3 - len(digest)) + b"\x00" + digest
        return block == expected
