"""Layered cryptographic software library (paper Section 2.2).

The library mirrors the paper's three-layer architecture:

- **Layer 3 -- security primitive API** (:mod:`repro.crypto.api`):
  key generation, encryption, decryption, signing for named algorithms
  (DES, 3DES, AES, RSA, ElGamal, ...).  Security protocols (the SSL
  model in :mod:`repro.ssl`) port against this interface.
- **Layer 2 -- complex operations** (:mod:`repro.crypto.modexp`,
  :mod:`repro.crypto.modmul`, :mod:`repro.crypto.primes`): modular
  exponentiation, modular multiplication algorithm variants, Miller-
  Rabin primality testing and prime generation.
- **Layer 1 -- basic operations** (:mod:`repro.crypto.bitops` and the
  :mod:`repro.mp.mpn` limb routines): bit-level operations used by the
  private-key algorithms, and multi-precision operations used by the
  public-key algorithms.  These are the leaf routines that the
  methodology characterizes and accelerates.

All ciphers are from-scratch implementations validated against
published test vectors; nothing here should be used to protect real
data (no constant-time guarantees, deterministic stimulus PRNG).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.crypto.aes": ("Aes",),
    "repro.crypto.des": ("Des", "TripleDes"),
    "repro.crypto.kasumi": ("Kasumi",),
    "repro.crypto.rsa": ("RsaKeyPair", "RsaPrivateKey", "RsaPublicKey",
                         "generate_rsa_keypair"),
    "repro.crypto.elgamal": ("ElGamalKeyPair", "generate_elgamal_keypair"),
    "repro.crypto.api": ("SecurityApi", "UnknownAlgorithmError",
                         "register_algorithm", "registered_algorithms"),
})

__all__ = [
    "Aes", "Des", "Kasumi", "TripleDes",
    "RsaKeyPair", "RsaPrivateKey", "RsaPublicKey", "generate_rsa_keypair",
    "ElGamalKeyPair", "generate_elgamal_keypair",
    "SecurityApi", "UnknownAlgorithmError", "register_algorithm",
    "registered_algorithms",
]
