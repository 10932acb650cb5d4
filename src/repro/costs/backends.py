"""Pluggable cost-estimation backends.

Two implementations of one pricing surface:

- :class:`MacroModelBackend` -- the default, fast path: public-key
  operations are executed *natively* with characterized macro-models
  charging cycles per leaf-routine call (the paper's ~1407x faster
  estimation flow); symmetric/hash rates come from the short ISS
  kernel runs the platform facade exposes.
- :class:`IssBackend` -- cycle-accurate ground truth: operations run
  on the instruction-set simulator itself.  Orders of magnitude
  slower; used to validate the fast path.

:func:`cross_validate` is the paper's Section 4.3 accuracy check made
reusable: it prices the mpn leaf routines through both backends on
held-out stimuli (a seed distinct from the characterization seed) and
reports the mean absolute percentage error.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costs.cache import CharacterizationCache, characterize_cached
from repro.costs.model import PlatformCosts
from repro.crypto.modexp import ModExpEngine
from repro.macromodel import estimate_cycles
from repro.mp.prng import DeterministicPrng
from repro.obs import get_registry as get_obs_registry

#: Stimulus seed for cross-validation -- deliberately not the
#: characterization seed, so the check runs on held-out inputs.
VALIDATION_SEED = 0x5EED5EED

#: The mpn leaf routines both backends can price (the characterized
#: vocabulary minus the ISS-profile-only residual models).
MPN_LEAF_ROUTINES = ("mpn_add_n", "mpn_sub_n", "mpn_mul_1",
                     "mpn_addmul_1", "mpn_submul_1", "mpn_lshift")

# Fixed deterministic ECDH parties: the handshake cost is the online
# scalar multiplication against the gateway's static public key (the
# handset's ephemeral key is precomputable off-line).
_ECDH_GATEWAY_SEED = 0xFA57
_ECDH_EPHEMERAL_SEED = 0x7E57
_ecdh_parties = None


def _ecdh_handshake_parties():
    global _ecdh_parties
    if _ecdh_parties is None:
        from repro.crypto.ec import SECP160R1, generate_ec_keypair
        gateway = generate_ec_keypair(SECP160R1,
                                      DeterministicPrng(_ECDH_GATEWAY_SEED))
        ephemeral = generate_ec_keypair(
            SECP160R1, DeterministicPrng(_ECDH_EPHEMERAL_SEED))
        _ecdh_parties = (ephemeral.private, gateway.public)
    return _ecdh_parties


def _default_keypair():
    from repro.ssl import fixtures
    return fixtures.SERVER_1024


class CostBackend:
    """Protocol for pricing security operations on a platform.

    A backend answers, for one
    :class:`~repro.platform.SecurityPlatform` configuration: what does
    an RSA public/private operation, an ECDH handshake, a bulk-cipher
    byte, a hashed byte, or one mpn leaf call cost in cycles?
    :meth:`platform_costs` assembles the answers into the shared
    :class:`~repro.costs.model.PlatformCosts` vocabulary.

    Backends may decline an operation with ``NotImplementedError``;
    :meth:`platform_costs` then leaves the corresponding field to its
    documented fallback.
    """

    name = "abstract"

    def rsa_public_cycles(self, platform, keypair) -> float:
        raise NotImplementedError

    def rsa_private_cycles(self, platform, keypair) -> float:
        raise NotImplementedError

    def ecdh_cycles(self, platform) -> float:
        raise NotImplementedError

    def leaf_cycles(self, routine: str, n: float,
                    add_width: int = 0, mac_width: int = 0) -> float:
        raise NotImplementedError

    # Symmetric rates come from the platform's kernel facade in both
    # backends: they are short ISS measurements either way (the
    # macro-models cover the multi-precision leaf routines).
    def cipher_cycles_per_byte(self, platform, algorithm: str) -> float:
        return platform.cipher_cycles_per_byte(algorithm)

    def hash_cycles_per_byte(self, platform) -> float:
        return platform.hash_cycles_per_byte()

    def protocol_overheads(self, platform) -> Dict[str, float]:
        """Kernel-measured per-protocol overheads (registered protocol
        models resolve these through ``PlatformCosts.overhead``).  A
        platform facade without a given kernel simply omits the key."""
        overheads: Dict[str, float] = {}
        try:
            overheads["kasumi_cycles_per_byte"] = (
                self.cipher_cycles_per_byte(platform, "kasumi"))
        except (NotImplementedError, ValueError):
            pass
        return overheads

    def platform_costs(self, platform, keypair=None, cipher: str = "3des",
                       cls=PlatformCosts) -> PlatformCosts:
        """Assemble the full unit-cost vocabulary for ``platform``."""
        keypair = keypair or _default_keypair()
        try:
            ecdh = self.ecdh_cycles(platform)
        except NotImplementedError:
            ecdh = None
        return cls(
            name=platform.name,
            rsa_public_cycles=self.rsa_public_cycles(platform, keypair),
            rsa_private_cycles=self.rsa_private_cycles(platform, keypair),
            cipher_cycles_per_byte=self.cipher_cycles_per_byte(platform,
                                                               cipher),
            hash_cycles_per_byte=self.hash_cycles_per_byte(platform),
            ecdh_cycles=ecdh,
            protocol_overheads=self.protocol_overheads(platform))


class MacroModelBackend(CostBackend):
    """Fast native estimation through characterized macro-models.

    Public-key operations execute natively with a
    :class:`~repro.macromodel.estimator.CycleLedger` charging each
    traced leaf call its macro-model estimate.  Model sets resolve
    through the platform (honouring explicitly injected models) or,
    for bare leaf queries, through the characterization cache.
    """

    name = "macromodel"

    def __init__(self, cache: Optional[CharacterizationCache] = None):
        self._cache = cache     # None -> the process-global cache

    def _models(self, add_width: int, mac_width: int):
        return characterize_cached(add_width, mac_width, cache=self._cache)

    def rsa_public_cycles(self, platform, keypair,
                          message: int = 0x1234567) -> float:
        engine = ModExpEngine(platform.modexp_config)
        est = estimate_cycles(platform.models, engine.powm, message,
                              keypair.public.e, keypair.public.n)
        return est.cycles

    def rsa_private_cycles(self, platform, keypair,
                           message: int = 0x1234567) -> float:
        priv = keypair.private
        engine = ModExpEngine(platform.modexp_config)
        est = estimate_cycles(
            platform.models, engine.powm_crt, message, priv.d, priv.p,
            priv.q, priv.dp, priv.dq, priv.qinv)
        return est.cycles

    def ecdh_cycles(self, platform) -> float:
        from repro.crypto.ec import ecdh_shared_secret
        private, peer_public = _ecdh_handshake_parties()
        est = estimate_cycles(platform.models, ecdh_shared_secret,
                              private, peer_public)
        return est.cycles

    def leaf_cycles(self, routine: str, n: float,
                    add_width: int = 0, mac_width: int = 0) -> float:
        return self._models(add_width, mac_width).predict(routine, n)


class IssBackend(CostBackend):
    """Cycle-accurate ground truth on the instruction-set simulator.

    Slow by design (it is what the macro-models exist to replace):
    RSA operations run the assembly modexp kernel end to end, and leaf
    queries execute the mpn kernels with seeded random stimuli.  The
    kernel's modexp is Montgomery-based without CRT, so the private
    operation is the non-CRT ground truth.  There is no EC kernel on
    the ISS, so :meth:`ecdh_cycles` declines and
    :meth:`~CostBackend.platform_costs` leaves the field to the
    documented RSA-equivalence fallback.
    """

    name = "iss"

    def __init__(self, seed: int = VALIDATION_SEED, reps: int = 2):
        self.seed = seed
        self.reps = reps
        self._kernels: Dict[Tuple[int, int], object] = {}

    def _mpn_kernels(self, add_width: int, mac_width: int):
        key = (add_width, mac_width)
        if key not in self._kernels:
            from repro.isa.kernels.mpn_kernels import MpnKernels
            extended = bool(add_width and mac_width)
            self._kernels[key] = (MpnKernels(add_width, mac_width)
                                  if extended else MpnKernels())
        return self._kernels[key]

    def rsa_public_cycles(self, platform, keypair,
                          message: int = 0x1234567) -> float:
        return self._powm_cycles(platform, message, int(keypair.public.e),
                                 int(keypair.public.n))

    def rsa_private_cycles(self, platform, keypair,
                           message: int = 0x1234567) -> float:
        priv = keypair.private
        return self._powm_cycles(platform, message, int(priv.d),
                                 int(priv.n))

    def _powm_cycles(self, platform, base: int, exponent: int,
                     modulus: int) -> float:
        from repro.isa.kernels.modexp_kernel import ModExpKernel
        kernel = (ModExpKernel(platform.add_width, platform.mac_width)
                  if platform.extended else ModExpKernel())
        _, cycles, _ = kernel.powm(base, exponent, modulus)
        return float(cycles)

    def leaf_cycles(self, routine: str, n: float,
                    add_width: int = 0, mac_width: int = 0) -> float:
        """Mean measured cycles of ``reps`` seeded stimulus runs
        (``mpn_rshift`` is measured on the ``mpn_lshift`` kernel)."""
        import zlib
        kernels = self._mpn_kernels(add_width, mac_width)
        prng = DeterministicPrng(self.seed ^ zlib.crc32(routine.encode()))
        if routine == "mpn_rshift":
            routine = "mpn_lshift"
        if routine not in MPN_LEAF_ROUTINES:
            raise NotImplementedError(
                f"no ISS stimulus harness for routine {routine!r}")
        runs = [float(kernels.run_stimulus(routine, int(n), prng))
                for _ in range(max(1, self.reps))]
        return sum(runs) / len(runs)


# -- cross-validation (paper Section 4.3) ------------------------------------

@dataclass
class RoutineValidation:
    """Macro-model vs ISS agreement for one leaf routine."""

    routine: str
    sizes: Tuple[int, ...]
    model_cycles: Tuple[float, ...]
    iss_cycles: Tuple[float, ...]

    @property
    def mean_abs_pct_error(self) -> float:
        errors = [abs(m - i) / i * 100.0
                  for m, i in zip(self.model_cycles, self.iss_cycles)]
        return sum(errors) / len(errors)

    def as_dict(self) -> Dict:
        return {"routine": self.routine, "sizes": list(self.sizes),
                "model_cycles": list(self.model_cycles),
                "iss_cycles": list(self.iss_cycles),
                "mean_abs_pct_error": self.mean_abs_pct_error}


@dataclass
class CrossValidation:
    """The backend-agreement report: per-routine and aggregate error."""

    platform: str
    rows: List[RoutineValidation] = field(default_factory=list)

    @property
    def mean_abs_pct_error(self) -> float:
        if not self.rows:
            raise ValueError("cross-validation produced no rows")
        return (sum(r.mean_abs_pct_error for r in self.rows)
                / len(self.rows))

    def as_dict(self) -> Dict:
        return {"platform": self.platform,
                "mean_abs_pct_error": self.mean_abs_pct_error,
                "routines": [r.as_dict() for r in self.rows]}


def cross_validate(add_width: int = 0, mac_width: int = 0,
                   routines: Sequence[str] = MPN_LEAF_ROUTINES,
                   sizes: Sequence[int] = (2, 4, 8, 16, 24),
                   seed: int = VALIDATION_SEED, reps: int = 2,
                   macro: Optional[MacroModelBackend] = None,
                   iss: Optional[IssBackend] = None) -> CrossValidation:
    """Mean-abs-% error between the fast and ground-truth backends.

    Prices each leaf routine at each size through both backends on
    held-out stimuli.  This is the reusable form of the paper's 11.8%
    macro-model accuracy check; benchmarks and the regression suite
    both call it.
    """
    macro = macro or MacroModelBackend()
    iss = iss or IssBackend(seed=seed, reps=reps)
    extended = bool(add_width and mac_width)
    platform = (f"ext(add{add_width},mac{mac_width})" if extended
                else "base")
    report = CrossValidation(platform=platform)
    for routine in routines:
        model_cycles, iss_cycles = [], []
        for n in sizes:
            model_cycles.append(macro.leaf_cycles(routine, n,
                                                  add_width, mac_width))
            iss_cycles.append(iss.leaf_cycles(routine, n,
                                              add_width, mac_width))
        report.rows.append(RoutineValidation(
            routine=routine, sizes=tuple(sizes),
            model_cycles=tuple(model_cycles),
            iss_cycles=tuple(iss_cycles)))
    registry = get_obs_registry()
    for row in report.rows:
        registry.gauge("costs.cross_validation.mean_abs_pct_error",
                       platform=platform,
                       routine=row.routine).set(row.mean_abs_pct_error)
    registry.gauge("costs.cross_validation.mean_abs_pct_error",
                   platform=platform,
                   routine="__aggregate__").set(report.mean_abs_pct_error)
    return report
