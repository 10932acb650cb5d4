"""The persistent characterization cache.

Characterization is a one-time cost per platform configuration (the
paper's central methodology claim) -- yet it is easy to pay it over
and over: every CLI subcommand, every platform facade, and every
capacity-planner sweep used to re-run the ISS stimulus programs.  This
module makes "exactly once per process, zero times with a warm disk
cache" the default everywhere:

- a :class:`CharacterizationKey` content-keys one configuration
  (custom-instruction widths, cipher unit counts, stimulus sizes,
  repetitions, PRNG seed);
- :class:`CharacterizationCache` memoizes fitted
  :class:`~repro.macromodel.model.MacroModelSet` objects in-process
  and, when given a directory, persists them as JSON through
  :mod:`repro.macromodel.persist`;
- a process-global default cache (:func:`get_cache` /
  :func:`configure_cache`) is what :class:`repro.platform
  .SecurityPlatform`, :meth:`repro.costs.PlatformCosts.measure`, the
  co-design explorer, and the CLI all route through.

Disk entries that are unreadable, from an old schema, or keyed by a
different configuration are treated as misses and rewritten -- a stale
cache can cost time, never correctness.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

# The harness (characterize) and the JSON codec (persist) load on the
# first characterization or disk access; the model types and the
# stimulus defaults come from the numpy-free model module.
from repro.macromodel.model import DEFAULT_SEED, DEFAULT_SIZES, MacroModelSet
from repro.mp.prng import DeterministicPrng
from repro.obs import get_registry as get_obs_registry
from repro.obs import get_tracer, validate


def characterize_platform(*args, **kwargs) -> MacroModelSet:
    """:func:`repro.macromodel.characterize.characterize_platform`,
    loading the ISS stimulus harness on the first characterization."""
    from repro.macromodel import characterize
    return characterize.characterize_platform(*args, **kwargs)

#: Environment variable naming a default on-disk store (used by CI to
#: carry the characterization cache across runs).
CACHE_DIR_ENV = "REPRO_COSTS_CACHE_DIR"

# Schema 2: characterization stimuli now come from per-routine forked
# PRNG streams (parallel-safe), which changes sample values and hence
# fitted coefficients; schema-1 entries are treated as stale.
_CACHE_SCHEMA = 2


@dataclass(frozen=True)
class CharacterizationKey:
    """Content key for one characterization run.

    Everything that can change the fitted macro-models (or the kernels
    a platform configuration measures through) is part of the key:
    datapath widths, cipher unit counts, the stimulus size domain,
    repetitions, and the stimulus PRNG seed.
    """

    add_width: int = 0
    mac_width: int = 0
    des_sbox_units: int = 8
    aes_sbox_units: int = 8
    aes_mixcol_units: int = 2
    sizes: Tuple[int, ...] = DEFAULT_SIZES
    reps: int = 2
    seed: int = DEFAULT_SEED
    modmul_overhead: bool = True

    def as_dict(self) -> Dict:
        data = asdict(self)
        data["sizes"] = list(self.sizes)
        return data

    def digest(self) -> str:
        """Stable content hash (filename of the disk entry)."""
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


@dataclass
class CacheStats:
    """Observability for tests and the CLI's verbose paths.

    ``disk_stale`` counts disk entries that existed but could not be
    used (old schema, key mismatch, corrupt JSON) -- each one is also a
    miss that triggers re-characterization and a rewrite.
    """

    memo_hits: int = 0
    disk_hits: int = 0
    disk_stale: int = 0
    characterizations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class CharacterizationCache:
    """In-process memo + optional on-disk JSON store of model sets."""

    cache_dir: Optional[str] = None
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self._memo: Dict[CharacterizationKey, MacroModelSet] = {}

    # -- disk layer ----------------------------------------------------------

    def path_for(self, key: CharacterizationKey) -> Optional[str]:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"models-{key.digest()}.json")

    def _load_disk(self, key: CharacterizationKey
                   ) -> Optional[MacroModelSet]:
        path = self.path_for(key)
        if not path or not os.path.exists(path):
            return None
        from repro.macromodel.persist import modelset_from_dict
        try:
            entry = validate.read_json(path)
            if (entry.get("schema") == _CACHE_SCHEMA
                    and entry.get("key") == key.as_dict()):
                return modelset_from_dict(validate.field(
                    entry, "models", validate.OBJECT, path))
        except (OSError, ValueError):
            pass
        # Unreadable, damaged, an old schema, a digest collision or a
        # hand-edited key: recharacterize and rewrite.
        self._count_stale()
        return None

    def _count_stale(self) -> None:
        self.stats.disk_stale += 1
        get_obs_registry().counter("costs.cache.disk_stale").inc()

    def _store_disk(self, key: CharacterizationKey,
                    models: MacroModelSet) -> None:
        from repro.macromodel.persist import modelset_to_dict
        path = self.path_for(key)
        if not path:
            return
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            entry = {"schema": _CACHE_SCHEMA, "key": key.as_dict(),
                     "models": modelset_to_dict(models)}
            with open(path, "w") as fh:
                json.dump(entry, fh, indent=2, sort_keys=True)
        except OSError:
            pass                 # a read-only store never fails the run

    # -- lookup --------------------------------------------------------------

    def models_for(self, key: CharacterizationKey,
                   jobs: Optional[int] = None) -> MacroModelSet:
        """The fitted model set for ``key`` -- characterizing at most
        once per process and zero times with a warm disk store.

        ``jobs`` fans a cache-miss characterization across workers
        (see :mod:`repro.parallel`); it never affects the fitted
        models, so it is deliberately *not* part of the key."""
        obs = get_obs_registry()
        if self.enabled and key in self._memo:
            self.stats.memo_hits += 1
            obs.counter("costs.cache.memo_hit").inc()
            models = self._memo[key]
            path = self.path_for(key)
            if path and not os.path.exists(path):
                self._store_disk(key, models)   # warm a cold disk store
            return models
        if self.enabled:
            models = self._load_disk(key)
            if models is not None:
                self.stats.disk_hits += 1
                obs.counter("costs.cache.disk_hit").inc()
                self._memo[key] = models
                return models
        self.stats.characterizations += 1
        obs.counter("costs.cache.characterization").inc()
        with get_tracer().span("costs.characterize",
                               add_width=key.add_width,
                               mac_width=key.mac_width):
            models = characterize_platform(
                key.add_width, key.mac_width, sizes=key.sizes,
                reps=key.reps, prng=DeterministicPrng(key.seed),
                modmul_overhead=key.modmul_overhead, jobs=jobs)
        self._publish_fit_errors(key, models)
        if self.enabled:
            self._memo[key] = models
            self._store_disk(key, models)
        return models

    @staticmethod
    def _publish_fit_errors(key: CharacterizationKey,
                            models: MacroModelSet) -> None:
        """Per-routine fit-error gauges for a fresh characterization."""
        platform = (f"ext(add{key.add_width},mac{key.mac_width})"
                    if key.add_width and key.mac_width else "base")
        obs = get_obs_registry()
        for model in models:
            obs.gauge("costs.fit_error_pct", platform=platform,
                      routine=model.routine).set(
                model.fit.mean_abs_pct_error)

    def clear_memo(self) -> None:
        """Drop the in-process memo (the disk store is untouched)."""
        self._memo.clear()


# -- the process-global default cache ---------------------------------------

_default_cache = CharacterizationCache(
    cache_dir=os.environ.get(CACHE_DIR_ENV) or None)


def get_cache() -> CharacterizationCache:
    """The process-global cache every default code path routes through."""
    return _default_cache


def configure_cache(cache_dir: Optional[str] = None,
                    enabled: bool = True) -> CharacterizationCache:
    """Repoint the global cache (the CLI's ``--cache-dir``/``--no-cache``).

    Keeps the existing memo when only the directory changes, so
    configuring a disk store mid-process never re-characterizes.
    """
    _default_cache.cache_dir = cache_dir
    _default_cache.enabled = enabled
    if not enabled:
        _default_cache.clear_memo()
    return _default_cache


def reset_cache() -> CharacterizationCache:
    """Fresh global cache state (tests simulating a new process)."""
    _default_cache.cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    _default_cache.enabled = True
    _default_cache.stats = CacheStats()
    _default_cache.clear_memo()
    return _default_cache


def characterize_cached(add_width: int = 0, mac_width: int = 0,
                        cache: Optional[CharacterizationCache] = None,
                        jobs: Optional[int] = None,
                        **key_fields) -> MacroModelSet:
    """Cached drop-in for :func:`characterize_platform`'s common form."""
    key = CharacterizationKey(add_width=add_width, mac_width=mac_width,
                              **key_fields)
    return (cache or _default_cache).models_for(key, jobs=jobs)
