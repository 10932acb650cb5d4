"""Persistent exploration result store.

Exploring the 450-candidate modexp space natively is cheap next to the
ISS (the paper's headline), but at minutes per full sweep it is still
worth never paying twice.  This store gives :class:`~repro.explore
.explorer.AlgorithmExplorer` the same "content-keyed, stale-is-a-miss"
persistence :mod:`repro.costs.cache` gives characterization:

- :func:`exploration_digest` content-keys one sweep *context*: the
  fitted macro-model set (platform) plus the workload (key, ciphertext,
  operation count).  Any change to either re-keys the store, so cached
  cycle estimates can never leak across platforms or workloads.
- Within one context, rows are keyed per candidate by the full
  :class:`~repro.crypto.modexp.ModExpConfig` field dict -- evaluated
  results are flushed incrementally (per completed chunk), which is
  what makes ``--resume`` after an interruption free.
- Disk entries live beside the characterization cache (one
  ``explore-<digest>.json`` per context, honoring
  ``$REPRO_COSTS_CACHE_DIR``); unreadable or old-schema entries are
  treated as misses and rewritten.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.macromodel.model import MacroModelSet
from repro.macromodel.persist import modelset_to_dict
from repro.obs import validate

_STORE_SCHEMA = 1


def config_key(config) -> str:
    """Canonical row key for one candidate (full field dict, so two
    configs differing in any dimension never share a row)."""
    return json.dumps(asdict(config), sort_keys=True)


def exploration_digest(models: MacroModelSet, workload) -> str:
    """Stable content hash of one sweep context (models + workload)."""
    priv = workload.keypair.private
    payload = {
        "models": modelset_to_dict(models),
        "workload": {"n": int(priv.n), "d": int(priv.d),
                     "ciphertext": workload.ciphertext,
                     "operations": workload.operations},
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


#: The fields of one stored row, each with its kind.
_ROW_FIELDS = {"config": validate.OBJECT, "label": validate.STRING,
               "estimated_cycles": validate.NUMBER,
               "wall_seconds": validate.NUMBER, "correct": validate.BOOL}


def _row_is_valid(key: str, row) -> bool:
    """Does ``row`` hold every field, well typed, for the candidate its
    ``key`` names?"""
    try:
        row = validate.as_object(row, key)
        for name, kind in _ROW_FIELDS.items():
            validate.field(row, name, kind, key)
    except ValueError:
        return False
    return json.dumps(row["config"], sort_keys=True) == key


@dataclass
class ExplorationStore:
    """In-process memo + optional on-disk JSON store of evaluated
    candidates, grouped by sweep-context digest."""

    cache_dir: Optional[str] = None
    enabled: bool = True
    _memo: Dict[str, Dict[str, dict]] = field(default_factory=dict,
                                              repr=False)

    @classmethod
    def from_global_cache(cls) -> "ExplorationStore":
        """A store co-located with the process-global characterization
        cache (same directory, same enablement)."""
        from repro.costs.cache import get_cache
        cache = get_cache()
        return cls(cache_dir=cache.cache_dir, enabled=cache.enabled)

    @property
    def persistent(self) -> bool:
        return bool(self.enabled and self.cache_dir)

    def path_for(self, digest: str) -> Optional[str]:
        if not self.cache_dir:
            return None
        return os.path.join(self.cache_dir, f"explore-{digest}.json")

    def rows_for(self, digest: str) -> Dict[str, dict]:
        """All stored rows for one sweep context (config key -> row).

        The returned dict is live: callers add rows to it and
        :meth:`flush` persists the whole context.
        """
        if not self.enabled:
            return {}
        rows = self._memo.get(digest)
        if rows is None:
            rows = self._load_disk(digest)
            self._memo[digest] = rows
        return rows

    def _load_disk(self, digest: str) -> Dict[str, dict]:
        path = self.path_for(digest)
        if not path or not os.path.exists(path):
            return {}
        try:
            entry = validate.read_json(path)
            if (entry.get("schema") != _STORE_SCHEMA
                    or entry.get("digest") != digest):
                return {}        # stale can cost time, never correctness
            rows = validate.field(entry, "rows", validate.OBJECT, path)
        except (OSError, ValueError):
            return {}
        # A damaged row is dropped: its candidate is re-evaluated and
        # the row rewritten on the next flush.
        return {key: row for key, row in rows.items()
                if _row_is_valid(key, row)}

    def flush(self, digest: str) -> None:
        """Persist one context's rows (called after each completed
        chunk, so an interrupted sweep keeps everything finished)."""
        path = self.path_for(digest)
        if not path or not self.enabled:
            return
        rows = self._memo.get(digest)
        if rows is None:
            return
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            entry = {"schema": _STORE_SCHEMA, "digest": digest,
                     "rows": rows}
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(entry, fh, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            pass                 # a read-only store never fails the run
