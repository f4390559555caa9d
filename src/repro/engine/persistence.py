"""Engine checkpointing: warm-restart a serving process from disk.

A long-running :class:`~repro.engine.streaming.StreamingSentimentEngine`
accumulates state that is expensive or impossible to rebuild by
replaying the stream: the fitted factors, the append-only vocabulary
with its idf statistics, the cluster→class alignment, and the online
solver's temporal priors (decayed ``Sf``/``Su`` history, carried
per-user sentiment, RNG position).  ``save`` writes all of it to a
directory — numeric arrays in one ``arrays.npz``, structured metadata
in one ``state.json`` — and ``load`` reconstructs an engine that
continues the stream *bit-for-bit* where the saved one stopped
(round-trip and continuation are regression-tested).  The solver's
per-user state is written and restored as the arrays it lives in —
sorted ``int64`` ids beside their rows — and ``load`` refuses user
arrays that are unsorted, duplicated, miscounted, of the wrong width
or inconsistent with the recorded ``seen_users`` (``ValueError``).

Format version 2 persists the engine's configuration as one
:meth:`~repro.engine.config.EngineConfig.to_dict` blob (the solver's
hyperparameters captured live via ``effective_config``, so engines
built around a hand-constructed solver instance checkpoint faithfully
too), instead of version 1's loose field-by-field dump.  Version-1
checkpoints still load: their flat fields are mapped onto an
``EngineConfig`` on the way in.

Checkpoint compaction: with ``EngineConfig.max_profile_age`` set,
``save`` first ages out builder bookkeeping (user profiles and
tweet→author entries) for authors neither posting nor retweeted within
that many most recent snapshots — bounding warm-restart state on
unbounded streams at the cost of no longer resolving retweets of those
aged-out tweets after a restart.

Not persisted (by design): pending un-snapshotted tweets (``save``
refuses them — advance or discard first), the bounded tokenization
memo, telemetry reports, and the classify LRU (recomputed on demand).
Custom vectorizer analyzers cannot be serialized; engines using them
are rejected with a clear error.

Both versions load through :meth:`~repro.engine.config.EngineConfig.
from_dict`, so a checkpoint that records a removed option loads only
at the value every solve now runs and is refused otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.online import OnlineTriClustering
from repro.core.sharded import ShardedOnlineTriClustering
from repro.core.state import FactorSet
from repro.data.tweet import Sentiment, UserProfile
from repro.engine.config import EngineConfig
from repro.text.lexicon import SentimentLexicon
from repro.text.tokenizer import TweetTokenizer
from repro.text.vectorizer import CountVectorizer, TfidfVectorizer
from repro.text.vocabulary import Vocabulary
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.streaming import StreamingSentimentEngine

logger = get_logger("engine.persistence")

FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
ARRAYS_FILE = "arrays.npz"
STATE_FILE = "state.json"

_FACTOR_NAMES = ("sf", "sp", "su", "hp", "hu")

#: SolverConfig fields, as they appear in both v1 solver params and v2
#: config dumps (everything the online solver takes beyond num_classes).
#: ``update_style`` is a removed option that old checkpoints record;
#: EngineConfig accepts its surviving value and rejects the others.
_SOLVER_FIELDS = (
    "alpha",
    "beta",
    "gamma",
    "tau",
    "window",
    "max_iterations",
    "tolerance",
    "patience",
    "update_style",
    "state_smoothing",
    "track_history",
    "kernel",
    "dtype",
)


def _sentiment_to_json(value: Sentiment | None) -> str | None:
    return value.short_name if value is not None else None


def _sentiment_from_json(value: str | None) -> Sentiment | None:
    return Sentiment.from_label(value) if value is not None else None


def _profile_to_json(profile: UserProfile) -> dict:
    return {
        "user_id": profile.user_id,
        "stance": _sentiment_to_json(profile.base_stance),
        "labeled": profile.labeled,
        "stance_changes": {
            str(day): stance.short_name
            for day, stance in sorted(profile.stance_changes.items())
        },
    }


def _profile_from_json(record: dict) -> UserProfile:
    return UserProfile(
        user_id=int(record["user_id"]),
        base_stance=_sentiment_from_json(record.get("stance")),
        labeled=bool(record.get("labeled", True)),
        stance_changes={
            int(day): Sentiment.from_label(label)
            for day, label in (record.get("stance_changes") or {}).items()
        },
    )


def _validate_solver(solver: OnlineTriClustering) -> str:
    """The checkpoint ``kind`` of ``solver``, rejecting the unknown."""
    if type(solver) is ShardedOnlineTriClustering:
        return "sharded"
    if type(solver) is OnlineTriClustering:
        return "online"
    raise ValueError(
        f"cannot persist solver of type {type(solver).__name__}; "
        "only OnlineTriClustering and ShardedOnlineTriClustering "
        "checkpoints are supported"
    )


def _vectorizer_state(vectorizer: CountVectorizer) -> dict:
    if type(vectorizer.analyzer) is not TweetTokenizer:
        raise ValueError(
            "cannot persist an engine with a custom analyzer; only the "
            "default TweetTokenizer is reconstructible from a checkpoint"
        )
    if type(vectorizer) is TfidfVectorizer:
        return {
            "kind": "tfidf",
            "sublinear_tf": vectorizer.sublinear_tf,
            "normalize": vectorizer.normalize,
        }
    if type(vectorizer) is CountVectorizer:
        return {"kind": "count", "binary": vectorizer.binary}
    raise ValueError(
        f"cannot persist vectorizer of type {type(vectorizer).__name__}"
    )


def _rebuild_vectorizer(state: dict, vocabulary: Vocabulary) -> CountVectorizer:
    if state["kind"] == "tfidf":
        vectorizer = TfidfVectorizer(
            vocabulary=vocabulary,
            sublinear_tf=state["sublinear_tf"],
            normalize=state["normalize"],
        )
        vectorizer.refresh_idf()
        return vectorizer
    return CountVectorizer(vocabulary=vocabulary, binary=state["binary"])


def _int_map_arrays(mapping: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """An ``int -> int`` dict as key-sorted ``int64`` key/value arrays."""
    keys = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
    values = np.fromiter(mapping.values(), dtype=np.int64, count=len(mapping))
    order = np.argsort(keys)
    return keys[order], values[order]


def save_engine(engine: "StreamingSentimentEngine", path: str | Path) -> Path:
    """Write ``engine`` to the directory ``path`` (created if missing)."""
    if not engine.is_ready:
        raise RuntimeError(
            "nothing to save: no snapshot has been processed yet"
        )
    if engine.pending:
        raise ValueError(
            f"{engine.pending} ingested tweets are pending; call "
            "advance_snapshot() before save() (pending deltas are not "
            "persisted)"
        )
    config = engine.effective_config()
    if engine.config.max_profile_age is not None:
        dropped = engine.builder.compact(engine.config.max_profile_age)
        if dropped:
            logger.info(
                "checkpoint compaction aged out %d inactive authors "
                "(max_profile_age=%d)", dropped, engine.config.max_profile_age,
            )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    builder = engine.builder
    solver = engine.solver
    kind = _validate_solver(solver)
    factors = engine.factors
    assert factors is not None and engine.alignment is not None

    arrays: dict[str, np.ndarray] = {
        f"factors_{name}": getattr(factors, name) for name in _FACTOR_NAMES
    }
    arrays["alignment"] = engine.alignment
    for lag, sf_past in enumerate(solver._sf_history):
        arrays[f"sf_history_{lag}"] = sf_past
    for lag, (uids, rows) in enumerate(solver._su_history):
        arrays[f"su_history_{lag}_uids"] = uids
        arrays[f"su_history_{lag}_rows"] = rows
    state_uids, state_rows = solver._user_state
    arrays["user_state_uids"] = state_uids
    arrays["user_state_rows"] = state_rows
    (
        arrays["author_tweet_ids"], arrays["author_user_ids"]
    ) = _int_map_arrays(builder._author_of)
    (
        arrays["last_seen_uids"], arrays["last_seen_values"]
    ) = _int_map_arrays(builder._last_seen)
    np.savez_compressed(path / ARRAYS_FILE, **arrays)

    lexicon = builder.lexicon
    state = {
        "version": FORMAT_VERSION,
        "engine": {
            "config": config.to_dict(),
            "classify_seed": engine._classify_seed,
        },
        "solver": {
            "kind": kind,
            "steps": solver.steps,
            "seen_users": state_uids.tolist(),
            "rng": solver._rng.bit_generator.state,
        },
        "vectorizer": _vectorizer_state(builder.vectorizer),
        "vocabulary": builder.vectorizer.vocabulary.to_state(),
        "lexicon": (
            None
            if lexicon is None
            else {
                "positive": dict(lexicon._positive),
                "negative": dict(lexicon._negative),
            }
        ),
        "builder": {
            "snapshots_built": builder.snapshots_built,
            "profiles": [
                _profile_to_json(p) for _, p in sorted(builder._profiles.items())
            ],
        },
        "sf_history_len": len(solver._sf_history),
        "su_history_len": len(solver._su_history),
    }
    (path / STATE_FILE).write_text(
        json.dumps(state, indent=2) + "\n", encoding="utf-8"
    )
    return path


def _config_from_v1(state: dict) -> tuple[EngineConfig, int]:
    """Map a version-1 checkpoint's loose fields onto an EngineConfig."""
    engine_state = state["engine"]
    params = dict(state["solver"]["params"])
    solver_config = {
        name: params[name] for name in _SOLVER_FIELDS if name in params
    }
    # A sharded solver may have pinned its own worker count; prefer it
    # over the engine-level bound so the restored pool matches the old
    # _rebuild_solver path.
    max_workers = params.get("max_workers")
    if max_workers is None:
        max_workers = engine_state.get("max_workers")
    sharding_config = {
        "n_shards": params.get("n_shards", 1),
        "partitioner": params.get(
            "partitioner", engine_state.get("partitioner", "hash")
        ),
        "backend": params.get("backend", engine_state.get("backend", "thread")),
        "max_workers": max_workers,
        "consensus_iterations": params.get("consensus_iterations", 25),
        # Version-1 checkpoints predate the cut-edge halo exchange:
        # restore the block-diagonal solver they were saved with.
        # (Version-2 dumps carry sharding.halo in the config blob.)
        "halo": params.get("halo", "off"),
    }
    serving_config = {
        "classify_iterations": engine_state["classify_iterations"],
        "classify_batch_size": engine_state["classify_batch_size"],
        "cache_size": engine_state["cache_size"],
    }
    classify_seed = int(engine_state["classify_seed"])
    config = EngineConfig.from_dict({
        "num_classes": engine_state["num_classes"],
        "seed": classify_seed,
        "cross_snapshot_edges": engine_state["cross_snapshot_edges"],
        "solver": solver_config,
        "sharding": sharding_config,
        "serving": serving_config,
    })
    return config, classify_seed


def _user_rows(
    arrays: dict[str, np.ndarray], prefix: str, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``({prefix}_uids, {prefix}_rows)`` pair, rejecting malformed ones.

    The solver looks users up by binary search, so the ids must be
    strictly increasing integers with exactly one ``num_classes``-wide
    row each.
    """
    uids = arrays[f"{prefix}_uids"]
    rows = arrays[f"{prefix}_rows"]
    if uids.ndim != 1 or uids.dtype.kind not in "iu":
        raise ValueError(
            f"malformed checkpoint: {prefix}_uids must be a 1-D integer "
            f"array, got {uids.dtype} with shape {uids.shape}"
        )
    if np.any(uids[1:] <= uids[:-1]):
        raise ValueError(
            f"malformed checkpoint: {prefix}_uids is not strictly "
            "increasing (unsorted or duplicate user ids)"
        )
    if rows.ndim != 2 or rows.shape[0] != uids.size:
        raise ValueError(
            f"malformed checkpoint: {prefix}_rows has shape {rows.shape} "
            f"but {prefix}_uids holds {uids.size} user ids"
        )
    if rows.shape[1] != num_classes:
        raise ValueError(
            f"malformed checkpoint: {prefix}_rows has {rows.shape[1]} "
            f"columns, expected num_classes={num_classes}"
        )
    return uids.astype(np.int64, copy=False), rows


def load_engine(path: str | Path) -> "StreamingSentimentEngine":
    """Rebuild an engine saved by :func:`save_engine` (format 1 or 2)."""
    from repro.engine.streaming import StreamingSentimentEngine

    path = Path(path)
    state = json.loads((path / STATE_FILE).read_text(encoding="utf-8"))
    version = state.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected one of {SUPPORTED_VERSIONS})"
        )
    with np.load(path / ARRAYS_FILE) as handle:
        arrays = {key: handle[key] for key in handle.files}

    vocabulary = Vocabulary.from_state(state["vocabulary"])
    vectorizer = _rebuild_vectorizer(state["vectorizer"], vocabulary)
    lexicon_state = state["lexicon"]
    lexicon = (
        None
        if lexicon_state is None
        else SentimentLexicon(
            positive=lexicon_state["positive"],
            negative=lexicon_state["negative"],
        )
    )
    if version == 1:
        config, classify_seed = _config_from_v1(state)
    else:
        config = EngineConfig.from_dict(state["engine"]["config"])
        classify_seed = int(state["engine"]["classify_seed"])

    # The engine rebuilds its solver from the config; the checkpoint
    # then restores the solver's temporal position on top of it.
    engine = StreamingSentimentEngine(
        config, lexicon=lexicon, vectorizer=vectorizer
    )
    engine._classify_seed = classify_seed

    # --- solver temporal state ---
    solver = engine.solver
    solver._steps = int(state["solver"]["steps"])
    solver._rng.bit_generator.state = state["solver"]["rng"]
    for lag in range(int(state["sf_history_len"])):
        solver._sf_history.append(arrays[f"sf_history_{lag}"])
    for lag in range(int(state["su_history_len"])):
        solver._su_history.append(
            _user_rows(arrays, f"su_history_{lag}", solver.num_classes)
        )
    state_uids, state_rows = _user_rows(
        arrays, "user_state", solver.num_classes
    )
    # Seen users are the carried-state ids; the JSON copy must agree.
    if not np.array_equal(
        np.asarray(state["solver"]["seen_users"], dtype=np.int64), state_uids
    ):
        raise ValueError(
            "malformed checkpoint: solver.seen_users differs from "
            "user_state_uids"
        )
    solver._user_state = (state_uids, state_rows)
    solver._vocabulary_ref = vocabulary

    # --- builder bookkeeping ---
    builder = engine.builder
    builder._author_of = dict(
        zip(
            arrays["author_tweet_ids"].tolist(),
            arrays["author_user_ids"].tolist(),
        )
    )
    builder._profiles = {
        p.user_id: p
        for p in (_profile_from_json(r) for r in state["builder"]["profiles"])
    }
    builder._snapshots_built = int(state["builder"]["snapshots_built"])
    if "last_seen_uids" in arrays:
        builder._last_seen = dict(
            zip(
                arrays["last_seen_uids"].tolist(),
                arrays["last_seen_values"].tolist(),
            )
        )
    else:
        # v1 checkpoints carry no activity recency; treat every known
        # profile as fresh at restore so compaction never mistakes
        # pre-upgrade users for long-inactive ones.
        latest = builder._snapshots_built - 1
        builder._last_seen = dict.fromkeys(builder._profiles, latest)

    # --- serving state ---
    factors = FactorSet(
        **{name: arrays[f"factors_{name}"] for name in _FACTOR_NAMES}
    )
    engine._factors = factors
    engine._alignment = arrays["alignment"]
    engine._tweet_gram = factors.hp @ (factors.sf.T @ factors.sf) @ factors.hp.T
    return engine
