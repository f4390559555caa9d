"""EngineConfig: validation, round-trip, socket workers, shim removal."""

import math

import pytest

from repro.engine import (
    EngineConfig,
    IngestConfig,
    ServingConfig,
    ShardingConfig,
    SolverConfig,
    StreamingSentimentEngine,
)


class TestValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.num_classes == 3
        assert config.solver == SolverConfig()
        assert config.sharding == ShardingConfig()
        assert config.serving == ServingConfig()
        assert config.ingest == IngestConfig()

    def test_nested_dicts_coerce(self):
        config = EngineConfig(
            solver={"max_iterations": 20},
            sharding={"n_shards": 4, "backend": "serial"},
            serving={"cache_size": 0},
            ingest={"overflow": "drop"},
        )
        assert config.solver.max_iterations == 20
        assert config.solver.alpha == 0.9  # untouched defaults survive
        assert config.sharding.n_shards == 4
        assert config.serving.cache_size == 0
        assert config.ingest.overflow == "drop"

    def test_bad_backend_rejected_eagerly_with_choices(self):
        with pytest.raises(ValueError, match="serial.*thread.*socket"):
            EngineConfig(sharding={"backend": "cluster"})

    def test_bad_scalars_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            EngineConfig(sharding={"n_shards": 0})
        with pytest.raises(ValueError, match="classify_batch_size"):
            EngineConfig(serving={"classify_batch_size": 0})
        with pytest.raises(ValueError, match="max_queued_batches"):
            EngineConfig(ingest={"max_queued_batches": 0})
        with pytest.raises(ValueError, match="overflow"):
            EngineConfig(ingest={"overflow": "explode"})
        with pytest.raises(ValueError, match="num_classes"):
            EngineConfig(num_classes=1)
        with pytest.raises(ValueError, match="max_profile_age"):
            EngineConfig(max_profile_age=0)
        with pytest.raises(ValueError, match="tau"):
            EngineConfig(solver={"tau": 0.0})
        with pytest.raises(ValueError, match="update_style"):
            EngineConfig(solver={"update_style": "magic"})
        with pytest.raises(ValueError, match="halo"):
            EngineConfig(sharding={"halo": "maybe"})

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"solver": {"max_iterations": 2.5}}, "max_iterations"),
            ({"solver": {"window": 2.5}}, "window"),
            ({"solver": {"patience": True}}, "patience"),
            ({"solver": {"alpha": math.nan}}, "alpha"),
            ({"solver": {"alpha": -1}}, "alpha"),
            ({"solver": {"beta": math.inf}}, "beta"),
            ({"solver": {"gamma": "0.2"}}, "gamma"),
            ({"solver": {"tolerance": -1}}, "tolerance"),
            ({"solver": {"tau": math.nan}}, "tau"),
            ({"solver": {"state_smoothing": None}}, "state_smoothing"),
            ({"sharding": {"n_shards": True}}, "n_shards"),
            ({"sharding": {"max_workers": 1.5}}, "max_workers"),
            ({"serving": {"classify_iterations": 2.5}}, "classify_iterations"),
            ({"serving": {"classify_batch_size": 2.5}}, "classify_batch_size"),
            ({"serving": {"cache_size": 1.5}}, "cache_size"),
            ({"ingest": {"max_queued_batches": 1.5}}, "max_queued_batches"),
            ({"num_classes": 2.5}, "num_classes"),
            ({"max_profile_age": True}, "max_profile_age"),
        ],
    )
    def test_malformed_values_rejected_naming_field(self, kwargs, field):
        """Counts are non-bool ints in range and weights finite and
        non-negative, checked when the config is built — never left to
        fail mid-solve."""
        with pytest.raises(ValueError, match=field):
            EngineConfig(**kwargs)

    def test_unknown_section_field_rejected(self):
        with pytest.raises(TypeError):
            EngineConfig(solver={"iterations": 3})

    def test_removed_update_style_field(self):
        """Dumps that record the removed ``update_style`` option keep
        loading at its surviving value; the removed style is refused."""
        payload = EngineConfig(solver={"max_iterations": 7}).to_dict()
        assert "update_style" not in payload["solver"]
        payload["solver"]["update_style"] = "projector"
        assert EngineConfig.from_dict(payload) == EngineConfig(
            solver={"max_iterations": 7}
        )
        payload["solver"]["update_style"] = "lagrangian"
        with pytest.raises(ValueError, match="removed"):
            EngineConfig.from_dict(payload)

    def test_removed_threads_spmm_loads_as_scipy(self):
        """Dumps that record the removed ``"threads"`` spmm engine load
        as ``"scipy"`` (the same bits); other solver fields survive."""
        payload = EngineConfig(solver={"max_iterations": 7}).to_dict()
        payload["solver"]["spmm"] = "threads"
        restored = EngineConfig.from_dict(payload)
        assert restored.solver.spmm == "scipy"
        assert restored.solver.max_iterations == 7
        assert EngineConfig(solver={"spmm": "threads"}).solver.spmm == "scipy"

    def test_removed_numba_values_load_as_auto(self):
        """Dumps that record the removed numba kernel and engine and a
        thread budget load as ``"auto"`` and ``None`` (the same bits)."""
        payload = EngineConfig(solver={"max_iterations": 7}).to_dict()
        payload["solver"].update(kernel="numba", spmm="numba", spmm_threads=4)
        assert EngineConfig.from_dict(payload) == EngineConfig(
            solver={"max_iterations": 7}
        )
        payload["solver"]["spmm_threads"] = 0  # never a valid budget
        with pytest.raises(ValueError, match="spmm_threads=0 was removed"):
            EngineConfig.from_dict(payload)

    @pytest.mark.parametrize(
        ("field", "value"),
        [("kernel", "numba"), ("spmm", "numba"), ("spmm_threads", 4)],
    )
    def test_removed_numba_values_refused_when_passed_directly(
        self, field, value
    ):
        from repro.core.offline import OfflineTriClustering
        from repro.core.online import OnlineTriClustering

        message = f"{field}={value!r} was removed"

        with pytest.raises(ValueError, match=message):
            SolverConfig(**{field: value})
        for solver in (OfflineTriClustering, OnlineTriClustering):
            with pytest.raises(ValueError, match=message):
                solver(**{field: value})

    def test_removed_threads_spmm_refused_when_passed_directly(self):
        from repro.core.offline import OfflineTriClustering
        from repro.core.online import OnlineTriClustering

        with pytest.raises(ValueError, match="'threads' was removed"):
            SolverConfig(spmm="threads")
        for solver in (OfflineTriClustering, OnlineTriClustering):
            with pytest.raises(ValueError, match="'threads' was removed"):
                solver(spmm="threads")

    def test_removed_process_backend_loads_as_thread(self):
        """Dumps that record the removed ``"process"`` backend load as
        ``"thread"`` (the same bits); other sharding fields survive."""
        payload = EngineConfig(
            sharding={"n_shards": 2, "max_workers": 2}
        ).to_dict()
        payload["sharding"]["backend"] = "process"
        restored = EngineConfig.from_dict(payload)
        assert restored.sharding == ShardingConfig(n_shards=2, max_workers=2)
        assert EngineConfig(
            sharding={"backend": "process"}
        ).sharding.backend == "thread"

    def test_removed_process_backend_refused_when_passed_directly(self):
        with pytest.raises(ValueError, match="'process' was removed"):
            ShardingConfig(backend="process")
        with pytest.raises(ValueError, match="'process' was removed"):
            EngineConfig(sharding=ShardingConfig(backend="process"))

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.num_classes = 5


class TestRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        config = EngineConfig(
            num_classes=4,
            seed=11,
            max_profile_age=3,
            solver={"max_iterations": 12, "tau": 0.5},
            sharding={"n_shards": "auto"},
            serving={"classify_batch_size": 32},
            ingest={"overflow": "drop", "max_queued_batches": 8},
        )
        payload = config.to_dict()
        assert payload["solver"]["tau"] == 0.5
        assert EngineConfig.from_dict(payload) == config

    def test_dict_payload_is_json_compatible(self):
        import json

        payload = EngineConfig(max_profile_age=2).to_dict()
        assert EngineConfig.from_dict(json.loads(json.dumps(payload))) == (
            EngineConfig(max_profile_age=2)
        )

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="n_shards"):
            EngineConfig.from_dict({"n_shards": 2})

    def test_replace(self):
        config = EngineConfig()
        changed = config.replace(sharding={"n_shards": 2})
        assert changed.sharding.n_shards == 2
        assert config.sharding.n_shards == 1  # original untouched


class TestRemovedOptions:
    """Options removed from the config still load from old dicts at the
    value every solve now runs; any other value is refused by name."""

    #: (section, option, value that loads, value that is refused);
    #: section ``""`` is the top level.
    REMOVED = [
        ("", "cross_snapshot_edges", False, True),
        ("solver", "objective_every", 1, 3),
        ("sharding", "partitioner", "hash", "greedy"),
        ("sharding", "consensus_iterations", 25, 10),
        ("sharding", "halo", "on", "off"),
        ("ingest", "async_ingest", True, "off"),
    ]

    @staticmethod
    def _payload(section, option, value):
        payload = EngineConfig().to_dict()
        (payload[section] if section else payload)[option] = value
        return payload

    @pytest.mark.parametrize("section, option, old, bad", REMOVED)
    def test_old_default_loads(self, section, option, old, bad):
        payload = self._payload(section, option, old)
        assert EngineConfig.from_dict(payload) == EngineConfig()
        if section:
            assert EngineConfig(**{section: {option: old}}) == EngineConfig()

    @pytest.mark.parametrize("section, option, old, bad", REMOVED)
    def test_other_value_refused(self, section, option, old, bad):
        with pytest.raises(ValueError, match=f"{option}.*removed"):
            EngineConfig.from_dict(self._payload(section, option, bad))
        if section:
            with pytest.raises(ValueError, match=option):
                EngineConfig(**{section: {option: bad}})

    def test_async_ingest_false_loads(self):
        payload = self._payload("ingest", "async_ingest", False)
        assert EngineConfig.from_dict(payload) == EngineConfig()

    def test_integer_valued_flags_are_not_the_old_default(self):
        """``True == 1`` in Python; a recorded ``True`` is still not
        the removed option's integer default."""
        with pytest.raises(ValueError, match="objective_every"):
            EngineConfig(solver={"objective_every": True})
        with pytest.raises(ValueError, match="cross_snapshot_edges"):
            EngineConfig.from_dict({"cross_snapshot_edges": 0})

    @pytest.mark.parametrize("value", ["on", "off"])
    def test_solvers_take_no_halo_argument(self, value):
        from repro.core.offline import OfflineTriClustering
        from repro.core.online import OnlineTriClustering

        for solver in (OfflineTriClustering, OnlineTriClustering):
            with pytest.raises(TypeError, match="halo"):
                solver(halo=value)

    def test_to_dict_omits_removed_options(self):
        payload = EngineConfig().to_dict()
        for section, option, _, _ in self.REMOVED:
            assert option not in (payload[section] if section else payload)


class TestSocketWorkers:
    def test_socket_backend_requires_workers(self):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(sharding={"backend": "socket"})
        with pytest.raises(ValueError, match="worker"):
            EngineConfig(sharding={"backend": "socket", "workers": ()})

    def test_bad_address_rejected_eagerly(self):
        for bad in (["nohost"], ["host:notaport"], ["host:0"], "host:1"):
            with pytest.raises(ValueError):
                EngineConfig(
                    sharding={"backend": "socket", "workers": bad}
                )

    def test_workers_without_socket_backend_rejected(self):
        with pytest.raises(ValueError, match="socket"):
            EngineConfig(sharding={"workers": ["127.0.0.1:7500"]})

    def test_workers_normalized_and_round_trip_json(self):
        import json

        config = EngineConfig(
            sharding={
                "backend": "socket",
                "n_shards": 2,
                "workers": ["10.0.0.5:7500", "10.0.0.6:7500"],
            }
        )
        assert config.sharding.workers == ("10.0.0.5:7500", "10.0.0.6:7500")
        # JSON turns the tuple into a list; from_dict re-normalizes so
        # a checkpoint reload compares equal to the live config.
        payload = json.loads(json.dumps(config.to_dict()))
        assert payload["sharding"]["workers"] == [
            "10.0.0.5:7500", "10.0.0.6:7500",
        ]
        assert EngineConfig.from_dict(payload) == config


class TestLegacyShimRemoved:
    """The flat-kwargs constructor completed its deprecation cycle."""

    def test_flat_kwargs_raise_type_error(self, lexicon):
        with pytest.raises(TypeError):
            StreamingSentimentEngine(
                lexicon=lexicon, seed=7, max_iterations=5, n_shards=2
            )

    def test_positional_lexicon_raises_with_pointer(self, lexicon):
        with pytest.raises(TypeError, match="lexicon="):
            StreamingSentimentEngine(lexicon)

    def test_from_legacy_kwargs_gone(self):
        assert not hasattr(EngineConfig, "from_legacy_kwargs")


class TestEngineConfigPlumbing:
    def test_engine_accepts_dict_config(self, lexicon):
        engine = StreamingSentimentEngine(
            {"solver": {"max_iterations": 4}}, lexicon=lexicon
        )
        assert engine.config.solver.max_iterations == 4

    def test_engine_rejects_other_types(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            StreamingSentimentEngine(42)

    def test_effective_config_captures_user_solver(self, lexicon):
        from repro.core.sharded import ShardedOnlineTriClustering

        solver = ShardedOnlineTriClustering(
            n_shards=2, max_iterations=7, alpha=0.4
        )
        engine = StreamingSentimentEngine(lexicon=lexicon, solver=solver)
        effective = engine.effective_config()
        assert effective.solver.max_iterations == 7
        assert effective.solver.alpha == 0.4
        assert effective.sharding.n_shards == 2
        # The engine's own (default) config is not mutated.
        assert engine.config.solver == SolverConfig()
