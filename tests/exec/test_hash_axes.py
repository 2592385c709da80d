"""Every spec field reaches the content hash.

The result store keys each simulation by :func:`repro.exec.spec_hash`.
A dataclass field that never reaches the hash is an axis the cache
cannot see: two specs differing only there collide, and the second
silently reuses the first's result.

For each hashed class a table gives one alternative value per field.
The tests assert that the table names exactly the class's dataclass
fields (so a new field without an entry fails here) and that replacing
each field with its alternative changes ``spec_hash`` — measured end to
end, through the encoder (``canonical`` / ``to_dict`` /
``spec_items``) that puts the value into a :class:`JobSpec`.  A renamed
class or encoder fails at import or attribute lookup.
"""

import dataclasses

from repro.exec import JobSpec, spec_hash
from repro.resil import FaultEvent, FaultSchedule
from repro.sample import SamplingConfig


def hashed_fields(base, alternatives, encode) -> set:
    """Names in ``alternatives`` whose value, swapped into ``base``,
    changes ``encode`` — the fields the encoding can see."""
    reference = encode(base)
    return {name for name, value in alternatives.items()
            if encode(dataclasses.replace(base, **{name: value})) != reference}


def field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _edge_hash(**kwargs) -> str:
    return spec_hash(JobSpec.edge("conv", ncores=4, **kwargs))


JOBSPEC_BASE = JobSpec.edge("conv", ncores=4)
JOBSPEC_ALTERNATIVES = {
    "kind": "risc",
    "bench": "dither",
    "scale": 2,
    "ncores": 8,
    "trips": True,
    "ideal_handshake": True,
    "overrides": (("lsq_size", 1),),
    "core_overrides": (("issue_width", 1),),
    "verify": False,
    "sampling": (("ff_blocks", 64),),
    "faults": ('{"core":1,"kind":"core_dead"}',),
}

SAMPLING_ALTERNATIVES = {
    "ff_blocks": 64,
    "window_blocks": 16,
    "warmup_blocks": 4,
}

#: kind -> (a valid event of that kind, alternatives for the fields the
#: kind uses).  ``kind`` itself is covered by the kinds hashing apart.
FAULT_EVENT_CASES = {
    "core_dead": (FaultEvent("core_dead", core=1), {"core": 2}),
    "core_kill": (FaultEvent("core_kill", core=1, cycle=100),
                  {"core": 2, "cycle": 200}),
    "link_slow": (FaultEvent("link_slow", link=(0, 1), extra=3, net="opn"),
                  {"link": (0, 4), "extra": 5, "net": "control"}),
}

SCHEDULE_BASE = FaultSchedule((FaultEvent("core_dead", core=1),))
SCHEDULE_ALTERNATIVES = {
    "events": (FaultEvent("core_dead", core=2),),
}


def _sampling_hash(cfg: SamplingConfig) -> str:
    return _edge_hash(sampling=cfg.to_dict())


def _faults_hash(schedule: FaultSchedule) -> str:
    return _edge_hash(faults=schedule.spec_items())


def _event_hash(event: FaultEvent) -> str:
    return _faults_hash(FaultSchedule((event,)))


class TestEveryFieldReachesTheHash:
    def test_jobspec(self):
        assert set(JOBSPEC_ALTERNATIVES) == field_names(JobSpec)
        assert hashed_fields(JOBSPEC_BASE, JOBSPEC_ALTERNATIVES,
                             spec_hash) == field_names(JobSpec)

    def test_sampling_config(self):
        assert set(SAMPLING_ALTERNATIVES) == field_names(SamplingConfig)
        assert hashed_fields(SamplingConfig(), SAMPLING_ALTERNATIVES,
                             _sampling_hash) == field_names(SamplingConfig)

    def test_fault_event(self):
        tabled = {"kind"}.union(*(alternatives for __, alternatives
                                  in FAULT_EVENT_CASES.values()))
        assert tabled == field_names(FaultEvent)
        for kind, (base, alternatives) in FAULT_EVENT_CASES.items():
            assert base.kind == kind
            assert hashed_fields(base, alternatives,
                                 _event_hash) == set(alternatives), kind
        # No single-field swap of ``kind`` is a valid event, so the kind
        # axis is checked as: the per-kind events all hash apart.
        hashes = {_event_hash(base) for base, __ in FAULT_EVENT_CASES.values()}
        assert len(hashes) == len(FAULT_EVENT_CASES)

    def test_fault_schedule(self):
        assert set(SCHEDULE_ALTERNATIVES) == field_names(FaultSchedule)
        assert hashed_fields(SCHEDULE_BASE, SCHEDULE_ALTERNATIVES,
                             _faults_hash) == field_names(FaultSchedule)


@dataclasses.dataclass(frozen=True)
class _LeakyJobSpec(JobSpec):
    """A new field the canonical form never reads."""

    timeout: float = 0.0


class _DroppingJobSpec(JobSpec):
    """A canonical form that loses an existing field."""

    def canonical(self) -> dict:
        data = super().canonical()
        del data["verify"]
        return data


class TestTheCheckCatchesLeaks:
    """The assertions above must fail on a leaky spec, not pass
    vacuously."""

    def test_new_field_outside_the_hash_is_flagged(self):
        base = _LeakyJobSpec(**dataclasses.asdict(JOBSPEC_BASE))
        alternatives = {**JOBSPEC_ALTERNATIVES, "timeout": 5.0}
        # The table is complete, yet the field never reaches the hash.
        assert set(alternatives) == field_names(_LeakyJobSpec)
        assert hashed_fields(base, alternatives, spec_hash) == \
            field_names(_LeakyJobSpec) - {"timeout"}

    def test_canonical_dropping_a_field_is_flagged(self):
        base = _DroppingJobSpec(**dataclasses.asdict(JOBSPEC_BASE))
        assert hashed_fields(base, JOBSPEC_ALTERNATIVES, spec_hash) == \
            field_names(JobSpec) - {"verify"}
