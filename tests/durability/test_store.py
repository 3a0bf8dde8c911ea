"""StateStore unit tests: sequences, acks, replicas, journal."""

import pytest

from repro.durability import Checkpoint, StateStore, state_digest
from repro.durability import store as store_module


class FakeServer:
    """Identity-keyed stand-in; the store only reads .name/.running."""

    def __init__(self, name, running=True):
        self.name = name
        self.running = running


def make_checkpoint(store, actor_id=1, state=None, replicas=(),
                    trigger="periodic", size_bytes=1024.0):
    state = {"total": 0} if state is None else state
    return Checkpoint(
        actor_id=actor_id, type_name="Fake",
        seq=store.next_seq(actor_id), taken_at=0.0, state=state,
        size_bytes=size_bytes, trigger=trigger,
        journal_mark=store.journal_mark, digest=state_digest(state),
        replicas=tuple(replicas))


def test_digest_is_content_addressed_and_order_insensitive():
    assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
    assert state_digest({"a": 1}) != state_digest({"a": 2})
    assert len(state_digest({})) == 16


def test_sequences_are_per_actor_monotonic():
    store = StateStore()
    assert [store.next_seq(1), store.next_seq(1), store.next_seq(2)] \
        == [1, 2, 1]
    assert store.last_seq(1) == 2
    assert store.last_seq(99) == 0


def test_add_rejects_seq_regression():
    store = StateStore()
    first = make_checkpoint(store)
    store.add(first)
    stale = Checkpoint(
        actor_id=1, type_name="Fake", seq=first.seq, taken_at=0.0,
        state={}, size_bytes=0.0, trigger="periodic", journal_mark=0,
        digest=state_digest({}))
    with pytest.raises(ValueError, match="seq regression"):
        store.add(stale)


def test_ack_counts_bytes_per_replica_copy():
    store = StateStore()
    replicas = (FakeServer("a"), FakeServer("b"))
    checkpoint = make_checkpoint(store, replicas=replicas,
                                 size_bytes=100.0)
    store.add(checkpoint)
    assert not checkpoint.acked
    store.ack(checkpoint, now=5.0)
    assert checkpoint.acked and checkpoint.acked_at == 5.0
    assert store.bytes_replicated == 200.0
    assert store.checkpoints_acked == 1


def test_latest_acked_skips_unacked_aborted_and_unusable():
    store = StateStore()
    alive, dead = FakeServer("alive"), FakeServer("dead", running=False)
    acked = make_checkpoint(store, state={"total": 1}, replicas=(alive,))
    store.add(acked)
    store.ack(acked, 1.0)
    aborted = make_checkpoint(store, state={"total": 2}, replicas=(alive,))
    store.add(aborted)
    store.ack(aborted, 2.0)
    aborted.aborted = True
    unacked = make_checkpoint(store, state={"total": 3}, replicas=(alive,))
    store.add(unacked)
    assert store.latest_acked(1) is acked
    # A usable() filter that rejects every replica finds nothing.
    assert store.latest_acked(1, usable=lambda s: s is dead) is None
    assert store.latest_acked(42) is None


def test_discard_replicas_on_crashed_server():
    store = StateStore()
    a, b = FakeServer("a"), FakeServer("b")
    checkpoint = make_checkpoint(store, replicas=(a, b))
    store.add(checkpoint)
    store.ack(checkpoint, 1.0)
    assert store.discard_replicas_on(a) == 1
    assert checkpoint.replicas == (b,)
    assert store.replicas_discarded == 1
    # All copies gone: the checkpoint is no longer restorable.
    store.discard_replicas_on(b)
    assert store.latest_acked(1) is None


def test_prune_keeps_only_max_acked_checkpoints():
    store = StateStore(max_per_actor=2)
    server = FakeServer("a")
    acked = []
    for i in range(4):
        checkpoint = make_checkpoint(store, state={"total": i},
                                     replicas=(server,))
        store.add(checkpoint)
        store.ack(checkpoint, float(i))
        acked.append(checkpoint)
    history = store.checkpoints(1)
    assert [cp.seq for cp in history] == [3, 4]
    assert store.latest_acked(1) is acked[-1]


def test_journal_sequences_survive_trimming(monkeypatch):
    monkeypatch.setattr(store_module, "_JOURNAL_CAP", 3)
    store = StateStore()
    for i in range(5):
        store.append_journal("actor-created", actor_id=i, time_ms=float(i))
    assert len(store.journal) == 3
    assert store._journal_trimmed == 2
    # Global sequence keeps counting through the trim, so marks taken
    # before the trim still order correctly against surviving entries.
    assert store.journal_mark == 5
    assert [entry.seq for entry in store.journal] == [3, 4, 5]


def test_journal_since_filters_by_actor_and_mark():
    store = StateStore()
    store.append_journal("actor-created", actor_id=7, time_ms=0.0)
    mark = store.journal_mark
    store.append_journal("migration-prepare", actor_id=7, time_ms=1.0)
    store.append_journal("actor-created", actor_id=8, time_ms=2.0)
    store.append_journal("migration-commit", actor_id=7, time_ms=3.0)
    kinds = [entry.kind for entry in store.journal_since(7, mark)]
    assert kinds == ["migration-prepare", "migration-commit"]
    assert store.journal_since(7, store.journal_mark) == []


def test_summary_shape():
    store = StateStore()
    server = FakeServer("a")
    checkpoint = make_checkpoint(store, replicas=(server,))
    store.add(checkpoint)
    store.ack(checkpoint, 1.0)
    store.append_journal("actor-created", 1, 0.0)
    summary = store.summary()
    assert summary["totals"]["checkpoints_written"] == 1
    assert summary["totals"]["checkpoints_acked"] == 1
    assert summary["journal"]["kinds"] == {"actor-created": 1}
    (row,) = summary["actors"]
    assert row["actor_id"] == 1
    assert row["acked_seq"] == checkpoint.seq
    assert row["replicas"] == ["a"]
