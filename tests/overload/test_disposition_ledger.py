"""The one disposition ledger, shared by the overload layer (client
messages) and the live front door (HTTP requests)."""

from repro.overload import DISPOSITIONS, DispositionLedger


def test_untracked_key_is_ignored():
    ledger = DispositionLedger(DISPOSITIONS)
    ledger.dispose(7, "consumed")  # never issued: an actor-to-actor send
    assert ledger.as_dict() == {"issued": 0, **dict.fromkeys(DISPOSITIONS, 0),
                                "outstanding": 0}
    assert ledger.disposed == {} and ledger.double_dispositions == []


def test_second_disposition_is_recorded_not_counted():
    ledger = DispositionLedger(DISPOSITIONS)
    ledger.issue(1)
    ledger.dispose(1, "consumed")
    ledger.dispose(1, "crashed")
    assert ledger.double_dispositions == [(1, "consumed", "crashed")]
    assert ledger.counts["consumed"] == 1 and ledger.counts["crashed"] == 0
    assert ledger.balanced()


def test_issued_equals_terminal_plus_outstanding():
    ledger = DispositionLedger(DISPOSITIONS)
    for key in range(20):
        ledger.issue(key)
    for key in range(0, 20, 3):
        ledger.dispose(key, DISPOSITIONS[key % len(DISPOSITIONS)])
    assert ledger.issued == sum(ledger.counts.values()) + ledger.outstanding
    assert (ledger.issued, ledger.outstanding) == (20, 13)
    assert not ledger.balanced()
