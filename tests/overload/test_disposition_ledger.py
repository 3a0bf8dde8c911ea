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


def test_second_disposition_above_the_oldest_outstanding_key_is_recorded():
    ledger = DispositionLedger(DISPOSITIONS)
    for key in range(10_000):
        ledger.issue(key)
    for key in range(10_000):
        if key != 9_000:  # stays outstanding: the low watermark
            ledger.dispose(key, "consumed")
    assert len(ledger.disposed) < 9_000  # keys below 9,000 were forgotten
    ledger.dispose(9_500, "shed")
    assert ledger.double_dispositions == [(9_500, "consumed", "shed")]
    assert ledger.counts["consumed"] == 9_999 and ledger.outstanding == 1


def test_retained_entries_stay_bounded():
    ledger = DispositionLedger(DISPOSITIONS)
    retained = 0
    for key in range(100_000):
        ledger.issue(key)
        ledger.dispose(key, "consumed")
        retained = max(retained, len(ledger.disposed))
    assert retained <= 1_024
    assert ledger.balanced() and ledger.counts["consumed"] == 100_000
