"""FPM message protocol (Fig. 4) and propagation traces."""

import numpy as np
import pytest

from repro.fpm import PropagationTrace, ShadowTable, apply_message, build_payload
from repro.vm.memory import ProcessMemory
from repro.vm.traps import Trap


def make_memory(words=64):
    m = ProcessMemory(1024, 256)
    base = m.stack_alloc(words)
    return m, base


class TestBuildPayload:
    def test_clean_buffer_has_no_records(self):
        m, base = make_memory()
        m.write_block(base, [1.0, 2.0, 3.0])
        payload, records = build_payload(m, ShadowTable(), base, 3)
        assert payload == [1.0, 2.0, 3.0]
        assert records == []

    def test_records_use_displacements(self):
        m, base = make_memory()
        m.write_block(base, [1.0, 2.0, 3.0, 4.0])
        shadow = ShadowTable()
        shadow.record(base + 1, 20.0)
        shadow.record(base + 3, 40.0)
        shadow.record(base + 30, 99.0)  # outside the message
        payload, records = build_payload(m, shadow, base, 4)
        assert records == [(1, 20.0), (3, 40.0)]

    def test_invalid_buffer_traps(self):
        m, base = make_memory(4)
        with pytest.raises(Trap):
            build_payload(m, None, base, 500)

    def test_none_shadow_is_blackbox(self):
        m, base = make_memory()
        payload, records = build_payload(m, None, base, 2)
        assert records == []


class TestApplyMessage:
    def test_rebases_displacements(self):
        sender_mem, sbase = make_memory()
        sender_mem.write_block(sbase, [10.0, 66.0, 30.0])
        shadow_s = ShadowTable()
        shadow_s.record(sbase + 1, 20.0)  # pristine of the corrupted word
        payload, records = build_payload(sender_mem, shadow_s, sbase, 3)

        recv_mem, rbase = make_memory()
        shadow_r = ShadowTable()
        installed = apply_message(recv_mem, shadow_r, rbase + 7, payload,
                                  records, cycle=123)
        assert installed == 1
        assert recv_mem.read_block(rbase + 7, 3) == [10.0, 66.0, 30.0]
        # contamination landed at the *receiver's* address
        assert shadow_r.pristine(rbase + 8, None) == 20.0
        assert shadow_r.first_contamination_cycle == 123

    def test_clean_words_heal_receiver_cells(self):
        recv_mem, rbase = make_memory()
        shadow = ShadowTable()
        shadow.record(rbase + 1, 5.0)  # receiver cell contaminated earlier
        apply_message(recv_mem, shadow, rbase, [1.0, 2.0, 3.0], [], cycle=0)
        assert len(shadow) == 0  # overwritten by clean data

    def test_record_matching_payload_value_not_contaminated(self):
        # If the "pristine" value equals the delivered value, the location
        # ends up clean (same_value healing).
        recv_mem, rbase = make_memory()
        shadow = ShadowTable()
        apply_message(recv_mem, shadow, rbase, [7.0], [(0, 7.0)], cycle=0)
        assert len(shadow) == 0

    def test_blackbox_receiver(self):
        recv_mem, rbase = make_memory()
        assert apply_message(recv_mem, None, rbase, [1.0], [(0, 9.0)]) == 0

    def test_clean_message_into_a_clean_table_only_writes_the_block(self):
        # the case of every golden, pre-injection or healed rank: no
        # header and nothing to heal, so no per-word walk of the table
        class Untouchable(ShadowTable):
            def update(self, *a, **k):
                raise AssertionError("walked a clean delivery")

        recv_mem, rbase = make_memory()
        shadow = Untouchable()
        payload = (1.0, 2, 0.0)  # a snapshot-restored message is a tuple
        assert apply_message(recv_mem, shadow, rbase, payload, []) == 0
        got = recv_mem.read_block(rbase, 3)
        assert got == [1.0, 2, 0.0] and type(got[1]) is int
        assert len(shadow) == 0 and not shadow.ever_contaminated

    def test_delivery_copies_the_payload(self):
        # one payload list is delivered to every rank of a collective
        a, abase = make_memory()
        b, bbase = make_memory()
        payload = [1.0, 2.0]
        apply_message(a, ShadowTable(), abase, payload, [])
        apply_message(b, None, bbase, payload, [])
        a.store(abase, 9.0)
        assert payload == [1.0, 2.0] and b.load(bbase) == 1.0

    def test_invalid_target_traps(self):
        recv_mem, rbase = make_memory(4)
        with pytest.raises(Trap):
            apply_message(recv_mem, None, rbase, [0.0] * 100, [])


class TestPropagationTrace:
    def make_trace(self):
        tr = PropagationTrace()
        tr.sample(0, [0, 0], 100, 0)
        tr.sample(10, [3, 0], 100, 1)
        tr.sample(20, [5, 2], 100, 2)
        tr.sample(30, [5, 1], 100, 2)
        return tr

    def test_totals(self):
        tr = self.make_trace()
        assert list(tr.total_cml()) == [0, 3, 7, 6]
        assert tr.final_cml == 6
        assert tr.peak_cml == 7

    def test_peak_fraction(self):
        tr = self.make_trace()
        assert tr.peak_cml_fraction == pytest.approx(0.07)

    def test_peak_fraction_uses_live_words_per_sample(self):
        tr = PropagationTrace()
        tr.sample(0, [8], 1000, 1)
        tr.sample(1, [8], 16, 1)   # memory shrank: fraction jumps
        assert tr.peak_cml_fraction == pytest.approx(0.5)

    def test_rank_spread_series_deduplicates(self):
        tr = self.make_trace()
        assert tr.rank_spread_series() == [(0, 0), (10, 1), (20, 2)]

    def test_empty_trace(self):
        tr = PropagationTrace()
        assert tr.final_cml == 0
        assert tr.peak_cml == 0
        assert tr.peak_cml_fraction == 0.0
        assert list(tr.total_cml()) == []

    def test_times_array_dtype(self):
        tr = self.make_trace()
        assert tr.times_array().dtype == np.int64
