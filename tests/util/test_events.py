"""Tests for the cycle calendar."""

from repro.util.events import CycleCalendar


class TestCycleCalendar:
    def test_run_due_runs_everything_at_or_before(self):
        cal = CycleCalendar()
        fired = []
        cal.schedule(3, lambda: fired.append(3))
        cal.schedule(1, lambda: fired.append(1))
        cal.schedule(7, lambda: fired.append(7))
        cal.run_due(5)
        assert fired == [1, 3]
        assert len(cal) == 1
        cal.run_due(7)
        assert fired == [1, 3, 7]
        assert not cal

    def test_same_cycle_insertion_order(self):
        cal = CycleCalendar()
        fired = []
        for i in range(5):
            cal.schedule(2, lambda i=i: fired.append(i))
        cal.run_due(2)
        assert fired == [0, 1, 2, 3, 4]

    def test_next_cycle(self):
        cal = CycleCalendar()
        assert cal.next_cycle() is None
        cal.schedule(9, lambda: None)
        cal.schedule(4, lambda: None)
        assert cal.next_cycle() == 4
        cal.run_due(4)
        assert cal.next_cycle() == 9

    def test_no_stale_past_keys(self):
        # The dict-of-lists predecessor left entries scheduled for a
        # cycle that had already been drained unreachable forever; the
        # heap runs them on the next drain instead.
        cal = CycleCalendar()
        fired = []
        cal.run_due(10)
        cal.schedule(3, lambda: fired.append("late-scheduled"))
        cal.run_due(10)
        assert fired == ["late-scheduled"]

    def test_action_may_reschedule(self):
        cal = CycleCalendar()
        fired = []
        cal.schedule(1, lambda: cal.schedule(5, lambda: fired.append(5)))
        cal.run_due(1)
        assert cal.next_cycle() == 5
        cal.run_due(5)
        assert fired == [5]

