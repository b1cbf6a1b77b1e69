//! The engine's queue of fault-completion wakeups.
//!
//! A thin wrapper over `std`'s `BinaryHeap<Reverse<(u64, usize)>>`: pop
//! order is ascending `(wake, tid)`, ties broken by the lower thread id —
//! the property the cycle-exact golden tests pin. The queue holds one entry
//! per outstanding fault, at most one per thread plus the stale entries of
//! threads that were unloaded and requeued before their wake, and its
//! `O(log n)` sift work grows no cliff at large thread counts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-queue of `(wake, tid)` wakeups.
#[derive(Debug, Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl TimerQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Outstanding wakeups.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no wakeups are outstanding.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every outstanding wakeup, ascending by `(wake, tid)`. Pop order is a
    /// pure function of this multiset, so it is all a checkpoint needs to
    /// capture.
    pub fn entries(&self) -> Vec<(u64, usize)> {
        let mut out: Vec<(u64, usize)> = self.heap.iter().map(|&Reverse(e)| e).collect();
        out.sort_unstable();
        out
    }

    /// Rebuilds a queue at time `now` from [`TimerQueue::entries`] output.
    ///
    /// # Errors
    ///
    /// Rejects entries that wake before `now` — a valid capture taken after
    /// the engine drained its due wakeups can never contain one.
    pub fn from_entries(now: u64, entries: &[(u64, usize)]) -> Result<TimerQueue, String> {
        if let Some(&(wake, tid)) = entries.iter().find(|&&(wake, _)| wake < now) {
            return Err(format!(
                "timer entry for thread {tid} wakes at {wake}, before restore time {now}"
            ));
        }
        Ok(TimerQueue { heap: entries.iter().map(|&e| Reverse(e)).collect() })
    }

    /// Schedules `tid` to wake at cycle `wake`.
    pub fn push(&mut self, wake: u64, tid: usize) {
        self.heap.push(Reverse((wake, tid)));
    }

    /// Removes and returns the earliest wakeup with `wake <= now`, ties
    /// broken by lower tid.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, usize)> {
        match self.heap.peek() {
            Some(&Reverse((wake, _))) if wake <= now => self.heap.pop().map(|Reverse(e)| e),
            _ => None,
        }
    }

    /// The earliest outstanding wake cycle, due or not.
    pub fn next_wake(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((wake, _))| wake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_wake_then_tid_order() {
        let mut t = TimerQueue::new();
        t.push(50, 2);
        t.push(50, 1);
        t.push(10, 9);
        assert_eq!(t.len(), 3);
        assert_eq!(t.pop_due(100), Some((10, 9)));
        assert_eq!(t.pop_due(100), Some((50, 1)));
        assert_eq!(t.pop_due(100), Some((50, 2)));
        assert_eq!(t.pop_due(100), None);
        assert!(t.is_empty());
    }

    #[test]
    fn not_due_is_not_popped() {
        let mut t = TimerQueue::new();
        t.push(5, 0);
        assert_eq!(t.pop_due(4), None);
        assert_eq!(t.next_wake(), Some(5));
        assert_eq!(t.pop_due(5), Some((5, 0)));
    }

    #[test]
    fn same_wake_same_tid_duplicates_survive() {
        // A stale event plus a fresh one can collide exactly; both pop.
        let mut t = TimerQueue::new();
        t.push(40, 5);
        t.push(40, 5);
        assert_eq!(t.pop_due(40), Some((40, 5)));
        assert_eq!(t.pop_due(40), Some((40, 5)));
        assert_eq!(t.pop_due(40), None);
    }

    #[test]
    fn from_entries_rejects_wakes_before_now() {
        assert!(TimerQueue::from_entries(10, &[(10, 0), (12, 1)]).is_ok());
        let err = TimerQueue::from_entries(10, &[(12, 1), (9, 3)]).unwrap_err();
        assert!(err.contains("thread 3"), "{err}");
    }

    /// One step of a timer schedule, as the engine drives it.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push a wake `delay` cycles after `now` (0 = due immediately).
        Push { delay: u64, tid: usize },
        /// Push an exact copy of the earliest outstanding `(wake, tid)`,
        /// when it is not already overdue.
        Duplicate,
        PopDue,
        NextWake,
        /// Advance `now` by a step.
        Step(u64),
        /// Advance `now` to the next wake (the engine's idle jump).
        Idle,
        /// Rebuild the queue from its own entries, as a checkpoint does.
        RoundTrip,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            5 => (0u64..5000, 0usize..32).prop_map(|(delay, tid)| Op::Push { delay, tid }),
            1 => (0u64..4, 0usize..4).prop_map(|(delay, tid)| Op::Push { delay, tid }),
            1 => Just(Op::Duplicate),
            4 => Just(Op::PopDue),
            1 => Just(Op::NextWake),
            2 => (0u64..200).prop_map(Op::Step),
            1 => (0u64..20_000).prop_map(Op::Step),
            1 => Just(Op::Idle),
            1 => Just(Op::RoundTrip),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Contract test against a sorted-`Vec` model under monotone `now`
        /// and pushes at or after `now`: every pop, next-wake query, length
        /// and mid-schedule `entries()` → `from_entries` rebuild agrees.
        #[test]
        fn matches_sorted_vec_model_under_random_schedules(
            ops in prop::collection::vec(arb_op(), 1..400),
        ) {
            let mut queue = TimerQueue::new();
            let mut model: Vec<(u64, usize)> = Vec::new(); // ascending
            let mut now = 0u64;
            for op in &ops {
                match *op {
                    Op::Push { delay, tid } => {
                        queue.push(now + delay, tid);
                        let e = (now + delay, tid);
                        let at = model.partition_point(|&m| m <= e);
                        model.insert(at, e);
                    }
                    Op::Duplicate => {
                        if let Some(&(wake, tid)) = model.first().filter(|e| e.0 >= now) {
                            queue.push(wake, tid);
                            model.insert(0, (wake, tid));
                        }
                    }
                    Op::PopDue => {
                        let want = match model.first() {
                            Some(&e) if e.0 <= now => Some(model.remove(0)),
                            _ => None,
                        };
                        prop_assert_eq!(queue.pop_due(now), want, "now {}", now);
                    }
                    Op::NextWake => {
                        prop_assert_eq!(queue.next_wake(), model.first().map(|e| e.0));
                    }
                    Op::Step(dt) => now += dt,
                    Op::Idle => {
                        if let Some(&(wake, _)) = model.first() {
                            now = now.max(wake);
                        }
                    }
                    Op::RoundTrip => {
                        // A checkpoint is taken after the engine drains its
                        // due wakeups; drain both sides first, then rebuild.
                        while let Some(e) = queue.pop_due(now) {
                            prop_assert_eq!(e, model.remove(0));
                        }
                        prop_assert!(model.first().is_none_or(|e| e.0 > now));
                        let entries = queue.entries();
                        prop_assert_eq!(&entries, &model);
                        queue = TimerQueue::from_entries(now, &entries)
                            .map_err(TestCaseError::fail)?;
                    }
                }
                prop_assert_eq!(queue.len(), model.len());
            }
            // Drain both to the end.
            while let Some(e) = queue.pop_due(u64::MAX) {
                prop_assert_eq!(e, model.remove(0));
            }
            prop_assert!(model.is_empty() && queue.is_empty());
        }
    }
}
