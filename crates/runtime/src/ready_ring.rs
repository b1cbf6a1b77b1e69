//! The scheduler's circular list of resident contexts.
//!
//! The paper implements the ready queue for loaded contexts "as a circular
//! linked list of register relocation masks", stored as a `NextRRM` mask in
//! each resident context (Figure 3). This module models that ring
//! symbolically for the discrete-event simulator: entries are thread
//! identifiers, and the cursor is the currently running context's position.
//! More elaborate policies (thread classes, priorities) are possible by
//! keeping several rings, exactly as the paper notes.

use serde::{Deserialize, Serialize};

/// A circular scheduling ring with a cursor, mirroring the `NextRRM` linked
/// list of resident contexts.
///
/// # Example
///
/// ```
/// use rr_runtime::ReadyRing;
///
/// let mut ring = ReadyRing::new();
/// ring.insert(7);
/// ring.insert(8);
/// ring.insert(9);
/// assert_eq!(ring.current(), Some(7));
/// assert_eq!(ring.advance(), Some(8));   // the ldrrm NextRRM hop
/// ring.remove(9);                        // context unloaded
/// assert_eq!(ring.advance(), Some(7));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadyRing {
    entries: Vec<usize>,
    cursor: usize,
}

impl ReadyRing {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident contexts in the ring.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `thread` is in the ring.
    pub fn contains(&self, thread: usize) -> bool {
        self.entries.contains(&thread)
    }

    /// Inserts a context just *behind* the cursor, so it is visited last in
    /// the current round-robin sweep — the same position a `NextRRM` splice
    /// at the tail would give it.
    pub fn insert(&mut self, thread: usize) {
        debug_assert!(!self.contains(thread), "thread {thread} already resident");
        if self.entries.is_empty() {
            self.entries.push(thread);
            self.cursor = 0;
        } else {
            // Invariant: a non-empty ring always has `cursor < entries.len()`
            // (every mutation preserves it). Splicing at the cursor and then
            // stepping over the new element therefore cannot run off the
            // end: `cursor + 1 <= old_len < new_len`, so no wrap is needed.
            self.entries.insert(self.cursor, thread);
            self.cursor += 1;
            debug_assert!(self.cursor < self.entries.len());
        }
    }

    /// Removes a context from the ring (e.g. on unload or completion).
    ///
    /// Returns whether the thread was present. The cursor stays on the same
    /// *next* element.
    pub fn remove(&mut self, thread: usize) -> bool {
        match self.entries.iter().position(|&t| t == thread) {
            None => false,
            Some(pos) => {
                self.entries.remove(pos);
                if pos < self.cursor {
                    self.cursor -= 1;
                }
                if !self.entries.is_empty() && self.cursor >= self.entries.len() {
                    self.cursor = 0;
                }
                true
            }
        }
    }

    /// The context under the cursor, without advancing.
    pub fn current(&self) -> Option<usize> {
        self.entries.get(self.cursor).copied()
    }

    /// Advances the cursor one position and returns the context now under
    /// it — the `ldrrm NextRRM` transfer of control.
    pub fn advance(&mut self) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        self.cursor = (self.cursor + 1) % self.entries.len();
        self.current()
    }

    /// Iterates one full sweep starting from the element *after* the cursor,
    /// in ring order (the order the scheduler would test contexts).
    ///
    /// Implemented as two chained slice halves, so the per-element modulo
    /// (and its bounds check) stays out of the scheduler's inner loop.
    pub fn sweep(&self) -> impl Iterator<Item = usize> + '_ {
        let split = if self.entries.is_empty() { 0 } else { self.cursor + 1 };
        let (head, tail) = self.entries.split_at(split);
        tail.iter().chain(head.iter()).copied()
    }

    /// The `i`-th element of [`ReadyRing::sweep`]'s order, without building
    /// an iterator — lets a caller walk the sweep by index while mutably
    /// borrowing itself between probes. `i` must be below `len()`.
    #[inline]
    pub fn nth_in_sweep(&self, i: usize) -> usize {
        self.entries[self.sweep_index(i)]
    }

    /// Moves the cursor onto the `i`-th element of [`ReadyRing::sweep`]'s
    /// order — the hop count a sweep search already found, so the cursor
    /// moves without searching the ring a second time. `i` must be below
    /// `len()`.
    #[inline]
    pub fn focus_in_sweep(&mut self, i: usize) {
        self.cursor = self.sweep_index(i);
    }

    /// Position in `entries` of the `i`-th element of the sweep.
    #[inline]
    fn sweep_index(&self, i: usize) -> usize {
        let n = self.entries.len();
        debug_assert!(i < n);
        let idx = self.cursor + 1 + i;
        if idx >= n { idx - n } else { idx }
    }

    /// Iterates one full sweep starting *at* the cursor (the running
    /// context first), in ring order — the traversal a timeline consumer
    /// wants when rendering residency, without the allocation a
    /// `Vec`-returning accessor would cost.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (head, tail) = self.entries.split_at(self.cursor.min(self.entries.len()));
        tail.iter().chain(head.iter()).copied()
    }

    /// Moves the cursor onto `thread`.
    ///
    /// Returns whether the thread was present.
    pub fn focus(&mut self, thread: usize) -> bool {
        match self.entries.iter().position(|&t| t == thread) {
            None => false,
            Some(pos) => {
                self.cursor = pos;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_order() {
        let mut r = ReadyRing::new();
        for t in [10, 11, 12] {
            r.insert(t);
        }
        assert_eq!(r.current(), Some(10));
        assert_eq!(r.advance(), Some(11));
        assert_eq!(r.advance(), Some(12));
        assert_eq!(r.advance(), Some(10));
    }

    #[test]
    fn insert_lands_behind_cursor() {
        let mut r = ReadyRing::new();
        r.insert(1);
        r.insert(2);
        r.insert(3); // ring order from cursor: 1, 2, 3
        assert_eq!(r.sweep().collect::<Vec<_>>(), vec![2, 3, 1]);
        r.advance(); // now at 2
        r.insert(4); // visited after 3, 1
        assert_eq!(r.sweep().collect::<Vec<_>>(), vec![3, 1, 4, 2]);
    }

    #[test]
    fn removal_keeps_cursor_sane() {
        let mut r = ReadyRing::new();
        for t in 0..4 {
            r.insert(t);
        }
        r.advance(); // cursor on 1
        assert!(r.remove(1));
        // Cursor should now be on the next element (2).
        assert_eq!(r.current(), Some(2));
        assert!(r.remove(3));
        assert_eq!(r.sweep().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!r.remove(9));
    }

    #[test]
    fn remove_last_element_empties() {
        let mut r = ReadyRing::new();
        r.insert(5);
        assert!(r.remove(5));
        assert!(r.is_empty());
        assert_eq!(r.current(), None);
        assert_eq!(r.advance(), None);
    }

    #[test]
    fn remove_tail_wraps_cursor() {
        let mut r = ReadyRing::new();
        for t in 0..3 {
            r.insert(t);
        }
        r.advance();
        r.advance(); // cursor on 2 (tail)
        assert!(r.remove(2));
        assert_eq!(r.current(), Some(0));
    }

    #[test]
    fn insert_at_tail_cursor_keeps_current() {
        // Drive the cursor onto the last slot (the maximal legal position),
        // then insert: the spliced element lands just behind the cursor and
        // the running context stays under it. This is the configuration the
        // old unreachable wrap branch claimed to handle.
        let mut r = ReadyRing::new();
        for t in 0..3 {
            r.insert(t);
        }
        assert!(r.focus(2)); // cursor on the tail element
        r.insert(7);
        assert_eq!(r.current(), Some(2));
        assert_eq!(r.sweep().collect::<Vec<_>>(), vec![0, 1, 7, 2]);
        // Repeated tail inserts never move the cursor off its element.
        r.insert(8);
        r.insert(9);
        assert_eq!(r.current(), Some(2));
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn focus_moves_cursor() {
        let mut r = ReadyRing::new();
        for t in 0..3 {
            r.insert(t);
        }
        assert!(r.focus(2));
        assert_eq!(r.current(), Some(2));
        assert_eq!(r.advance(), Some(0));
        assert!(!r.focus(7));
    }

    #[test]
    fn sweep_of_singleton() {
        let mut r = ReadyRing::new();
        r.insert(9);
        assert_eq!(r.sweep().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn iter_starts_at_cursor() {
        let mut r = ReadyRing::new();
        for t in [10, 11, 12] {
            r.insert(t);
        }
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![10, 11, 12]);
        r.advance(); // cursor on 11
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![11, 12, 10]);
        // iter() is sweep() rotated one left: current first, not last.
        let mut sweep: Vec<_> = r.sweep().collect();
        sweep.rotate_right(1);
        assert_eq!(r.iter().collect::<Vec<_>>(), sweep);
    }

    #[test]
    fn iter_of_empty_ring_is_empty() {
        let r = ReadyRing::new();
        assert_eq!(r.iter().count(), 0);
    }
}
