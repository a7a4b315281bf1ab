//! The admission deque: the one FIFO of units waiting to run.
//!
//! Plain data — the serving core keeps it under its state lock. It is
//! unbounded, so a producer never blocks and is never refused while the
//! core runs. Once the deque is closed a push hands the item *back*: who
//! resolves its ticket is the caller's decision, not the deque's.

use std::collections::VecDeque;
use std::time::Instant;

/// FIFO of `(deadline, item)`.
pub(crate) struct Admission<T> {
    items: VecDeque<(Option<Instant>, T)>,
    closed: bool,
}

impl<T> Admission<T> {
    pub(crate) fn new() -> Self {
        Admission {
            items: VecDeque::new(),
            closed: false,
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// New pushes fail from now on; what is waiting can still be taken.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Queues `item`, or hands it back once the deque is closed.
    pub(crate) fn push(&mut self, deadline: Option<Instant>, item: T) -> Result<(), T> {
        if self.closed {
            return Err(item);
        }
        self.items.push_back((deadline, item));
        Ok(())
    }

    /// Takes up to `max` items from the front, in arrival order.
    pub(crate) fn take(&mut self, max: usize) -> Vec<T> {
        let n = max.min(self.items.len());
        self.items.drain(..n).map(|(_, item)| item).collect()
    }

    /// Removes every item whose deadline is at or before `now`.
    pub(crate) fn take_overdue(&mut self, now: Instant) -> Vec<T> {
        let mut overdue = Vec::new();
        let mut i = 0;
        while i < self.items.len() {
            if self.items[i].0.is_some_and(|d| d <= now) {
                overdue.extend(self.items.remove(i).map(|(_, item)| item));
            } else {
                i += 1;
            }
        }
        overdue
    }

    /// The earliest deadline among the waiting items.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.items.iter().filter_map(|(d, _)| *d).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn batch_cap_is_respected_and_order_kept() {
        let mut q = Admission::new();
        for i in 0..5 {
            assert_eq!(q.push(None, i), Ok(()));
        }
        assert_eq!(q.take(2), vec![0, 1]);
        assert_eq!(q.take(2), vec![2, 3]);
        assert_eq!(q.take(2), vec![4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_drains_then_ends() {
        let mut q = Admission::new();
        assert_eq!(q.push(None, 1), Ok(()));
        q.close();
        assert_eq!(q.push(None, 2), Err(2)); // the item survives refusal
        assert_eq!(q.take(4), vec![1]);
        assert!(q.take(4).is_empty());
    }

    #[test]
    fn overdue_items_leave_in_order_and_the_rest_keep_theirs() {
        let mut q = Admission::new();
        let now = Instant::now();
        let later = now + Duration::from_secs(1);
        for (deadline, item) in [(Some(now), 1), (None, 2), (Some(later), 3), (Some(now), 4)] {
            assert_eq!(q.push(deadline, item), Ok(()));
        }
        assert_eq!(q.next_deadline(), Some(now));
        assert_eq!(q.take_overdue(now), vec![1, 4]);
        assert_eq!(q.next_deadline(), Some(later));
        assert_eq!(q.take(8), vec![2, 3]);
    }
}
