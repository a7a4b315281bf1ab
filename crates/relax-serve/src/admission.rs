//! The admission deque: the one bounded FIFO of units waiting to run,
//! with watermark-driven overload control.
//!
//! Plain data — the serving core keeps it under its state lock. Producers
//! never block: a full deque is *backpressure*, reported to the submitter
//! instead of buffering without bound. Between "empty" and "full" an
//! optional [`OverloadPolicy`] adds two watermarks: at the *shed*
//! watermark each admission evicts the waiting unit with the least
//! deadline budget (when one expires sooner than the newcomer), and at
//! the *reject* watermark new work is refused outright. A refused push
//! hands the item *back*: who resolves its ticket is the caller's
//! decision, not the deque's.

use std::collections::VecDeque;
use std::time::Instant;

use crate::engine::{AdmissionLevel, OverloadPolicy};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The deque is at capacity (backpressure).
    Full,
    /// The reject watermark is refusing new work.
    Overloaded,
    /// The core is shutting down.
    Closed,
}

/// What `push` did with the item.
pub(crate) enum Push<T> {
    /// The item is waiting. `shed` carries a victim evicted by overload
    /// control to make room — the caller must resolve it.
    Admitted { shed: Option<T> },
    /// The item was not admitted; it comes back untouched with the reason.
    Refused { item: T, why: Refusal },
}

/// Bounded FIFO of `(deadline, item)`.
pub(crate) struct Admission<T> {
    items: VecDeque<(Option<Instant>, T)>,
    capacity: usize,
    overload: Option<OverloadPolicy>,
    closed: bool,
}

impl<T> Admission<T> {
    pub(crate) fn new(capacity: usize, overload: Option<OverloadPolicy>) -> Self {
        let capacity = capacity.max(1);
        Admission {
            items: VecDeque::new(),
            capacity,
            overload: overload.map(|p| p.clamped(capacity)),
            closed: false,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
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

    pub(crate) fn level(&self) -> AdmissionLevel {
        match self.overload {
            Some(p) if self.depth() >= p.reject_depth => AdmissionLevel::Reject,
            Some(p) if self.depth() >= p.shed_depth => AdmissionLevel::Shed,
            _ => AdmissionLevel::Accept,
        }
    }

    pub(crate) fn push(&mut self, deadline: Option<Instant>, item: T) -> Push<T> {
        let why = if self.closed {
            Some(Refusal::Closed)
        } else if self.depth() >= self.capacity {
            Some(Refusal::Full)
        } else if self.level() == AdmissionLevel::Reject {
            Some(Refusal::Overloaded)
        } else {
            None
        };
        if let Some(why) = why {
            return Push::Refused { item, why };
        }
        let shed = match self.level() {
            AdmissionLevel::Shed => self.shed_victim(deadline),
            _ => None,
        };
        self.items.push_back((deadline, item));
        Push::Admitted { shed }
    }

    /// Shed level: the deque churns toward later-deadline work. The victim
    /// is the waiting item with the earliest deadline — but only when it
    /// expires strictly sooner than the newcomer would (no deadline counts
    /// as never expiring). With no such victim the newcomer is admitted
    /// anyway and depth grows toward the reject mark.
    fn shed_victim(&mut self, incoming: Option<Instant>) -> Option<T> {
        let with_deadline = self
            .items
            .iter()
            .enumerate()
            .filter_map(|(i, (d, _))| Some((i, (*d)?)));
        let (pos, earliest) = with_deadline.min_by_key(|&(_, d)| d)?;
        if incoming.is_some_and(|d| d <= earliest) {
            return None;
        }
        self.items.remove(pos).map(|(_, victim)| victim)
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

    fn admit(q: &mut Admission<u32>, deadline: Option<Instant>, item: u32) -> Option<u32> {
        match q.push(deadline, item) {
            Push::Admitted { shed } => shed,
            Push::Refused { why, .. } => panic!("push refused: {why:?}"),
        }
    }

    fn refusal(q: &mut Admission<u32>, item: u32) -> (u32, Refusal) {
        match q.push(None, item) {
            Push::Refused { item, why } => (item, why),
            Push::Admitted { .. } => panic!("expected a refusal"),
        }
    }

    #[test]
    fn batch_cap_is_respected_and_order_kept() {
        let mut q = Admission::new(16, None);
        for i in 0..5 {
            assert_eq!(admit(&mut q, None, i), None);
        }
        assert_eq!(q.take(2), vec![0, 1]);
        assert_eq!(q.take(2), vec![2, 3]);
        assert_eq!(q.take(2), vec![4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_deque_pushes_back_and_returns_the_item() {
        let mut q = Admission::new(2, None);
        admit(&mut q, None, 1);
        admit(&mut q, None, 2);
        assert_eq!(refusal(&mut q, 3), (3, Refusal::Full)); // the item survives refusal
    }

    #[test]
    fn close_drains_then_ends() {
        let mut q = Admission::new(4, None);
        admit(&mut q, None, 1);
        q.close();
        assert_eq!(refusal(&mut q, 2), (2, Refusal::Closed));
        assert_eq!(q.take(4), vec![1]);
        assert!(q.take(4).is_empty());
    }

    #[test]
    fn reject_watermark_refuses_new_work() {
        let policy = OverloadPolicy {
            shed_depth: 2,
            reject_depth: 3,
        };
        let mut q = Admission::new(8, Some(policy));
        let now = Instant::now();
        // Decreasing deadlines: each incoming is the earliest, so no
        // eviction ever helps it and depth climbs to the reject mark.
        for (item, secs) in [(1, 12u64), (2, 11), (3, 10)] {
            assert_eq!(
                admit(&mut q, Some(now + Duration::from_secs(secs)), item),
                None
            );
        }
        assert_eq!(q.depth(), 3);
        assert_eq!(q.level(), AdmissionLevel::Reject);
        assert_eq!(refusal(&mut q, 4), (4, Refusal::Overloaded));
    }

    #[test]
    fn shed_watermark_evicts_the_earliest_deadline() {
        let policy = OverloadPolicy {
            shed_depth: 2,
            reject_depth: 8,
        };
        let mut q = Admission::new(8, Some(policy));
        let now = Instant::now();
        let at = |secs: u64| Some(now + Duration::from_secs(secs));
        assert_eq!(admit(&mut q, at(5), 1), None);
        assert_eq!(admit(&mut q, at(1), 2), None);
        assert_eq!(q.level(), AdmissionLevel::Shed);
        // Depth 2 == shed watermark: admitting item 3 (10s of budget)
        // evicts item 2 (1s of budget, the least).
        assert_eq!(admit(&mut q, at(10), 3), Some(2));
        assert_eq!(q.depth(), 2);
        // An incoming item with *less* budget than everything waiting is
        // admitted without an eviction (depth grows toward reject).
        assert_eq!(admit(&mut q, Some(now + Duration::from_millis(1)), 4), None);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn overdue_items_leave_in_order_and_the_rest_keep_theirs() {
        let mut q = Admission::new(8, None);
        let now = Instant::now();
        admit(&mut q, Some(now), 1);
        admit(&mut q, None, 2);
        admit(&mut q, Some(now + Duration::from_secs(1)), 3);
        admit(&mut q, Some(now), 4);
        assert_eq!(q.next_deadline(), Some(now));
        assert_eq!(q.take_overdue(now), vec![1, 4]);
        assert_eq!(q.next_deadline(), Some(now + Duration::from_secs(1)));
        assert_eq!(q.take(8), vec![2, 3]);
    }
}
