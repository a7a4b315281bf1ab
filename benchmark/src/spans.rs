//! Closed spans rebuilt from a drained `relax_trace::Trace`, with self times.
//!
//! A span's self time is its duration minus the durations of the child
//! spans nested in it *on the same thread*. A span stitched under a parent
//! on another thread (a worker's step under the session opened by the
//! scheduler) runs in parallel with that parent's thread and takes nothing
//! from its self time.

use std::collections::HashMap;

use relax_trace::{EventKind, Trace};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub tid: u64,
    pub cat: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Every closed synchronous span of the trace, in closing order.
pub fn closed_spans(trace: &Trace) -> Vec<Span> {
    // Per thread: the open spans, each with the time its closed children took.
    let mut open: HashMap<u64, Vec<(u64, u64, u64)>> = HashMap::new();
    let mut out = Vec::new();
    for e in &trace.events {
        match e.kind {
            EventKind::Begin => open.entry(e.tid).or_default().push((e.id, e.ts_ns, 0)),
            EventKind::End => {
                let stack = open.entry(e.tid).or_default();
                let Some(&(id, start_ns, children_ns)) = stack.last() else {
                    continue;
                };
                if id != e.id {
                    continue; // Not balanced: `Trace::validate` reports it.
                }
                stack.pop();
                let dur_ns = e.ts_ns.saturating_sub(start_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur_ns;
                }
                out.push(Span {
                    tid: e.tid,
                    cat: e.cat,
                    name: e.name.clone(),
                    start_ns,
                    dur_ns,
                    self_ns: dur_ns.saturating_sub(children_ns),
                });
            }
            _ => {}
        }
    }
    out
}

/// Total duration and self time, in nanoseconds, of the spans a predicate selects.
pub fn total(spans: &[Span], pick: impl Fn(&Span) -> bool) -> (u64, u64) {
    spans.iter().filter(|s| pick(s)).fold((0, 0), |(d, s), sp| (d + sp.dur_ns, s + sp.self_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_trace::{Payload, TraceEvent};

    fn event(
        seq: u64,
        ts_ns: u64,
        tid: u64,
        kind: EventKind,
        id: u64,
        parent: Option<u64>,
        name: &str,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            ts_ns,
            tid,
            kind,
            id,
            parent,
            cat: "test",
            name: name.into(),
            payload: Payload::None,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        use EventKind::{Begin, End, Instant};
        // Thread 1: root [0,100] ⊃ a [10,40] ⊃ a1 [20,30]; sibling b [50,70].
        // Thread 2: x [15,95], stitched under root across threads.
        let events = vec![
            event(1, 0, 1, Begin, 1, None, "root"),
            event(2, 10, 1, Begin, 2, Some(1), "a"),
            event(3, 15, 2, Begin, 5, Some(1), "x"),
            event(4, 20, 1, Begin, 3, Some(2), "a1"),
            event(5, 25, 1, Instant, 9, Some(3), "tick"),
            event(6, 30, 1, End, 3, None, "a1"),
            event(7, 40, 1, End, 2, None, "a"),
            event(8, 50, 1, Begin, 4, Some(1), "b"),
            event(9, 70, 1, End, 4, None, "b"),
            event(10, 95, 2, End, 5, None, "x"),
            event(11, 100, 1, End, 1, None, "root"),
        ];
        let spans = closed_spans(&Trace { events, dropped: 0 });
        let by = |name: &str| spans.iter().find(|s| s.name == name).unwrap().clone();
        assert_eq!((by("a1").dur_ns, by("a1").self_ns), (10, 10));
        assert_eq!((by("a").dur_ns, by("a").self_ns), (30, 20)); // nested child
        assert_eq!((by("b").dur_ns, by("b").self_ns), (20, 20));
        // Siblings a and b both come off the root; the cross-thread x does not.
        assert_eq!((by("root").dur_ns, by("root").self_ns), (100, 50));
        assert_eq!((by("x").tid, by("x").dur_ns, by("x").self_ns), (2, 80, 80));
        // Self times of one thread's spans add up to its root's duration.
        assert_eq!(total(&spans, |s| s.tid == 1).1, 100);
        assert_eq!(total(&spans, |s| s.name.starts_with('a')), (40, 30));
    }

    #[test]
    fn an_unclosed_span_is_left_out() {
        let events = vec![
            event(1, 0, 1, EventKind::Begin, 1, None, "open"),
            event(2, 5, 1, EventKind::Begin, 2, Some(1), "closed"),
            event(3, 9, 1, EventKind::End, 2, None, "closed"),
        ];
        let spans = closed_spans(&Trace { events, dropped: 0 });
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "closed");
    }
}
