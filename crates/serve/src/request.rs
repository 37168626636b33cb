//! The request boundary: untrusted streams in, a validated SoA queue out.
//!
//! Everything downstream of [`ingest`] may assume host ids are in range,
//! `src != dst`, and arrivals lie inside the simulated day — the serving
//! hot path never re-checks and never panics on request data. Anything
//! violating those invariants is rejected here, per request, with a
//! [`ServeError`] carrying the offending values; one malformed request
//! out of a million costs exactly one rejection line, never the batch.

use std::fmt;
use std::ops::Range;

/// One unvalidated request as it arrives off the wire / generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRequest {
    /// Source host id (unvalidated).
    pub src: usize,
    /// Destination host id (unvalidated).
    pub dst: usize,
    /// Step at which the request arrives (unvalidated).
    pub arrival_step: usize,
    /// Per-request deadline: no re-attempt later than
    /// `arrival_step + deadline_steps`. The retry policy's own deadline
    /// still applies; the effective deadline is the minimum of the two.
    pub deadline_steps: usize,
    /// Priority class; classes at or above [`PRIORITY_CLASSES`] fold into
    /// the top class for reporting.
    pub priority: u8,
}

/// Number of priority classes tracked in reports.
pub const PRIORITY_CLASSES: usize = 4;

/// Why a request was rejected at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// `src` is not a host id of this simulator.
    SrcOutOfRange { src: usize, hosts: usize },
    /// `dst` is not a host id of this simulator.
    DstOutOfRange { dst: usize, hosts: usize },
    /// `src == dst` — a zero-hop request distributes nothing.
    Degenerate { node: usize },
    /// The arrival step lies outside the simulated day.
    ArrivalOutOfRange { arrival: usize, steps: usize },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::SrcOutOfRange { src, hosts } => {
                write!(f, "src {src} out of range (hosts: {hosts})")
            }
            ServeError::DstOutOfRange { dst, hosts } => {
                write!(f, "dst {dst} out of range (hosts: {hosts})")
            }
            ServeError::Degenerate { node } => {
                write!(f, "degenerate request: src == dst == {node}")
            }
            ServeError::ArrivalOutOfRange { arrival, steps } => {
                write!(f, "arrival step {arrival} out of range (steps: {steps})")
            }
        }
    }
}

/// A validated batch in structure-of-arrays form, stably sorted by arrival
/// step and pre-grouped into per-arrival ranges. Within a group, requests
/// keep their stream order (the sort is stable), so serving order — and
/// with it every artifact — is deterministic.
#[derive(Debug, Clone, Default)]
pub struct RequestQueue {
    src: Vec<usize>,
    dst: Vec<usize>,
    arrival: Vec<usize>,
    deadline: Vec<usize>,
    priority: Vec<u8>,
    /// Index of each accepted request in the original stream.
    original: Vec<usize>,
    /// `(arrival_step, queue index range)` per distinct arrival, ascending.
    groups: Vec<(usize, Range<usize>)>,
}

impl RequestQueue {
    /// Number of accepted requests.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when nothing was accepted.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// The distinct arrival steps, ascending.
    pub fn arrival_steps(&self) -> Vec<usize> {
        self.groups.iter().map(|(step, _)| *step).collect()
    }

    /// The `(arrival, queue range)` groups, ascending by arrival.
    pub fn groups(&self) -> &[(usize, Range<usize>)] {
        &self.groups
    }

    /// The queue index range of the group arriving at `step`, if any.
    pub fn group_range(&self, step: usize) -> Option<Range<usize>> {
        self.groups
            .binary_search_by_key(&step, |(s, _)| *s)
            .ok()
            .map(|i| self.groups[i].1.clone())
    }

    /// Source host of queue entry `i`.
    #[inline]
    pub fn src(&self, i: usize) -> usize {
        self.src[i]
    }

    /// Destination host of queue entry `i`.
    #[inline]
    pub fn dst(&self, i: usize) -> usize {
        self.dst[i]
    }

    /// Arrival step of queue entry `i`.
    #[inline]
    pub fn arrival(&self, i: usize) -> usize {
        self.arrival[i]
    }

    /// Per-request deadline (steps after arrival) of queue entry `i`.
    #[inline]
    pub fn deadline(&self, i: usize) -> usize {
        self.deadline[i]
    }

    /// Priority of queue entry `i`.
    #[inline]
    pub fn priority(&self, i: usize) -> u8 {
        self.priority[i]
    }

    /// Reporting class of queue entry `i` (priorities above the top class
    /// fold into it).
    #[inline]
    pub fn class(&self, i: usize) -> usize {
        (self.priority[i] as usize).min(PRIORITY_CLASSES - 1)
    }

    /// Original stream index of queue entry `i`.
    #[inline]
    pub fn original_index(&self, i: usize) -> usize {
        self.original[i]
    }
}

/// Why `r` is refused by a simulator with `hosts` hosts and `steps` time
/// steps, if it is.
fn check(r: &RawRequest, hosts: usize, steps: usize) -> Option<ServeError> {
    if r.src >= hosts {
        Some(ServeError::SrcOutOfRange { src: r.src, hosts })
    } else if r.dst >= hosts {
        Some(ServeError::DstOutOfRange { dst: r.dst, hosts })
    } else if r.src == r.dst {
        Some(ServeError::Degenerate { node: r.src })
    } else if r.arrival_step >= steps {
        Some(ServeError::ArrivalOutOfRange {
            arrival: r.arrival_step,
            steps,
        })
    } else {
        None
    }
}

/// Validate `stream` against a simulator with `hosts` hosts and `steps`
/// time steps. Accepted requests land in the queue (stably sorted by
/// arrival); each rejected request is reported as its stream index plus
/// the reason. Never panics, for any input.
///
/// The sort is a counting sort: accepted arrivals are below `steps`, so
/// one count per arrival step, their prefix sums and a scatter in stream
/// order give the stable order in O(requests + steps). The count table
/// ends at the largest accepted arrival, so a rejected arrival never sizes
/// it.
pub fn ingest(
    hosts: usize,
    steps: usize,
    stream: &[RawRequest],
) -> (RequestQueue, Vec<(usize, ServeError)>) {
    let mut rejected = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    for (i, r) in stream.iter().enumerate() {
        match check(r, hosts, steps) {
            Some(e) => rejected.push((i, e)),
            None => {
                if counts.len() <= r.arrival_step {
                    counts.resize(r.arrival_step + 1, 0);
                }
                counts[r.arrival_step] += 1;
            }
        }
    }

    // Each arrival's first queue slot, and its group.
    let mut groups = Vec::new();
    let mut next = Vec::with_capacity(counts.len());
    let mut start = 0;
    for (step, &count) in counts.iter().enumerate() {
        next.push(start);
        if count > 0 {
            groups.push((step, start..start + count));
        }
        start += count;
    }
    let accepted = start;
    let mut queue = RequestQueue {
        src: vec![0; accepted],
        dst: vec![0; accepted],
        arrival: vec![0; accepted],
        deadline: vec![0; accepted],
        priority: vec![0; accepted],
        original: vec![0; accepted],
        groups,
    };
    for (i, r) in stream.iter().enumerate() {
        if check(r, hosts, steps).is_some() {
            continue;
        }
        let slot = next[r.arrival_step];
        next[r.arrival_step] += 1;
        queue.src[slot] = r.src;
        queue.dst[slot] = r.dst;
        queue.arrival[slot] = r.arrival_step;
        queue.deadline[slot] = r.deadline_steps;
        queue.priority[slot] = r.priority;
        queue.original[slot] = i;
    }
    (queue, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(src: usize, dst: usize, arrival: usize) -> RawRequest {
        RawRequest {
            src,
            dst,
            arrival_step: arrival,
            deadline_steps: 20,
            priority: 0,
        }
    }

    #[test]
    fn valid_stream_is_fully_accepted_and_grouped() {
        let stream = vec![raw(0, 1, 5), raw(2, 3, 0), raw(1, 0, 5), raw(3, 2, 0)];
        let (q, rejected) = ingest(4, 10, &stream);
        assert!(rejected.is_empty());
        assert_eq!(q.len(), 4);
        assert_eq!(q.arrival_steps(), vec![0, 5]);
        // Stable within groups: stream order preserved.
        let g0 = q.group_range(0).unwrap();
        assert_eq!(
            (g0.clone().map(|i| q.original_index(i)).collect::<Vec<_>>()),
            vec![1, 3]
        );
        let g5 = q.group_range(5).unwrap();
        assert_eq!(
            (g5.clone().map(|i| q.original_index(i)).collect::<Vec<_>>()),
            vec![0, 2]
        );
        assert!(q.group_range(3).is_none());
    }

    #[test]
    fn each_invalid_request_is_rejected_with_its_reason() {
        let stream = vec![
            raw(9, 1, 0),          // src out of range
            raw(0, 9, 0),          // dst out of range
            raw(2, 2, 0),          // degenerate
            raw(0, 1, 10),         // arrival out of range
            raw(0, 1, 9),          // fine
            raw(usize::MAX, 0, 0), // extreme src
        ];
        let (q, rejected) = ingest(4, 10, &stream);
        assert_eq!(q.len(), 1);
        assert_eq!(q.original_index(0), 4);
        assert_eq!(rejected.len(), 5);
        assert_eq!(
            rejected[0],
            (0, ServeError::SrcOutOfRange { src: 9, hosts: 4 })
        );
        assert_eq!(
            rejected[1],
            (1, ServeError::DstOutOfRange { dst: 9, hosts: 4 })
        );
        assert_eq!(rejected[2], (2, ServeError::Degenerate { node: 2 }));
        assert_eq!(
            rejected[3],
            (
                3,
                ServeError::ArrivalOutOfRange {
                    arrival: 10,
                    steps: 10
                }
            )
        );
        assert_eq!(
            rejected[4],
            (
                5,
                ServeError::SrcOutOfRange {
                    src: usize::MAX,
                    hosts: 4
                }
            )
        );
    }

    #[test]
    fn empty_stream_yields_empty_queue() {
        let (q, rejected) = ingest(4, 10, &[]);
        assert!(q.is_empty());
        assert!(rejected.is_empty());
        assert!(q.arrival_steps().is_empty());
    }

    #[test]
    fn priority_classes_fold_at_the_top() {
        let stream = vec![
            RawRequest {
                priority: 0,
                ..raw(0, 1, 0)
            },
            RawRequest {
                priority: 3,
                ..raw(0, 1, 0)
            },
            RawRequest {
                priority: 200,
                ..raw(0, 1, 0)
            },
        ];
        let (q, _) = ingest(4, 10, &stream);
        assert_eq!(q.class(0), 0);
        assert_eq!(q.class(1), 3);
        assert_eq!(q.class(2), 3);
    }

    #[test]
    fn errors_render_their_values() {
        let e = ServeError::ArrivalOutOfRange {
            arrival: 99,
            steps: 10,
        };
        assert_eq!(e.to_string(), "arrival step 99 out of range (steps: 10)");
    }
}
