//! A fixed reference workload that measures how fast the host runs now.
//!
//! The benchmark's host may share its caches and memory bandwidth with
//! other work, and then its speed drifts by up to 2.5x over minutes.
//! Right after each job, the thread that ran it times this loop, and
//! the job's times are rescaled to a host on which one reference run
//! takes [`NOMINAL`] (see [`scale`]). The loop uses no simulator code,
//! so a change to the simulator cannot move it. Like the simulator, it
//! pops and pushes a binary-heap event queue and reads and writes a
//! table larger than a core's private caches; pure arithmetic, which
//! contention barely slows, would not track the drift. Measured on the
//! job's own thread and right after the job, it tracked jobs shorter
//! than a second; timed on another thread, or around passes of several
//! seconds, it did not.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference-run time on the nominal host the reported seconds refer to.
pub const NOMINAL: Duration = Duration::from_millis(16);

/// Entries in the random-access table (8 MiB of `u64`).
const TABLE: usize = 1 << 20;
/// Events popped from the queue per run.
const EVENTS: u64 = 150_000;
/// Timed runs per measurement; the median is kept.
const RUNS: usize = 3;

thread_local! {
    // One per thread, so that pool workers measure concurrently.
    static REFERENCE: RefCell<Reference> = RefCell::new(Reference::new());
}

/// Host time of the reference loop on this thread now: the median of
/// [`RUNS`] runs, after one untimed run that brings the table back into
/// the caches the simulator has just used.
pub fn measure() -> Duration {
    REFERENCE.with(|r| r.borrow_mut().measure())
}

/// Factor that rescales a host time to the nominal host, given the
/// reference time measured just after it: [`NOMINAL`] over `reference`.
pub fn scale(reference: Duration) -> f64 {
    NOMINAL.as_secs_f64() / reference.as_secs_f64()
}

/// The reference loop and its table, allocated once per thread so that
/// a run times the work and not the kernel faulting in fresh pages.
struct Reference {
    table: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Reference {
    /// Allocates and touches the table.
    fn new() -> Reference {
        Reference {
            table: vec![1; TABLE],
            queue: BinaryHeap::with_capacity(4096),
        }
    }

    fn measure(&mut self) -> Duration {
        self.time();
        let mut runs: Vec<Duration> = (0..RUNS).map(|_| self.time()).collect();
        runs.sort();
        runs[RUNS / 2]
    }

    /// Host time of one reference run.
    fn time(&mut self) -> Duration {
        let t0 = Instant::now();
        black_box(self.work());
        t0.elapsed()
    }

    /// The reference work: a queue of timed events, each reading and
    /// writing two random table slots and sometimes allocating a short
    /// list.
    fn work(&mut self) -> u64 {
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (table, queue) = (&mut self.table, &mut self.queue);
        queue.clear();
        for id in 0..4096u64 {
            queue.push(Reverse((next() % 1024, id)));
        }
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((time, id)) = queue.pop().expect("every pop is followed by a push");
            let a = (next() % TABLE as u64) as usize;
            let b = (next() % TABLE as u64) as usize;
            table[a] = table[a].wrapping_add(time ^ id);
            acc = acc.wrapping_add(table[b]);
            if id % 8 == 0 {
                let list: Vec<u64> = (0..id % 24).collect();
                acc = acc.wrapping_add(black_box(list).len() as u64);
            }
            queue.push(Reverse((time + 1 + next() % 1024, id)));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_rescales_to_the_nominal_host() {
        assert_eq!(scale(NOMINAL), 1.0);
        // A host running at half speed halves every time it reports.
        assert_eq!(scale(2 * NOMINAL), 0.5);
        assert!(measure() > Duration::ZERO);
    }
}
