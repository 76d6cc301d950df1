//! Deterministic fault-injection plan.
//!
//! A [`FaultPlan`] describes every fault the simulator may inject into a
//! run: link bandwidth degradation windows, transient link-down windows,
//! per-packet drop/corruption, a straggling GPU, and merge-table entry
//! faults. The plan is pure configuration — each consuming layer forks its
//! own [`JitterRng`](crate::rng::JitterRng) stream from [`FaultPlan::seed`],
//! so identical seeds yield byte-identical fault timelines regardless of
//! worker count or host.
//!
//! The default plan injects nothing, and every consumer gates its fault
//! path on [`FaultPlan::is_active`] (or the relevant sub-spec being
//! `None`/zero), so a default plan is provably zero-cost to results: no RNG
//! stream is created and no timing arithmetic changes.

use crate::time::{SimDuration, SimTime};

/// Retransmission protocol parameters for faulted links.
///
/// A packet whose final segment is dropped (or corrupted) is detected at
/// the would-be delivery instant — modelling a NACK/timeout round — and
/// requeued at the head of its virtual channel after an exponential
/// backoff: `backoff_base * 2^(min(attempt-1, backoff_cap_exp))`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetxConfig {
    /// Backoff before the first retransmission.
    pub backoff_base: SimDuration,
    /// Exponent cap: backoff never exceeds `backoff_base << backoff_cap_exp`.
    pub backoff_cap_exp: u32,
    /// Retransmit budget per packet. A packet dropped more than this many
    /// times is force-delivered (so the simulation always terminates) and
    /// counted as a budget exhaustion, which the engine surfaces as a
    /// typed error at the end of the run.
    pub max_retries: u32,
}

impl Default for RetxConfig {
    fn default() -> Self {
        RetxConfig {
            backoff_base: SimDuration::from_ns(500),
            backoff_cap_exp: 6,
            max_retries: 8,
        }
    }
}

/// Periodic link bandwidth degradation windows.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeSpec {
    /// Transfer-time multiplier inside a window (`2.0` = half bandwidth).
    /// Must be `>= 1.0`.
    pub factor: f64,
    /// Window period per link (phase is drawn per link from the fault RNG).
    pub period: SimDuration,
    /// Window length; must not exceed `period`.
    pub duration: SimDuration,
}

/// Periodic transient link-down windows.
#[derive(Debug, Clone, PartialEq)]
pub struct DownSpec {
    /// Window period per link (phase is drawn per link from the fault RNG).
    pub period: SimDuration,
    /// Outage length; must not exceed `period`.
    pub duration: SimDuration,
}

/// A single straggling GPU whose compute phases run slower.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerSpec {
    /// Index of the straggling GPU.
    pub gpu: usize,
    /// Compute-time multiplier (`1.5` = 50% slower). Must be `>= 1.0`.
    pub compute_factor: f64,
}

/// Merge-table entry faults (soft errors in switch SRAM).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeFaultSpec {
    /// Per-entry fault probability at each sweep tick.
    pub rate: f64,
    /// After this many entry faults on one port, the port degrades to the
    /// unmerged NVLS-style forwarding path instead of merging.
    pub degrade_threshold: u32,
}

/// Complete fault-injection plan for one simulation run.
///
/// `FaultPlan::default()` injects nothing and leaves every result
/// byte-identical to a run without the fault subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed for all fault RNG streams (forked per consumer).
    pub seed: u64,
    /// Per-packet drop probability on every link.
    pub drop_rate: f64,
    /// Per-packet corruption probability (detected at the receiver; takes
    /// the same retransmit path as a drop but is counted separately).
    pub corrupt_rate: f64,
    /// Periodic bandwidth degradation, if any.
    pub degrade: Option<DegradeSpec>,
    /// Periodic transient link outages, if any.
    pub link_down: Option<DownSpec>,
    /// One straggling GPU, if any.
    pub straggler: Option<StragglerSpec>,
    /// Merge-table entry faults, if any.
    pub merge_faults: Option<MergeFaultSpec>,
    /// Retransmission protocol parameters (only used when link faults are
    /// active).
    pub retx: RetxConfig,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA17,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            degrade: None,
            link_down: None,
            straggler: None,
            merge_faults: None,
            retx: RetxConfig::default(),
        }
    }
}

impl FaultPlan {
    /// True if any fault kind is configured.
    pub fn is_active(&self) -> bool {
        self.link_faults_active()
            || self.straggler.is_some()
            || self.merge_faults.as_ref().is_some_and(|m| m.rate > 0.0)
    }

    /// True if any link-level fault (drop, corruption, degradation or
    /// outage) is configured; gates construction of the fabric fault state.
    pub fn link_faults_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.degrade.is_some()
            || self.link_down.is_some()
    }

    /// Sets the root fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-packet drop probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the per-packet corruption probability.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Adds periodic bandwidth-degradation windows.
    pub fn with_degrade(mut self, spec: DegradeSpec) -> Self {
        self.degrade = Some(spec);
        self
    }

    /// Adds periodic link outages.
    pub fn with_link_down(mut self, spec: DownSpec) -> Self {
        self.link_down = Some(spec);
        self
    }

    /// Marks one GPU as a straggler.
    pub fn with_straggler(mut self, spec: StragglerSpec) -> Self {
        self.straggler = Some(spec);
        self
    }

    /// Adds merge-table entry faults.
    pub fn with_merge_faults(mut self, spec: MergeFaultSpec) -> Self {
        self.merge_faults = Some(spec);
        self
    }
}

/// A periodic window schedule in raw picoseconds, with a per-instance
/// phase so different links fault at different (but deterministic) times.
///
/// Window `k` covers `[phase + k*period, phase + k*period + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSchedule {
    period_ps: u64,
    duration_ps: u64,
    phase_ps: u64,
}

impl WindowSchedule {
    /// Builds a schedule. `duration` is clamped to `period` and a zero
    /// period disables the schedule (never active).
    pub fn new(period: SimDuration, duration: SimDuration, phase: SimDuration) -> Self {
        let period_ps = period.as_ps();
        WindowSchedule {
            period_ps,
            duration_ps: duration.as_ps().min(period_ps),
            phase_ps: phase.as_ps(),
        }
    }

    /// If `t` falls inside a window, returns the window's end instant.
    pub fn active_until(&self, t: SimTime) -> Option<SimTime> {
        if self.period_ps == 0 || self.duration_ps == 0 {
            return None;
        }
        let rel = t.as_ps().checked_sub(self.phase_ps)?;
        let into = rel % self.period_ps;
        if into < self.duration_ps {
            Some(SimTime::from_ps(t.as_ps() - into + self.duration_ps))
        } else {
            None
        }
    }

    /// True if `t` falls inside a window.
    pub fn is_active(&self, t: SimTime) -> bool {
        self.active_until(t).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        assert!(!p.link_faults_active());
    }

    #[test]
    fn builders_activate_the_right_gates() {
        assert!(FaultPlan::default()
            .with_drop_rate(1e-3)
            .link_faults_active());
        assert!(FaultPlan::default()
            .with_corrupt_rate(1e-3)
            .link_faults_active());
        assert!(FaultPlan::default()
            .with_degrade(DegradeSpec {
                factor: 2.0,
                period: SimDuration::from_us(10),
                duration: SimDuration::from_us(1),
            })
            .link_faults_active());
        let straggle = FaultPlan::default().with_straggler(StragglerSpec {
            gpu: 3,
            compute_factor: 1.5,
        });
        assert!(straggle.is_active());
        assert!(!straggle.link_faults_active());
        // A merge-fault spec with zero rate stays inactive.
        let zero_merge = FaultPlan::default().with_merge_faults(MergeFaultSpec {
            rate: 0.0,
            degrade_threshold: 4,
        });
        assert!(!zero_merge.is_active());
    }

    #[test]
    fn window_schedule_covers_periodic_intervals() {
        let w = WindowSchedule::new(
            SimDuration::from_ns(100),
            SimDuration::from_ns(30),
            SimDuration::from_ns(10),
        );
        // Before the phase: inactive.
        assert!(!w.is_active(SimTime::from_ns(5)));
        // Window 0: [10, 40).
        assert_eq!(
            w.active_until(SimTime::from_ns(10)),
            Some(SimTime::from_ns(40))
        );
        assert_eq!(
            w.active_until(SimTime::from_ns(39)),
            Some(SimTime::from_ns(40))
        );
        assert!(!w.is_active(SimTime::from_ns(40)));
        assert!(!w.is_active(SimTime::from_ns(109)));
        // Window 1: [110, 140).
        assert_eq!(
            w.active_until(SimTime::from_ns(120)),
            Some(SimTime::from_ns(140))
        );
    }

    #[test]
    fn window_schedule_degenerate_cases() {
        let never = WindowSchedule::new(
            SimDuration::ZERO,
            SimDuration::from_ns(5),
            SimDuration::ZERO,
        );
        assert!(!never.is_active(SimTime::from_ns(3)));
        let zero_len = WindowSchedule::new(
            SimDuration::from_ns(10),
            SimDuration::ZERO,
            SimDuration::ZERO,
        );
        assert!(!zero_len.is_active(SimTime::ZERO));
        // Duration longer than period clamps to always-on.
        let full = WindowSchedule::new(
            SimDuration::from_ns(10),
            SimDuration::from_ns(50),
            SimDuration::ZERO,
        );
        for ns in 0..30 {
            assert!(full.is_active(SimTime::from_ns(ns)));
        }
    }
}
