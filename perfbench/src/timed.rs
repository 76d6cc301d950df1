//! A [`SwitchLogic`] wrapper that times every call into the switch.
//!
//! The traced pass installs `TimedLogic` around the logic returned by
//! `Strategy::switch_logic`. It adds the wall time and allocations of
//! each `on_packet`/`on_timer` call to a tally the benchmark reads once
//! the run has consumed the simulator, and forwards everything else
//! unchanged, so the run's results are those of the bare logic.

use crate::alloc;
use noc_sim::{Packet, Payload, SwitchCtx, SwitchLogic};
use sim_core::{AuditProbe, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// What the switch layer did during one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwitchTally {
    /// Calls into the logic (packets plus timers).
    pub calls: u64,
    /// Wall time spent inside those calls.
    pub nanos: u64,
    /// Allocations made inside those calls (0 unless counting is on).
    pub allocs: u64,
}

/// Times the calls into `L`, adding them to a shared [`SwitchTally`].
pub struct TimedLogic<L> {
    inner: L,
    tally: Rc<Cell<SwitchTally>>,
}

impl<L> TimedLogic<L> {
    /// Wraps `inner`; the caller keeps a clone of `tally` to read after
    /// the run.
    pub fn new(inner: L, tally: Rc<Cell<SwitchTally>>) -> TimedLogic<L> {
        TimedLogic { inner, tally }
    }

    fn timed(&mut self, call: impl FnOnce(&mut L)) {
        let (t0, a0) = (Instant::now(), alloc::count());
        call(&mut self.inner);
        let nanos = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::count() - a0;
        let mut t = self.tally.get();
        t.calls += 1;
        t.nanos += nanos;
        t.allocs += allocs;
        self.tally.set(t);
    }
}

impl<P: Payload, L: SwitchLogic<P>> SwitchLogic<P> for TimedLogic<L> {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<P>, ctx: &mut SwitchCtx<P>) {
        self.timed(|l| l.on_packet(now, pkt, ctx));
    }

    fn on_timer(&mut self, now: SimTime, key: u64, ctx: &mut SwitchCtx<P>) {
        self.timed(|l| l.on_timer(now, key, ctx));
    }

    fn stats(&self) -> Vec<(String, f64)> {
        self.inner.stats()
    }

    fn audit_probe(&self, probe: &mut AuditProbe) {
        self.inner.audit_probe(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Fabric, FabricConfig, FlowClass};
    use sim_core::{AuditPhase, GpuId, PlaneId, SimDuration};

    #[derive(Debug, Clone)]
    struct Blob;

    impl Payload for Blob {
        fn data_bytes(&self) -> u64 {
            64
        }
        fn class(&self) -> FlowClass {
            FlowClass::Bulk
        }
    }

    /// Forwards packets, arms one timer per packet, and reports a
    /// counter and a deliberately broken ledger.
    #[derive(Default)]
    struct Probe {
        packets: u64,
        timers: u64,
    }

    impl SwitchLogic<Blob> for Probe {
        fn on_packet(&mut self, now: SimTime, pkt: Packet<Blob>, ctx: &mut SwitchCtx<Blob>) {
            self.packets += 1;
            ctx.set_timer(now + SimDuration::from_ns(10), 7);
            ctx.forward(pkt);
        }
        fn on_timer(&mut self, _now: SimTime, _key: u64, _ctx: &mut SwitchCtx<Blob>) {
            self.timers += 1;
        }
        fn stats(&self) -> Vec<(String, f64)> {
            vec![
                ("probe.packets".into(), self.packets as f64),
                ("probe.timers".into(), self.timers as f64),
            ]
        }
        fn audit_probe(&self, probe: &mut AuditProbe) {
            probe.ledger("probe", "packets == 0", 0, self.packets);
        }
    }

    fn run_two_packets() -> (Fabric<Blob, TimedLogic<Probe>>, SwitchTally) {
        let tally = Rc::new(Cell::new(SwitchTally::default()));
        let logic = TimedLogic::new(Probe::default(), Rc::clone(&tally));
        let mut f = Fabric::new(FabricConfig::default_for(2, 1), logic);
        for dst in [GpuId(1), GpuId(0)] {
            f.inject(SimTime::ZERO, GpuId(1 - dst.0), dst, PlaneId(0), Blob);
        }
        f.run_to_completion();
        (f, tally.get())
    }

    #[test]
    fn counts_every_packet_and_timer_call() {
        let (mut f, tally) = run_two_packets();
        assert_eq!(f.drain_deliveries().len(), 2);
        assert_eq!(tally.calls, 4, "two packets plus two timers");
        assert_eq!(f.logic().inner.packets, 2);
        assert_eq!(f.logic().inner.timers, 2);
    }

    #[test]
    fn forwards_stats() {
        let (f, _) = run_two_packets();
        assert_eq!(f.logic().stats(), f.logic().inner.stats());
        assert_eq!(
            f.logic().stats(),
            vec![
                ("probe.packets".to_string(), 2.0),
                ("probe.timers".to_string(), 2.0)
            ]
        );
    }

    #[test]
    fn forwards_audit_probe() {
        let (f, _) = run_two_packets();
        let mut probe = AuditProbe::new(AuditPhase::Quiescence);
        f.logic().audit_probe(&mut probe);
        let v = probe.violations();
        assert_eq!(v.len(), 1, "the inner ledger must reach the probe");
        assert_eq!((v[0].subsystem, v[0].actual), ("probe", 2));
    }
}
