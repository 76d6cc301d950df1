//! The switch-side Group Sync Table (paper Fig. 8b).
//!
//! Tracks pre-launch and pre-access synchronization requests per TB
//! group; once every participating GPU has registered, a release is
//! broadcast to all GPUs. The exchange uses empty packets, so the cost is
//! one round trip (~0.5 µs in the paper's setup).

use gpu_sim::SyncKind;
use sim_core::{FastHash, GpuId, GroupId, SimDuration, SimTime, SmallVec};
use std::collections::HashMap;

/// Per-(group, kind) synchronization state.
#[derive(Debug, Default)]
struct SyncEntry {
    /// Distinct GPUs registered so far; inline up to 8 (one DGX node).
    arrived: SmallVec<GpuId, 8>,
    first: Option<SimTime>,
}

/// The Group Sync Table.
#[derive(Debug, Default)]
pub struct GroupSyncTable {
    entries: HashMap<(GroupId, SyncKind), SyncEntry, FastHash>,
    releases: u64,
    wait_sum_ps: u128,
    wait_count: u64,
}

impl GroupSyncTable {
    /// Creates an empty table.
    pub fn new() -> GroupSyncTable {
        GroupSyncTable::default()
    }

    /// Registers `gpu`'s sync request for `group`, which has
    /// `participants` GPUs in total. Returns `true` when the group is now
    /// complete and the caller must broadcast the release.
    pub fn register(
        &mut self,
        now: SimTime,
        group: GroupId,
        gpu: GpuId,
        kind: SyncKind,
        participants: u32,
    ) -> bool {
        let entry = self.entries.entry((group, kind)).or_default();
        entry.first.get_or_insert(now);
        if !entry.arrived.contains(&gpu) {
            entry.arrived.push(gpu);
        }
        if entry.arrived.len() as u32 >= participants {
            let entry = self.entries.remove(&(group, kind)).expect("entry exists");
            self.releases += 1;
            self.wait_sum_ps += now
                .saturating_since(entry.first.expect("first set"))
                .as_ps() as u128;
            self.wait_count += 1;
            true
        } else {
            false
        }
    }

    /// Number of completed releases.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Groups currently waiting.
    pub fn open_groups(&self) -> usize {
        self.entries.len()
    }

    /// Mean first-to-last registration delay across completed groups.
    pub fn mean_wait(&self) -> SimDuration {
        if self.wait_count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.wait_sum_ps / self.wait_count as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SyncKind::{PreAccess, PreLaunch};

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn releases_when_all_gpus_register() {
        let mut s = GroupSyncTable::new();
        assert!(!s.register(t(1), GroupId(0), GpuId(0), PreLaunch, 3));
        assert!(!s.register(t(2), GroupId(0), GpuId(1), PreLaunch, 3));
        assert_eq!(s.open_groups(), 1);
        assert!(s.register(t(4), GroupId(0), GpuId(2), PreLaunch, 3));
        assert_eq!(s.releases(), 1);
        assert_eq!(s.open_groups(), 0);
        assert_eq!(s.mean_wait(), SimDuration::from_us(3));
    }

    #[test]
    fn duplicate_registrations_do_not_double_count() {
        let mut s = GroupSyncTable::new();
        assert!(!s.register(t(1), GroupId(0), GpuId(0), PreLaunch, 3));
        assert!(!s.register(t(2), GroupId(0), GpuId(0), PreLaunch, 3));
        assert!(!s.register(t(3), GroupId(0), GpuId(1), PreLaunch, 3));
        assert!(s.register(t(4), GroupId(0), GpuId(2), PreLaunch, 3));
    }

    #[test]
    fn kinds_are_independent() {
        let mut s = GroupSyncTable::new();
        assert!(!s.register(t(1), GroupId(5), GpuId(0), PreLaunch, 2));
        assert!(!s.register(t(1), GroupId(5), GpuId(0), PreAccess, 2));
        assert!(s.register(t(2), GroupId(5), GpuId(1), PreLaunch, 2));
        assert!(s.register(t(2), GroupId(5), GpuId(1), PreAccess, 2));
        assert_eq!(s.releases(), 2);
    }

    #[test]
    fn participants_shrink_group() {
        // On an 8-GPU system a fetcher row that skips its owner has 7
        // participants and a two-GPU group has 2; neither waits for 8.
        let mut s = GroupSyncTable::new();
        assert!(!s.register(t(1), GroupId(9), GpuId(0), PreLaunch, 2));
        assert!(s.register(t(2), GroupId(9), GpuId(1), PreLaunch, 2));
        for g in 1..7u16 {
            assert!(!s.register(t(3), GroupId(3), GpuId(g), PreAccess, 7));
        }
        assert!(s.register(t(4), GroupId(3), GpuId(7), PreAccess, 7));
        assert_eq!(s.open_groups(), 0);
    }
}
