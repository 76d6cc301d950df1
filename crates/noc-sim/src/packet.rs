//! Packets, payloads and flow classes.

use sim_core::{GpuId, PlaneId, SimTime};
use std::fmt;

/// Traffic class of a packet; determines its virtual channel.
///
/// The CAIS traffic-control mechanism (Sec. III-C-2) places *load* and
/// *reduction* traffic on separate virtual channels with round-robin
/// arbitration to avoid head-of-line blocking between the two asymmetric
/// flows. The remaining classes keep small control packets from queueing
/// behind bulk data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// Remote load request (small) or its in-switch forwarded form.
    LoadReq,
    /// Remote load response carrying data (downstream heavy).
    LoadResp,
    /// Reduction contribution carrying data (upstream heavy).
    Reduce,
    /// Collective bulk data (ring steps, NVLS push multicast).
    Bulk,
    /// TB-group synchronization and throttling credit messages (empty
    /// packets in the paper; header-only here).
    Sync,
    /// Acks and other small control messages.
    Control,
}

impl FlowClass {
    /// All classes, for exhaustive iteration in tests.
    pub const ALL: [FlowClass; 6] = [
        FlowClass::LoadReq,
        FlowClass::LoadResp,
        FlowClass::Reduce,
        FlowClass::Bulk,
        FlowClass::Sync,
        FlowClass::Control,
    ];

    /// Virtual-channel index for this class.
    ///
    /// With `traffic_control` enabled (full CAIS), loads and reductions get
    /// distinct data VCs; without it (CAIS-Partial and all baselines) every
    /// data class shares one VC, exposing head-of-line blocking.
    pub fn vc(self, traffic_control: bool) -> usize {
        match (self, traffic_control) {
            (FlowClass::Sync | FlowClass::Control | FlowClass::LoadReq, _) => 0,
            (_, false) => 1,
            (FlowClass::LoadResp, true) => 1,
            (FlowClass::Reduce, true) => 2,
            (FlowClass::Bulk, true) => 1,
        }
    }

    /// Number of virtual channels needed for a traffic-control setting.
    pub fn vc_count(traffic_control: bool) -> usize {
        if traffic_control {
            3
        } else {
            2
        }
    }
}

/// Data carried through the fabric.
///
/// Implementors are domain message types (engine-level `Msg`); the fabric
/// only needs the wire size and the flow class.
pub trait Payload: Clone + fmt::Debug {
    /// Payload bytes on the wire (excluding the per-packet header the
    /// fabric adds).
    fn data_bytes(&self) -> u64;
    /// Traffic class, which selects the virtual channel.
    fn class(&self) -> FlowClass;
}

/// Where a packet is travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hop {
    /// Ascending a GPU-to-switch link.
    ToSwitch,
    /// Descending a switch-to-GPU link.
    ToGpu,
}

/// A packet in flight.
#[derive(Debug, Clone)]
pub struct Packet<P> {
    /// Unique id within one fabric instance (diagnostics only).
    pub id: u64,
    /// Originating GPU (or the GPU the switch is acting for, when emitted
    /// by switch logic).
    pub src: GpuId,
    /// Destination GPU.
    pub dst: GpuId,
    /// Switch plane this packet traverses (deterministic per address).
    pub plane: PlaneId,
    /// Which half of the route the packet is currently on.
    pub hop: Hop,
    /// Drops and corruptions on the current hop, counted against the
    /// retransmit budget; zero whenever the packet is not being retried.
    pub attempts: u32,
    /// Domain payload.
    pub payload: P,
}

/// A payload delivered to a GPU endpoint.
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// Arrival time at the destination GPU.
    pub time: SimTime,
    /// Source GPU recorded in the packet.
    pub src: GpuId,
    /// The receiving GPU.
    pub dst: GpuId,
    /// Plane the packet arrived on.
    pub plane: PlaneId,
    /// The payload.
    pub payload: P,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_mapping_without_traffic_control_shares_data_vc() {
        assert_eq!(FlowClass::LoadResp.vc(false), FlowClass::Reduce.vc(false));
        assert_eq!(FlowClass::Bulk.vc(false), 1);
        assert_eq!(FlowClass::Sync.vc(false), 0);
    }

    #[test]
    fn vc_mapping_with_traffic_control_separates_load_and_reduce() {
        assert_ne!(FlowClass::LoadResp.vc(true), FlowClass::Reduce.vc(true));
    }

    #[test]
    fn vc_indices_within_bounds() {
        for tc in [false, true] {
            let n = FlowClass::vc_count(tc);
            for c in FlowClass::ALL {
                assert!(c.vc(tc) < n, "{c:?} vc out of range for tc={tc}");
            }
        }
    }

    #[test]
    fn control_classes_never_share_with_data() {
        for tc in [false, true] {
            for data in [FlowClass::LoadResp, FlowClass::Reduce, FlowClass::Bulk] {
                assert_ne!(FlowClass::Sync.vc(tc), data.vc(tc));
            }
        }
    }
}
