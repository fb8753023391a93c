//! Communication cost model (α–β–hop) with per-link traffic accounting.
//!
//! The simulated times reported by the benchmark harness come from this
//! model. A point-to-point transfer of `b` bytes over `h` hops costs
//!
//! ```text
//! t = α + h·t_hop + b / β
//! ```
//!
//! (cut-through routing: per-hop latency is paid once per hop for the
//! header, the payload streams at link bandwidth). `α` is the per-message
//! software overhead, `β` the link bandwidth, `t_hop` the router+wire
//! latency per hop. This is the standard model for torus machines and is
//! sufficient to reproduce the *relative* communication behaviour the
//! paper reports (1D vs 2D, ring vs direct collectives).
//!
//! [`LinkTraffic`] additionally accumulates bytes per directed physical
//! link along dimension-ordered routes, so experiments can report a
//! contention-aware lower bound: the busiest link's drain time.

use crate::coord::Coord3;
use crate::machine::{MachineConfig, MachineKind};
use crate::routing::{hop_distance, route_dimension_ordered};
use std::collections::BTreeMap;

/// The result of costing a single transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCost {
    /// Modelled elapsed time in seconds.
    pub seconds: f64,
    /// Payload bytes.
    pub bytes: u64,
    /// Physical hops traversed.
    pub hops: usize,
}

/// Analytic α–β–hop cost model bound to a machine configuration.
///
/// ```
/// use bgl_torus::{Coord3, CostModel, MachineConfig};
/// let cm = CostModel::new(MachineConfig::bluegene_l_half());
/// let near = cm.point_to_point(Coord3::new(0, 0, 0), Coord3::new(1, 0, 0), 8_000);
/// let far = cm.point_to_point(Coord3::new(0, 0, 0), Coord3::new(16, 16, 16), 8_000);
/// assert!(far.seconds > near.seconds); // more hops, same payload
/// assert_eq!(far.hops, 48);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    machine: MachineConfig,
}

impl CostModel {
    /// Build a cost model for the given machine.
    pub fn new(machine: MachineConfig) -> Self {
        Self { machine }
    }

    /// The underlying machine configuration.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Hop distance between two physical coordinates under this machine's
    /// interconnect (1 for any distinct pair on a flat network).
    pub fn hops(&self, a: Coord3, b: Coord3) -> usize {
        if a == b {
            return 0;
        }
        match self.machine.kind {
            MachineKind::Torus3D => hop_distance(self.machine.dims, a, b),
            MachineKind::Flat => 1,
        }
    }

    /// Cost of one point-to-point message of `bytes` payload over `hops`.
    fn point_to_point_hops(&self, hops: usize, bytes: u64) -> TransferCost {
        let m = &self.machine;
        let seconds = if hops == 0 && bytes == 0 {
            0.0
        } else {
            m.software_overhead + hops as f64 * m.hop_latency + bytes as f64 / m.link_bandwidth
        };
        TransferCost {
            seconds,
            bytes,
            hops,
        }
    }

    /// Cost of one point-to-point message between physical coordinates.
    pub fn point_to_point(&self, from: Coord3, to: Coord3, bytes: u64) -> TransferCost {
        self.point_to_point_hops(self.hops(from, to), bytes)
    }

    /// Modelled time to perform `probes` vertex hash probes (the paper's
    /// dominant compute cost).
    pub fn hash_time(&self, probes: u64) -> f64 {
        probes as f64 / self.machine.hash_rate
    }

    /// Modelled time to copy `bytes` within local memory.
    pub fn memcpy_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.machine.memcpy_bandwidth
    }

    /// Modelled time to encode or decode `bytes` of message payload
    /// through the wire codec (delta/varint or bitmap packing). Free
    /// when the machine declares no codec bandwidth.
    pub fn codec_time(&self, bytes: u64) -> f64 {
        if self.machine.codec_bandwidth > 0.0 {
            bytes as f64 / self.machine.codec_bandwidth
        } else {
            0.0
        }
    }
}

/// Accumulates bytes per directed physical link.
///
/// A directed link is identified by `(from, to)` where the nodes are
/// nearest neighbours. Traffic is attributed along dimension-ordered
/// routes; on a flat network every transfer uses a synthetic dedicated
/// link, so congestion reduces to per-endpoint serialization.
///
/// The map is ordered by link coordinates so [`Self::rows`] (and every
/// export built on it) emits links in sorted-key order — byte-stable
/// across runs, unlike `HashMap`'s process-random iteration.
#[derive(Debug, Default, Clone)]
pub struct LinkTraffic {
    per_link: BTreeMap<(Coord3, Coord3), u64>,
    total_bytes: u64,
    transfers: u64,
}

impl LinkTraffic {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a transfer from `a` to `b` of `bytes`, attributing traffic
    /// to every link of the dimension-ordered route.
    pub fn record(&mut self, machine: &MachineConfig, a: Coord3, b: Coord3, bytes: u64) {
        self.transfers += 1;
        self.total_bytes += bytes;
        if a == b {
            return;
        }
        match machine.kind {
            MachineKind::Torus3D => {
                for step in route_dimension_ordered(machine.dims, a, b) {
                    *self.per_link.entry((step.from, step.to)).or_insert(0) += bytes;
                }
            }
            MachineKind::Flat => {
                *self.per_link.entry((a, b)).or_insert(0) += bytes;
            }
        }
    }

    /// Total payload bytes recorded (counted once per transfer, not per hop).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of transfers recorded.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Bytes on the single busiest directed link.
    pub fn max_link_bytes(&self) -> u64 {
        self.per_link.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct directed links that carried any traffic.
    pub fn links_used(&self) -> usize {
        self.per_link.len()
    }

    /// Every link row in sorted-key order: `(from, to, bytes)`.
    pub fn rows(&self) -> impl Iterator<Item = (Coord3, Coord3, u64)> + '_ {
        self.per_link.iter().map(|(&(a, b), &bytes)| (a, b, bytes))
    }

    /// Total bytes summed over every directed link — i.e. Σ bytes × hops
    /// across all routed transfers (each transfer's bytes land once per
    /// link its route crosses). The trace subsystem's link heatmap must
    /// reproduce this number exactly from recorded send events.
    pub fn sum_link_bytes(&self) -> u64 {
        self.per_link.values().sum()
    }

    /// Contention-aware lower bound on drain time: the busiest link's
    /// bytes divided by link bandwidth.
    pub fn congestion_time(&self, machine: &MachineConfig) -> f64 {
        self.max_link_bytes() as f64 / machine.link_bandwidth
    }

    /// Clear all recorded traffic.
    pub fn clear(&mut self) {
        self.per_link.clear();
        self.total_bytes = 0;
        self.transfers = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::TorusDims;

    fn bgl() -> MachineConfig {
        MachineConfig::bluegene_l_partition(TorusDims::new(4, 4, 4))
    }

    #[test]
    fn p2p_cost_components() {
        let cm = CostModel::new(bgl());
        let c = cm.point_to_point_hops(4, 1000);
        let m = cm.machine();
        let expected = m.software_overhead + 4.0 * m.hop_latency + 1000.0 / m.link_bandwidth;
        assert!((c.seconds - expected).abs() < 1e-15);
        assert_eq!(c.bytes, 1000);
        assert_eq!(c.hops, 4);
    }

    #[test]
    fn zero_transfer_is_free() {
        let cm = CostModel::new(bgl());
        assert_eq!(cm.point_to_point_hops(0, 0).seconds, 0.0);
    }

    #[test]
    fn flat_network_single_hop() {
        let cm = CostModel::new(MachineConfig::mcr_cluster());
        let a = Coord3::new(0, 0, 0);
        let b = Coord3::new(900, 0, 0);
        assert_eq!(cm.hops(a, b), 1);
        assert_eq!(cm.hops(a, a), 0);
    }

    #[test]
    fn longer_messages_cost_more() {
        let cm = CostModel::new(bgl());
        let a = cm.point_to_point_hops(2, 100).seconds;
        let b = cm.point_to_point_hops(2, 100_000).seconds;
        assert!(b > a);
    }

    #[test]
    fn traffic_accounting_route_attribution() {
        let m = bgl();
        let mut t = LinkTraffic::new();
        let a = Coord3::new(0, 0, 0);
        let b = Coord3::new(2, 0, 0); // 2 hops
        t.record(&m, a, b, 500);
        assert_eq!(t.total_bytes(), 500);
        assert_eq!(t.transfers(), 1);
        assert_eq!(t.links_used(), 2);
        assert_eq!(t.max_link_bytes(), 500);
    }

    #[test]
    fn traffic_congestion_on_shared_link() {
        let m = bgl();
        let mut t = LinkTraffic::new();
        let a = Coord3::new(0, 0, 0);
        // Both routes start with link (0,0,0)->(1,0,0).
        t.record(&m, a, Coord3::new(1, 0, 0), 100);
        t.record(&m, a, Coord3::new(2, 0, 0), 100);
        assert_eq!(t.max_link_bytes(), 200);
        let drain = t.congestion_time(&m);
        assert!((drain - 200.0 / m.link_bandwidth).abs() < 1e-15);
    }

    #[test]
    fn self_transfer_uses_no_links() {
        let m = bgl();
        let mut t = LinkTraffic::new();
        let a = Coord3::new(1, 1, 1);
        t.record(&m, a, a, 999);
        assert_eq!(t.links_used(), 0);
        assert_eq!(t.total_bytes(), 999);
    }
}
