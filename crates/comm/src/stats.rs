//! Communication accounting.
//!
//! Everything the paper's evaluation section measures about messages is
//! recorded here, by the engine rather than by the algorithm, so that
//! different fold/expand strategies are compared fairly:
//!
//! * vertices sent and received per operation class (expand vs fold —
//!   Table 1's "Avg. Message Length per Level" columns),
//! * wire-level receptions per rank (ring algorithms forward messages,
//!   and the paper counts every reception — see the Figure 7 discussion),
//! * duplicates eliminated by union reductions per rank (numerator of the
//!   Figure 7 *redundancy ratio*),
//! * message counts and the peak single-message buffer size (§3.1).

use serde::{Deserialize, Serialize};

/// Which logical BFS operation a message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Frontier propagation down a processor-column (paper steps 7–11).
    Expand,
    /// Neighbor delivery across a processor-row (paper steps 13–18).
    Fold,
    /// Everything else (termination detection, meet detection, ...).
    Control,
}

impl OpClass {
    /// Stable index for array-backed per-class storage.
    pub fn index(self) -> usize {
        match self {
            OpClass::Expand => 0,
            OpClass::Fold => 1,
            OpClass::Control => 2,
        }
    }

    /// All classes, in index order.
    pub const ALL: [OpClass; 3] = [OpClass::Expand, OpClass::Fold, OpClass::Control];
}

/// Counters for one operation class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Wire messages sent (after chunking).
    pub messages: u64,
    /// Vertices placed on the wire (each forwarding hop of a ring
    /// algorithm counts again — this is transit volume).
    pub wire_verts: u64,
    /// Vertices received at final destinations (payload-level volume; a
    /// vertex forwarded through a ring counts once per reception, matching
    /// the paper's "total number of vertices received by a processor").
    pub received_verts: u64,
    /// Uncompressed payload volume in bytes (`wire_verts × 8`,
    /// excluding self-sends).
    #[serde(default)]
    pub logical_bytes: u64,
    /// Bytes actually placed on the wire after the codec (equals
    /// `logical_bytes` with the codec off).
    #[serde(default)]
    pub wire_bytes: u64,
}

impl ClassStats {
    fn minus(&self, o: &ClassStats) -> ClassStats {
        ClassStats {
            messages: self.messages - o.messages,
            wire_verts: self.wire_verts - o.wire_verts,
            received_verts: self.received_verts - o.received_verts,
            logical_bytes: self.logical_bytes - o.logical_bytes,
            wire_bytes: self.wire_bytes - o.wire_bytes,
        }
    }
}

/// Counters for injected faults and the protocol work they caused.
///
/// All-zero for fault-free runs (and for runs under `FaultPlan::none()`),
/// so adding these fields never perturbs the fault-free statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Delivery attempts lost in transit (sender retried after an ack
    /// timeout).
    pub drops_injected: u64,
    /// Delivery attempts that arrived truncated (receiver rejected the
    /// short payload; the garbled bytes did transit the wire).
    pub truncations_injected: u64,
    /// Spurious duplicate deliveries (detected and discarded by the
    /// receiver's sequence check).
    pub duplicates_injected: u64,
    /// Retransmissions performed (failed attempts that were retried).
    pub retransmissions: u64,
    /// Extra hops taken by routes detouring around dead links/nodes,
    /// summed over messages.
    pub detour_hops: u64,
    /// Rank-death recoveries completed (checkpoint restore + replay).
    pub recoveries: u64,
}

impl FaultStats {
    /// Whether any fault was observed.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }

    /// Add `o`'s counters into `self`.
    pub fn merge(&mut self, o: &FaultStats) {
        self.drops_injected += o.drops_injected;
        self.truncations_injected += o.truncations_injected;
        self.duplicates_injected += o.duplicates_injected;
        self.retransmissions += o.retransmissions;
        self.detour_hops += o.detour_hops;
        self.recoveries += o.recoveries;
    }

    fn minus(&self, o: &FaultStats) -> FaultStats {
        FaultStats {
            drops_injected: self.drops_injected - o.drops_injected,
            truncations_injected: self.truncations_injected - o.truncations_injected,
            duplicates_injected: self.duplicates_injected - o.duplicates_injected,
            retransmissions: self.retransmissions - o.retransmissions,
            detour_hops: self.detour_hops - o.detour_hops,
            recoveries: self.recoveries - o.recoveries,
        }
    }
}

/// Counters for the hybrid vertex-set kernels (host-side representation
/// choices; all zero when the hybrid layer is disabled).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetOpStats {
    /// Union operations executed on the sorted-list representation.
    pub list_unions: u64,
    /// Union operations executed on the bitmap representation
    /// (word-wise OR).
    pub bitmap_unions: u64,
    /// List → bitmap representation switches (density threshold
    /// crossings).
    pub densify_switches: u64,
}

impl SetOpStats {
    fn minus(&self, o: &SetOpStats) -> SetOpStats {
        SetOpStats {
            list_unions: self.list_unions - o.list_unions,
            bitmap_unions: self.bitmap_unions - o.bitmap_unions,
            densify_switches: self.densify_switches - o.densify_switches,
        }
    }
}

/// Cumulative communication statistics for a world of `p` ranks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    per_class: [ClassStats; 3],
    /// Vertices received per rank (wire-level receptions).
    pub received_per_rank: Vec<u64>,
    /// Duplicate vertices eliminated by union reductions, per rank
    /// (counted at the rank that performed the union).
    pub dups_eliminated_per_rank: Vec<u64>,
    /// Largest single wire message observed, in vertices (§3.1 peak
    /// buffer requirement).
    pub peak_buffer_verts: usize,
    /// Injected-fault counters (all zero on fault-free runs).
    pub faults: FaultStats,
    /// Hybrid set-kernel counters.
    #[serde(default)]
    pub setops: SetOpStats,
}

impl CommStats {
    /// Fresh zeroed statistics for `p` ranks.
    pub fn new(p: usize) -> Self {
        Self {
            per_class: [ClassStats::default(); 3],
            received_per_rank: vec![0; p],
            dups_eliminated_per_rank: vec![0; p],
            peak_buffer_verts: 0,
            faults: FaultStats::default(),
            setops: SetOpStats::default(),
        }
    }

    /// Number of ranks this accounting covers.
    pub fn ranks(&self) -> usize {
        self.received_per_rank.len()
    }

    /// Counters for one class.
    pub fn class(&self, c: OpClass) -> &ClassStats {
        &self.per_class[c.index()]
    }

    /// Record one wire message of `verts` vertices to `dst`.
    pub fn note_message(&mut self, class: OpClass, dst: usize, verts: usize, chunks: u64) {
        let cs = &mut self.per_class[class.index()];
        cs.messages += chunks;
        cs.wire_verts += verts as u64;
        cs.received_verts += verts as u64;
        self.received_per_rank[dst] += verts as u64;
    }

    /// Record one message's codec outcome: `logical` payload bytes
    /// carried as `wire` bytes on the physical links.
    pub fn note_wire_bytes(&mut self, class: OpClass, logical: u64, wire: u64) {
        let cs = &mut self.per_class[class.index()];
        cs.logical_bytes += logical;
        cs.wire_bytes += wire;
    }

    /// Uncompressed payload bytes across all classes.
    pub fn total_logical_bytes(&self) -> u64 {
        self.per_class.iter().map(|c| c.logical_bytes).sum()
    }

    /// Post-codec bytes across all classes.
    pub fn total_wire_bytes(&self) -> u64 {
        self.per_class.iter().map(|c| c.wire_bytes).sum()
    }

    /// Compression ratio `logical / wire` (1.0 when nothing was sent or
    /// the codec is off and sizes match).
    pub fn compression_ratio(&self) -> f64 {
        let wire = self.total_wire_bytes();
        if wire == 0 {
            1.0
        } else {
            self.total_logical_bytes() as f64 / wire as f64
        }
    }

    /// Record the size of a single wire message (after chunking) so the
    /// peak buffer requirement can be reported.
    pub fn note_peak(&mut self, verts: usize) {
        self.peak_buffer_verts = self.peak_buffer_verts.max(verts);
    }

    /// Record `n` duplicates eliminated by a union performed at `rank`.
    pub fn note_dups(&mut self, rank: usize, n: usize) {
        self.dups_eliminated_per_rank[rank] += n as u64;
    }

    /// Total vertices received across all ranks.
    pub fn total_received(&self) -> u64 {
        self.received_per_rank.iter().sum()
    }

    /// Total duplicates eliminated across all ranks.
    pub fn total_dups_eliminated(&self) -> u64 {
        self.dups_eliminated_per_rank.iter().sum()
    }

    /// The Figure 7 redundancy ratio, in percent: duplicates eliminated
    /// by union operations divided by total vertices received. Duplicates
    /// are removed *before* transmission, so the ratio is computed
    /// against what would have been received without elimination.
    pub fn redundancy_ratio_percent(&self) -> f64 {
        let dups = self.total_dups_eliminated() as f64;
        let recv = self.total_received() as f64;
        if dups + recv == 0.0 {
            0.0
        } else {
            100.0 * dups / (dups + recv)
        }
    }

    /// Counter-wise difference `self - earlier` (both cumulative
    /// snapshots of the same world). Peak buffer is carried from `self`.
    pub fn minus(&self, earlier: &CommStats) -> CommStats {
        assert_eq!(self.ranks(), earlier.ranks());
        CommStats {
            per_class: [
                self.per_class[0].minus(&earlier.per_class[0]),
                self.per_class[1].minus(&earlier.per_class[1]),
                self.per_class[2].minus(&earlier.per_class[2]),
            ],
            received_per_rank: self
                .received_per_rank
                .iter()
                .zip(&earlier.received_per_rank)
                .map(|(a, b)| a - b)
                .collect(),
            dups_eliminated_per_rank: self
                .dups_eliminated_per_rank
                .iter()
                .zip(&earlier.dups_eliminated_per_rank)
                .map(|(a, b)| a - b)
                .collect(),
            peak_buffer_verts: self.peak_buffer_verts,
            faults: self.faults.minus(&earlier.faults),
            setops: self.setops.minus(&earlier.setops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_message_updates_all_counters() {
        let mut s = CommStats::new(4);
        s.note_message(OpClass::Fold, 2, 100, 1);
        s.note_message(OpClass::Fold, 2, 50, 2);
        s.note_message(OpClass::Expand, 0, 10, 1);
        s.note_peak(100);
        s.note_peak(50);
        assert_eq!(s.class(OpClass::Fold).messages, 3);
        assert_eq!(s.class(OpClass::Fold).wire_verts, 150);
        assert_eq!(s.received_per_rank[2], 150);
        assert_eq!(s.received_per_rank[0], 10);
        assert_eq!(s.peak_buffer_verts, 100);
        assert_eq!(s.total_received(), 160);
    }

    #[test]
    fn redundancy_ratio() {
        let mut s = CommStats::new(2);
        s.note_message(OpClass::Fold, 0, 80, 1);
        s.note_dups(0, 20);
        // 20 eliminated out of 100 that would have arrived.
        assert!((s.redundancy_ratio_percent() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn redundancy_ratio_empty_is_zero() {
        assert_eq!(CommStats::new(3).redundancy_ratio_percent(), 0.0);
    }

    #[test]
    fn minus_gives_per_window_counts() {
        let mut s = CommStats::new(2);
        s.note_message(OpClass::Expand, 1, 10, 1);
        let snap = s.clone();
        s.note_message(OpClass::Expand, 1, 30, 1);
        let d = s.minus(&snap);
        assert_eq!(d.class(OpClass::Expand).received_verts, 30);
        assert_eq!(d.received_per_rank[1], 30);
    }

    #[test]
    fn fault_counters_merge_and_subtract() {
        let mut s = CommStats::new(2);
        assert!(!s.faults.any(), "fresh stats carry no faults");
        s.faults.drops_injected = 4;
        s.faults.retransmissions = 5;
        let snap = s.clone();
        s.faults.drops_injected += 2;
        s.faults.recoveries += 1;
        let d = s.minus(&snap);
        assert_eq!(d.faults.drops_injected, 2);
        assert_eq!(d.faults.recoveries, 1);
        assert_eq!(d.faults.retransmissions, 0);
        assert!(s.faults.any());
    }

    #[test]
    fn wire_byte_counters_track_compression() {
        let mut s = CommStats::new(2);
        assert_eq!(s.compression_ratio(), 1.0);
        s.note_wire_bytes(OpClass::Fold, 800, 200);
        s.note_wire_bytes(OpClass::Expand, 200, 300);
        assert_eq!(s.total_logical_bytes(), 1000);
        assert_eq!(s.total_wire_bytes(), 500);
        assert!((s.compression_ratio() - 2.0).abs() < 1e-12);
        let snap = s.clone();
        s.note_wire_bytes(OpClass::Fold, 100, 50);
        let d = s.minus(&snap);
        assert_eq!(d.class(OpClass::Fold).logical_bytes, 100);
        assert_eq!(d.class(OpClass::Fold).wire_bytes, 50);
    }
}
