//! Torus link-utilization heatmap.
//!
//! Replays a trace's point-to-point [`EventKind::Send`] events over the
//! machine's dimension-ordered routes and accumulates bytes per directed
//! physical link — the same attribution rule as the cost model's
//! `LinkTraffic`, so for a fault-free run the heatmap's total equals the
//! α–β–hop accounting's Σ bytes × hops exactly (the acceptance test pins
//! this). On a flat machine every pair is one pseudo-link.
//!
//! Requires event-level detail ([`crate::TraceDetail::Event`]): sends
//! are not recorded at span detail.

use crate::event::{EventKind, TraceEvent};
use crate::json;
use bgl_torus::{route_dimension_ordered, Coord3, MachineConfig, MachineKind, TaskMapping};
use std::collections::BTreeMap;

/// Bytes accumulated per directed physical link.
///
/// The map is ordered by link coordinates so every export — the
/// hotspot table, [`Self::to_json`], the rows behind the Chrome trace
/// companion file — emits links in sorted-key order and is therefore
/// byte-stable across runs (`HashMap` iteration order would leak the
/// process-random hasher state into the artifacts).
#[derive(Debug, Clone, Default)]
pub struct LinkHeatmap {
    per_link: BTreeMap<(Coord3, Coord3), u64>,
    total_bytes: u64,
    sends: u64,
}

impl LinkHeatmap {
    /// Build a heatmap by routing every send event in `events` through
    /// `machine` using `mapping` to place ranks on nodes.
    pub fn from_events<'a>(
        events: impl IntoIterator<Item = &'a TraceEvent>,
        mapping: &TaskMapping,
        machine: &MachineConfig,
    ) -> Self {
        let mut hm = LinkHeatmap::default();
        for ev in events {
            if let EventKind::Send {
                from, to, bytes, ..
            } = ev.kind
            {
                hm.sends += 1;
                hm.total_bytes += bytes;
                let a = mapping.coord_of(from as usize);
                let b = mapping.coord_of(to as usize);
                match machine.kind {
                    MachineKind::Torus3D => {
                        for step in route_dimension_ordered(machine.dims, a, b) {
                            *hm.per_link.entry((step.from, step.to)).or_insert(0) += bytes;
                        }
                    }
                    MachineKind::Flat => {
                        *hm.per_link.entry((a, b)).or_insert(0) += bytes;
                    }
                }
            }
        }
        hm
    }

    /// Σ over links of accumulated bytes — i.e. Σ over sends of
    /// bytes × hops on a torus.
    pub fn total_bytes_hops(&self) -> u64 {
        self.per_link.values().sum()
    }

    /// Σ over sends of payload bytes (each send counted once).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of send events replayed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Number of distinct directed links touched.
    pub fn links_used(&self) -> usize {
        self.per_link.len()
    }

    /// Bytes on the busiest link.
    pub fn max_link_bytes(&self) -> u64 {
        self.per_link.values().copied().max().unwrap_or(0)
    }

    /// Every link row in sorted-key order: `((from, to), bytes)`.
    pub fn rows(&self) -> impl Iterator<Item = (Coord3, Coord3, u64)> + '_ {
        self.per_link.iter().map(|(&(a, b), &bytes)| (a, b, bytes))
    }

    /// The `k` hottest links, by bytes descending (ties broken by link
    /// coordinates for determinism).
    pub fn top_k(&self, k: usize) -> Vec<(Coord3, Coord3, u64)> {
        let mut links: Vec<(Coord3, Coord3, u64)> = self.rows().collect();
        links.sort_by(|l, r| r.2.cmp(&l.2).then_with(|| (l.0, l.1).cmp(&(r.0, r.1))));
        links.truncate(k);
        links
    }

    /// The heatmap as a JSON document with links in sorted-key order —
    /// byte-stable across runs for identical traces (pinned by a golden
    /// test and written as `TRACE_heatmap.json`).
    pub fn to_json(&self) -> String {
        json::compact(|w| {
            w.field("sends", self.sends)
                .field("total_bytes", self.total_bytes)
                .key("links")
                .arr(|w| {
                    for (a, b, bytes) in self.rows() {
                        w.obj(|w| {
                            w.key("from")
                                .values([a.x, a.y, a.z])
                                .key("to")
                                .values([b.x, b.y, b.z])
                                .field("bytes", bytes);
                        });
                    }
                });
        })
    }

    /// Render the top-`k` hotspot table as aligned text.
    pub fn render_table(&self, k: usize) -> String {
        let mut out = String::new();
        out.push_str("  #  link                          bytes      share\n");
        let total = self.total_bytes_hops().max(1);
        for (i, (a, b, bytes)) in self.top_k(k).into_iter().enumerate() {
            out.push_str(&format!(
                "{:>3}  {:<28} {:>10}  {:>6.2}%\n",
                i + 1,
                format!("({},{},{}) -> ({},{},{})", a.x, a.y, a.z, b.x, b.y, b.z),
                bytes,
                bytes as f64 * 100.0 / total as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::{hop_distance, TaskMappingKind};

    fn send(from: u32, to: u32, bytes: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Send {
                from,
                to,
                bytes,
                hops: 0,
            },
            t0: 0.0,
            t1: 0.0,
        }
    }

    #[test]
    fn total_equals_bytes_times_hops() {
        let machine = MachineConfig::bluegene_l_partition(MachineConfig::fit_partition(8));
        let mapping = TaskMapping::new(
            TaskMappingKind::FoldedPlanes,
            bgl_torus::LogicalArray::new(2, 4),
            machine.dims,
        );
        let events = vec![send(0, 5, 100), send(3, 1, 64), send(7, 2, 8)];
        let hm = LinkHeatmap::from_events(events.iter(), &mapping, &machine);
        let expect: u64 = events
            .iter()
            .map(|ev| {
                let EventKind::Send {
                    from, to, bytes, ..
                } = ev.kind
                else {
                    unreachable!()
                };
                let h = hop_distance(
                    machine.dims,
                    mapping.coord_of(from as usize),
                    mapping.coord_of(to as usize),
                ) as u64;
                bytes * h
            })
            .sum();
        assert_eq!(hm.total_bytes_hops(), expect);
        assert_eq!(hm.sends(), 3);
        assert_eq!(hm.total_bytes(), 172);
        assert!(hm.links_used() > 0);
        assert!(hm.max_link_bytes() >= 100);
    }

    #[test]
    fn top_k_sorts_descending_and_renders() {
        let machine = MachineConfig::bluegene_l_partition(MachineConfig::fit_partition(4));
        let mapping = TaskMapping::new(
            TaskMappingKind::FoldedPlanes,
            bgl_torus::LogicalArray::new(2, 2),
            machine.dims,
        );
        let events = vec![send(0, 1, 10), send(0, 1, 10), send(2, 3, 5)];
        let hm = LinkHeatmap::from_events(events.iter(), &mapping, &machine);
        let top = hm.top_k(10);
        for w in top.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        let table = hm.render_table(5);
        assert!(table.contains("->"));
        assert!(table.contains('%'));
    }
}
