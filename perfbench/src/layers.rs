//! Per-layer accumulation shared by the workloads: communication
//! counters, simulated phase spans and torus link load, averaged per
//! operation (a search, or an engine batch).

use crate::report::{Report, PER_LAYER};
use bgl_comm::{CommStats, OpClass, SimWorld};
use bgl_trace::{CriticalPath, EventKind, LinkHeatmap, Phase, TraceBuffer};
use std::collections::BTreeMap;

/// Per-operation sums of per-layer metrics.
#[derive(Debug, Default)]
pub struct LayerSums(BTreeMap<&'static str, f64>);

impl LayerSums {
    /// Add `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Add one operation's communication counters.
    pub fn add_comm(&mut self, c: &CommStats) {
        let messages: u64 = OpClass::ALL.iter().map(|&k| c.class(k).messages).sum();
        self.add("comm.messages", messages as f64);
        self.add(
            "comm.expand_verts",
            c.class(OpClass::Expand).received_verts as f64,
        );
        self.add(
            "comm.fold_verts",
            c.class(OpClass::Fold).received_verts as f64,
        );
        self.add("comm.dups_eliminated", c.total_dups_eliminated() as f64);
        self.add("comm.logical_bytes", c.total_logical_bytes() as f64);
        self.add("comm.wire_bytes", c.total_wire_bytes() as f64);
        self.add("comm.list_unions", c.setops.list_unions as f64);
        self.add("comm.bitmap_unions", c.setops.bitmap_unions as f64);
    }

    /// Add one traced operation's simulated phase time (level phases
    /// from the critical path, path walks from their spans), its torus
    /// link load, and the events the rings dropped.
    pub fn add_trace(&mut self, buf: &TraceBuffer, world: &SimWorld) {
        for phase in PHASES {
            self.add(
                phase_metric(phase).expect("every listed phase has a metric"),
                0.0,
            );
        }
        for level in CriticalPath::analyze(buf).levels {
            for slice in level.phases {
                if let Some(name) =
                    phase_metric(slice.phase).filter(|_| slice.phase != Phase::PathWalk)
                {
                    self.add(name, slice.duration * 1e3);
                }
            }
        }
        for ev in buf.world_events() {
            if let EventKind::Span {
                phase: Phase::PathWalk,
                ..
            } = ev.kind
            {
                self.add("phase.path_walk.sim_ms", ev.duration() * 1e3);
            }
        }
        let events: Vec<_> = buf.events().into_iter().map(|(_, ev)| ev).collect();
        let hm =
            LinkHeatmap::from_events(events.iter(), world.mapping(), world.cost_model().machine());
        self.add("torus.max_link_bytes", hm.max_link_bytes() as f64);
        self.add("torus.links_used", hm.links_used() as f64);
        self.add("trace.dropped_events", buf.dropped() as f64);
    }

    /// Report every sum divided by `ops`, except the run totals in
    /// `totals`, which are reported as summed.
    pub fn report(&self, rep: &mut Report, ops: usize, per: &str, totals: &[&str]) {
        for (&name, &sum) in &self.0 {
            if totals.contains(&name) {
                rep.set(name, sum, "run total");
            } else {
                rep.set(
                    name,
                    sum / ops.max(1) as f64,
                    format!("mean per {per} over {ops}"),
                );
            }
        }
    }
}

/// The phases with a per-layer metric.
const PHASES: [Phase; 7] = [
    Phase::Termination,
    Phase::Expand,
    Phase::Gather,
    Phase::Discover,
    Phase::Fold,
    Phase::Absorb,
    Phase::PathWalk,
];

/// The per-layer metric a simulated phase span feeds.
fn phase_metric(p: Phase) -> Option<&'static str> {
    Some(match p {
        Phase::Termination => "phase.termination.sim_ms",
        Phase::Expand => "phase.expand.sim_ms",
        Phase::Gather => "phase.gather.sim_ms",
        Phase::Discover => "phase.discover.sim_ms",
        Phase::Fold => "phase.fold.sim_ms",
        Phase::Absorb => "phase.absorb.sim_ms",
        Phase::PathWalk => "phase.path_walk.sim_ms",
        Phase::Level | Phase::Checkpoint | Phase::Recovery => return None,
    })
}

/// Set every per-layer metric under one of `prefixes` that is still
/// unset to 0: the workload bypasses that layer.
pub fn zero_bypassed(rep: &mut Report, prefixes: &[&str], why: &str) {
    for def in PER_LAYER {
        if prefixes.iter().any(|p| def.name.starts_with(p)) && !rep.has(def.name) {
            rep.set(def.name, 0.0, why.to_string());
        }
    }
}
