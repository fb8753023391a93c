//! One-call trace artifact emission.
//!
//! [`write_artifacts`] turns a recorded [`TraceBuffer`] into the two
//! on-disk consumers — `TRACE_chrome.json` (load in `chrome://tracing`
//! or Perfetto) and `TRACE_summary.json` (the critical-path analysis) —
//! and returns the in-memory analyses for printing. Shared by the CLI,
//! the bench harness and the examples.

use crate::chrome::chrome_trace;
use crate::critical::CriticalPath;
use crate::heatmap::LinkHeatmap;
use crate::json;
use crate::recorder::TraceBuffer;
use crate::wire_summary::WireSummary;
use bgl_torus::{MachineConfig, TaskMapping};
use std::path::{Path, PathBuf};

/// What [`write_artifacts`] produced.
#[derive(Debug)]
pub struct TraceReport {
    /// Per-level critical-path analysis.
    pub critical: CriticalPath,
    /// Link-utilization heatmap (empty at span-level detail — sends are
    /// only recorded at event detail).
    pub heatmap: LinkHeatmap,
    /// Logical-vs-wire traffic totals (send bytes empty at span detail).
    pub wire: WireSummary,
    /// Where the Chrome trace was written.
    pub chrome_path: PathBuf,
    /// Where the summary JSON was written.
    pub summary_path: PathBuf,
    /// Where the link heatmap JSON was written.
    pub heatmap_path: PathBuf,
    /// Events overwritten by full rings (0 means the trace is complete).
    pub dropped_events: u64,
}

/// Analyze `buf` and write `TRACE_chrome.json`, `TRACE_summary.json`
/// and `TRACE_heatmap.json` into `dir` (created if missing). The
/// summary document carries the critical path plus a `"wire"` object
/// with logical/wire byte totals, compression ratio and codec time
/// replayed from the recorded events; the heatmap lists per-link bytes
/// in sorted-key order so the file is byte-stable across runs.
pub fn write_artifacts(
    buf: &TraceBuffer,
    mapping: &TaskMapping,
    machine: &MachineConfig,
    dir: &Path,
) -> std::io::Result<TraceReport> {
    std::fs::create_dir_all(dir)?;
    let chrome_path = dir.join("TRACE_chrome.json");
    std::fs::write(&chrome_path, chrome_trace(buf))?;
    let all_events: Vec<_> = buf.events().into_iter().map(|(_, ev)| ev).collect();
    let critical = CriticalPath::analyze(buf);
    let wire = WireSummary::from_events(all_events.iter());
    let summary_path = dir.join("TRACE_summary.json");
    let summary = json::compact(|w| {
        w.key("wire").obj(|w| wire.write_json(w));
        critical.write_json(w);
    });
    std::fs::write(&summary_path, summary)?;
    let heatmap = LinkHeatmap::from_events(all_events.iter(), mapping, machine);
    let heatmap_path = dir.join("TRACE_heatmap.json");
    std::fs::write(&heatmap_path, heatmap.to_json())?;
    Ok(TraceReport {
        critical,
        heatmap,
        wire,
        chrome_path,
        summary_path,
        heatmap_path,
        dropped_events: buf.dropped(),
    })
}
