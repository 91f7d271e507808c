//! Machine-readable benchmark reporting (`BENCH_tasm.json`).
//!
//! The perf trajectory of this repo is seeded by a small JSON summary of
//! the TASM-postorder hot path: how many candidate subtrees per second the
//! matching stack evaluates, the inverse ns/candidate, and a peak-heap
//! proxy from the counting allocator. Both the `experiments bench --json`
//! subcommand and the criterion `tasm.rs` bench (opt-in via
//! `TASM_BENCH_JSON=1`) append snapshots to this file so each PR can be
//! compared against the recorded baseline.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Canonical output file name, written to the current directory.
pub const BENCH_JSON: &str = "BENCH_tasm.json";

/// One benchmarked workload: a full `tasm_postorder` pass over a
/// generated document.
#[derive(Debug, Clone, Default)]
pub struct BenchRecord {
    /// Workload name (dataset + parameters).
    pub name: String,
    /// Document size in nodes.
    pub nodes: usize,
    /// Query size in nodes.
    pub query_size: usize,
    /// Ranking size.
    pub k: usize,
    /// Theorem 3 threshold τ for this workload.
    pub tau: u64,
    /// Number of candidate subtrees emitted by the ring buffer.
    pub candidates: usize,
    /// Document nodes the pass actually examined: every streamed node
    /// for a scan, only the posting-driven candidate-region nodes for an
    /// index-driven pass (0 when not recorded).
    pub nodes_examined: u64,
    /// Best-of-N wall-clock seconds for one full pass.
    pub seconds: f64,
    /// Extra peak heap (bytes) one pass needed, per the counting
    /// allocator; 0 when measured without the counting allocator.
    pub peak_heap_bytes: usize,
    /// Subtree roots rejected by the τ' size bound during the descent.
    pub pruned_size: u64,
    /// In-bound subtrees skipped by the label-histogram cascade tier.
    pub pruned_histogram: u64,
    /// In-bound subtrees skipped by the substring-SED cascade tier.
    pub pruned_sed: u64,
    /// Subtrees that survived every tier and were evaluated by the DP.
    pub evaluated: u64,
}

impl BenchRecord {
    /// Candidate subtrees evaluated per second.
    pub fn candidates_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.candidates as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Nanoseconds spent per candidate subtree.
    pub fn ns_per_candidate(&self) -> f64 {
        if self.candidates > 0 {
            self.seconds * 1e9 / self.candidates as f64
        } else {
            0.0
        }
    }

    /// Document nodes streamed per second.
    pub fn nodes_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.nodes as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Fraction of in-bound subtree evaluations the lower-bound cascade
    /// pruned before the DP (0.0 when no decisions were recorded).
    pub fn prune_rate(&self) -> f64 {
        let total = self.pruned_histogram + self.pruned_sed + self.evaluated;
        if total == 0 {
            0.0
        } else {
            (self.pruned_histogram + self.pruned_sed) as f64 / total as f64
        }
    }

    /// Copies the pruning-funnel counters out of a scan's [`ScanStats`](tasm_core::ScanStats).
    pub fn with_scan_stats(mut self, scan: &tasm_core::ScanStats) -> Self {
        self.nodes_examined = u64::from(scan.nodes_seen);
        self.pruned_size = scan.pruned_size;
        self.pruned_histogram = scan.pruned_histogram;
        self.pruned_sed = scan.pruned_sed;
        self.evaluated = scan.evaluated;
        self
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one snapshot (a `history` entry) as a pretty-printed JSON
/// object indented for the trajectory file (no serde in the tree).
pub fn render_snapshot(label: &str, scale: usize, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("    {\n");
    let _ = writeln!(out, "      \"label\": \"{}\",", json_escape(label));
    let _ = writeln!(out, "      \"scale\": {scale},");
    out.push_str("      \"workloads\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("        {\n");
        let _ = writeln!(out, "          \"name\": \"{}\",", json_escape(&r.name));
        let _ = writeln!(out, "          \"nodes\": {},", r.nodes);
        let _ = writeln!(out, "          \"query_size\": {},", r.query_size);
        let _ = writeln!(out, "          \"k\": {},", r.k);
        let _ = writeln!(out, "          \"tau\": {},", r.tau);
        let _ = writeln!(out, "          \"candidates\": {},", r.candidates);
        let _ = writeln!(out, "          \"nodes_examined\": {},", r.nodes_examined);
        let _ = writeln!(out, "          \"seconds\": {:.6},", r.seconds);
        let _ = writeln!(
            out,
            "          \"candidates_per_sec\": {:.1},",
            r.candidates_per_sec()
        );
        let _ = writeln!(
            out,
            "          \"ns_per_candidate\": {:.1},",
            r.ns_per_candidate()
        );
        let _ = writeln!(
            out,
            "          \"nodes_per_sec\": {:.1},",
            r.nodes_per_sec()
        );
        let _ = writeln!(out, "          \"pruned_size\": {},", r.pruned_size);
        let _ = writeln!(
            out,
            "          \"pruned_histogram\": {},",
            r.pruned_histogram
        );
        let _ = writeln!(out, "          \"pruned_sed\": {},", r.pruned_sed);
        let _ = writeln!(out, "          \"evaluated\": {},", r.evaluated);
        let _ = writeln!(out, "          \"prune_rate\": {:.4},", r.prune_rate());
        let _ = writeln!(out, "          \"peak_heap_bytes\": {}", r.peak_heap_bytes);
        out.push_str(if i + 1 == records.len() {
            "        }\n"
        } else {
            "        },\n"
        });
    }
    out.push_str("      ]\n    }");
    out
}

/// Renders the full trajectory file from already-rendered snapshots.
pub fn render_file(snapshots: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"tasm_postorder_stream\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p tasm-bench --bin experiments -- bench --json\","
    );
    let _ = writeln!(
        out,
        "  \"note\": \"Perf trajectory: one entry per recorded snapshot; new runs append. Compare runs only at equal scale.\","
    );
    out.push_str("  \"history\": [\n");
    out.push_str(&snapshots.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Extracts the rendered `history` entries from a trajectory file this
/// module previously wrote (`None` for foreign or unparseable content).
fn existing_history(text: &str) -> Option<String> {
    let start = text.find("\"history\": [\n")? + "\"history\": [\n".len();
    let end = text.rfind("\n  ]\n}")?;
    if end <= start {
        return None;
    }
    Some(text[start..end].to_string())
}

/// Appends the summary as a new `history` snapshot of the trajectory
/// file at `path` (conventionally [`BENCH_JSON`]), preserving previously
/// recorded snapshots — including the committed baseline — so
/// regenerating never destroys the comparison point. Unrecognized file
/// content is replaced by a fresh single-snapshot trajectory.
pub fn write_json(
    path: &Path,
    label: &str,
    scale: usize,
    records: &[BenchRecord],
) -> io::Result<()> {
    let snap = render_snapshot(label, scale, records);
    let snapshots = match fs::read_to_string(path)
        .ok()
        .as_deref()
        .and_then(existing_history)
    {
        Some(prev) => vec![prev, snap],
        None => vec![snap],
    };
    fs::write(path, render_file(&snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            name: "dblp q8 k5".into(),
            nodes: 50_000,
            query_size: 8,
            k: 5,
            tau: 21,
            candidates: 10_000,
            nodes_examined: 50_000,
            seconds: 0.5,
            peak_heap_bytes: 4096,
            pruned_size: 7,
            pruned_histogram: 9_000,
            pruned_sed: 500,
            evaluated: 500,
        }
    }

    #[test]
    fn rates_are_consistent() {
        let r = record();
        assert_eq!(r.candidates_per_sec(), 20_000.0);
        assert_eq!(r.ns_per_candidate(), 50_000.0);
        assert_eq!(r.nodes_per_sec(), 100_000.0);
    }

    #[test]
    fn prune_rate_counts_cascade_decisions() {
        let r = record();
        assert!((r.prune_rate() - 0.95).abs() < 1e-9);
        let mut none = record();
        (none.pruned_histogram, none.pruned_sed, none.evaluated) = (0, 0, 0);
        assert_eq!(none.prune_rate(), 0.0);
    }

    #[test]
    fn renders_valid_enough_json() {
        let json = render_file(&[render_snapshot("test", 16, &[record()])]);
        assert!(json.contains("\"candidates_per_sec\": 20000.0"));
        assert!(json.contains("\"name\": \"dblp q8 k5\""));
        assert!(json.contains("\"label\": \"test\""));
        assert!(json.contains("\"pruned_histogram\": 9000"));
        assert!(json.contains("\"prune_rate\": 0.9500"));
        // Balanced braces/brackets at least.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn write_json_appends_to_history() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "tasm_report_test_{}_{unique}.json",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);

        write_json(&path, "baseline", 4, &[record()]).unwrap();
        write_json(&path, "after-change", 4, &[record()]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"label\": \"baseline\""), "{text}");
        assert!(text.contains("\"label\": \"after-change\""), "{text}");
        assert_eq!(text.matches("\"workloads\"").count(), 2);
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());

        // Foreign content is replaced, not corrupted.
        fs::write(&path, "not json at all").unwrap();
        write_json(&path, "fresh", 4, &[record()]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"label\": \"fresh\""));
        assert!(!text.contains("not json"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn escapes_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn zero_division_is_guarded() {
        let mut r = record();
        r.seconds = 0.0;
        r.candidates = 0;
        assert_eq!(r.candidates_per_sec(), 0.0);
        assert_eq!(r.ns_per_candidate(), 0.0);
        assert_eq!(r.nodes_per_sec(), 0.0);
    }
}
