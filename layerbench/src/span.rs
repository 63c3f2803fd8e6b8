//! Spans and counters recorded by the benchmark around each call into a
//! pipeline layer, plus the process-memory probes they use.
//!
//! The pipeline crates carry no instrumentation of their own: every span
//! here wraps one call to a layer's public function from the benchmark's
//! code. Spans stay in memory until their pass ends, and are then
//! printed to stderr.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier shared by every span of one kernel (its index in the
    /// workload), so a kernel's layer calls can be tied back together.
    pub trace_id: usize,
    /// Layer function, named `<crate>.<call>` (`nymble_hls.compile`).
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    /// Process VmHWM over the call, in MB, after resetting it on entry.
    pub peak_rss_mb: f64,
    /// A measurement-only call (a standalone region build, the `NullSnoop`
    /// twin of a profiled run): it splits a layer's time into parts but
    /// is not work the untraced pass does, so it stays out of the ledger.
    pub reference: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span and counter store for one traced pass.
pub struct Tracer {
    origin: Instant,
    trace_id: usize,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            trace_id: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Start attributing spans to the kernel with this identifier.
    pub fn kernel(&mut self, trace_id: usize) {
        self.trace_id = trace_id;
    }

    /// Time one layer call, recording its peak memory.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, false, f)
    }

    /// [`Tracer::span`] for a measurement-only call (see [`Span::reference`]).
    pub fn reference<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, true, f)
    }

    /// [`Tracer::span`], or [`Tracer::reference`] when `reference` is set.
    pub fn timed<R>(&mut self, name: &'static str, reference: bool, f: impl FnOnce() -> R) -> R {
        reset_peak_rss();
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            trace_id: self.trace_id,
            name,
            start,
            end,
            peak_rss_mb: peak_rss_mb(),
            reference,
        });
        out
    }

    /// Add `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Total seconds spent in spans called `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Highest per-call peak RSS among spans called `name` (0 if none).
    pub fn peak_mb(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.peak_rss_mb)
            .fold(0.0, f64::max)
    }

    /// Counter value (0 if never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the self time of every ledger (non-reference) span. Layer
    /// spans do not nest, so a span's self time is its duration.
    pub fn ledger_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.reference)
            .map(Span::secs)
            .sum()
    }

    /// Print the spans to stderr, one tab-separated row each.
    pub fn print_spans(&self, pass: usize) {
        eprintln!("pass\tkernel\tspan\tstart_s\tend_s\tpeak_rss_mb\treference");
        for s in &self.spans {
            eprintln!(
                "{pass}\t{}\t{}\t{:.6}\t{:.6}\t{:.1}\t{}",
                s.trace_id, s.name, s.start, s.end, s.peak_rss_mb, s.reference
            );
        }
    }
}

/// Reset the process's peak-RSS watermark (VmHWM) to its current RSS.
/// Best effort: where the kernel refuses, VmHWM keeps the process peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// VmHWM of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
