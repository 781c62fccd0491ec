//! Chrome `trace_event` JSON export (`chrome://tracing` / Perfetto).
//!
//! [`ChromeTrace`] is the one writer: a builder combining any mix of
//! simulated timelines and recorded host [`SpanEvent`]s, each rendered as a
//! complete `"X"` (duration) event with its own process id. A [`SimTrace`]
//! is the per-VPP instruction timeline of one persistent kernel on the
//! *simulated* clock; `repro trace` writes one as process 0, byte-compatible
//! with the legacy `vpps::exec::trace` writer it replaced.

use std::fmt::Write as _;

use crate::json::Json;
use crate::span::SpanEvent;

/// One traced interval on a simulated processor's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpan {
    /// Track (virtual persistent processor, rendered as a thread).
    pub track: usize,
    /// Short instruction mnemonic.
    pub name: &'static str,
    /// Start on the track's simulated clock, nanoseconds.
    pub start_ns: f64,
    /// Duration, nanoseconds.
    pub dur_ns: f64,
}

/// A complete simulated-kernel trace (one event per instruction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTrace {
    /// Events in emission order.
    pub events: Vec<SimSpan>,
}

impl SimTrace {
    /// Appends one interval.
    pub fn push(&mut self, track: usize, name: &'static str, start_ns: f64, dur_ns: f64) {
        self.events.push(SimSpan {
            track,
            name,
            start_ns,
            dur_ns,
        });
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total busy nanoseconds of one track.
    pub fn busy_ns(&self, track: usize) -> f64 {
        self.events
            .iter()
            .filter(|e| e.track == track)
            .map(|e| e.dur_ns)
            .sum()
    }

    /// Nanoseconds spent in barrier waits across all tracks — the
    /// synchronization overhead the paper's level barriers introduce.
    pub fn wait_ns(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| e.name == "wait")
            .map(|e| e.dur_ns)
            .sum()
    }
}

#[derive(Debug, Clone)]
struct ChromeEvent {
    name: String,
    pid: u32,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
}

/// Builder for a combined Chrome trace: host spans and/or simulated kernel
/// timelines, distinguished by process id.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one duration event.
    pub fn push(&mut self, pid: u32, tid: u64, name: &str, ts_us: f64, dur_us: f64) {
        self.events.push(ChromeEvent {
            name: name.to_owned(),
            pid,
            tid,
            ts_us,
            dur_us,
        });
    }

    /// Adds every event of a simulated kernel timeline under process `pid`
    /// (VPPs become threads).
    pub fn add_sim_trace(&mut self, pid: u32, trace: &SimTrace) {
        for e in &trace.events {
            self.push(
                pid,
                e.track as u64,
                e.name,
                e.start_ns / 1e3,
                e.dur_ns / 1e3,
            );
        }
    }

    /// Adds recorded host spans under process `pid` (tracks become threads).
    pub fn add_host_spans(&mut self, pid: u32, spans: &[SpanEvent]) {
        for s in spans {
            self.push(
                pid,
                s.track as u64,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes to the Chrome trace-event JSON array format, one event per
    /// line, names JSON-escaped. Timestamps are microseconds per the
    /// format's convention.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            let comma = if i + 1 == self.events.len() { "" } else { "," };
            let mut name = String::new();
            Json::Str(e.name.clone()).write(&mut name);
            let _ = writeln!(
                out,
                r#"  {{"name":{},"ph":"X","pid":{},"tid":{},"ts":{:.3},"dur":{:.3}}}{}"#,
                name, e.pid, e.tid, e.ts_us, e.dur_us, comma
            );
        }
        out.push(']');
        out
    }
}

/// Validates that `text` is a Chrome trace-event JSON array of complete
/// `"X"` duration events. Returns the event count.
///
/// # Errors
///
/// Describes the first malformed event (or JSON syntax error).
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .as_arr()
        .ok_or_else(|| "chrome trace must be a JSON array".to_string())?;
    for (i, e) in events.iter().enumerate() {
        let err = |what: &str| format!("event {i}: {what}");
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing string \"name\""))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing string \"ph\""))?;
        if ph != "X" {
            return Err(err(&format!("phase {ph:?}, expected \"X\"")));
        }
        for key in ["pid", "tid", "ts", "dur"] {
            e.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| err(&format!("missing numeric {key:?}")))?;
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimTrace {
        let mut t = SimTrace::default();
        t.push(0, "matvec", 0.0, 100.0);
        t.push(0, "signal", 100.0, 10.0);
        t.push(1, "wait", 0.0, 110.0);
        t.push(1, "tanh", 110.0, 50.0);
        t
    }

    #[test]
    fn busy_time_sums_per_track() {
        let t = sample();
        assert_eq!(t.busy_ns(0), 110.0);
        assert_eq!(t.busy_ns(1), 160.0);
        assert_eq!(t.busy_ns(7), 0.0);
    }

    #[test]
    fn wait_time_counts_only_waits() {
        assert_eq!(sample().wait_ns(), 110.0);
    }

    #[test]
    fn sim_chrome_json_matches_the_legacy_format() {
        let mut c = ChromeTrace::new();
        c.add_sim_trace(0, &sample());
        let json = c.to_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(
            json.contains(r#"  {"name":"matvec","ph":"X","pid":0,"tid":0,"ts":0.000,"dur":0.100}"#)
        );
        assert!(json.contains("\"tid\":1"));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
        assert_eq!(validate_chrome_trace(&json).unwrap(), 4);
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let t = SimTrace::default();
        assert!(t.is_empty());
        let mut c = ChromeTrace::new();
        c.add_sim_trace(0, &t);
        assert_eq!(c.to_json(), "[\n]");
        assert_eq!(validate_chrome_trace("[\n]").unwrap(), 0);
    }

    #[test]
    fn builder_combines_sim_and_host_events() {
        let mut c = ChromeTrace::new();
        c.add_sim_trace(0, &sample());
        let host = [SpanEvent {
            name: "handle.fb",
            track: 3,
            depth: 0,
            start_ns: 5_000,
            dur_ns: 2_000,
            seq: 0,
        }];
        c.add_host_spans(1, &host);
        assert_eq!(c.len(), 5);
        let json = c.to_json();
        assert_eq!(validate_chrome_trace(&json).unwrap(), 5);
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"name\":\"handle.fb\""));
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"[{"name":"x"}]"#).is_err());
        assert!(
            validate_chrome_trace(r#"[{"name":"x","ph":"B","pid":0,"tid":0,"ts":0,"dur":0}]"#)
                .is_err()
        );
        assert!(validate_chrome_trace("not json").is_err());
    }
}
