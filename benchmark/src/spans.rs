//! Benchmark-side spans: one record per call into a layer's public entry
//! point, kept in memory during the traced pass and rolled up (or written
//! out) when it ends. Spans inside the library are a later change; these
//! wrap the calls from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use vpps_obs::Json;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer entry point, e.g. `"script.generate"`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op (input or request) this span belongs to.
    pub op: u32,
}

/// In-memory span recorder for one pass.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// An empty recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for op `op`; spans opened by `f`
    /// through [`Spans::enter`] become its children.
    pub fn scope<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// A leaf span around `f`.
    pub fn enter<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        self.scope(name, op, |_| f())
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name and op, µs: each span's duration minus the
    /// part its children cover, summed over the spans of that name in each
    /// of the `ops` ops.
    pub fn self_us_per_op(&self, ops: usize) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            out.entry(s.name).or_insert_with(|| vec![0.0; ops])[s.op as usize] +=
                self_ns as f64 / 1e3;
        }
        out
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`,
    /// `op`), for `--spans FILE`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Json::obj();
                    o.set("name", Json::from(s.name));
                    o.set("start_ns", Json::from(s.start_ns));
                    o.set("end_ns", Json::from(s.end_ns));
                    o.set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                    );
                    o.set("op", Json::from(u64::from(s.op)));
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::with_capacity(4);
        s.scope("op", 0, |s| {
            s.enter("child", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let by = s.self_us_per_op(1);
        let total_us = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e3;
        assert!((by["op"][0] + by["child"][0] - total_us).abs() < 1e-6);
        assert!(by["child"][0] >= 2_000.0);
    }
}
