//! Spans recorded from the harness's own files, around each call into a
//! layer's public functions. Kept in memory; written as a Chrome trace
//! (`chrome://tracing`, Perfetto) when the traced sample ends.

use std::path::Path;
use std::time::Instant;

use serde_json::Value;

struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
}

/// An open span: the slot it will fill and when it began.
pub struct Open {
    index: Option<usize>,
    began: Instant,
}

/// The span recorder. With `enabled == false` it still times (callers use
/// the returned durations for their own statistics) but keeps nothing, so
/// the untraced samples share the traced sample's code path.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Total and self time of every span name: self = span − children.
pub struct SelfTime {
    pub name: &'static str,
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span, child of whichever span is open now.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let began = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_us: began.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_us: 0.0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, began }
    }

    /// Close `open` (spans close in LIFO order) and return its seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let secs = open.began.elapsed().as_secs_f64();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must nest");
            self.spans[index].dur_us = secs * 1e6;
        }
        secs
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_us[p] += span.dur_us;
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (span, child) in self.spans.iter().zip(child_us) {
            let slot = match out.iter().position(|s| s.name == span.name) {
                Some(i) => i,
                None => {
                    out.push(SelfTime {
                        name: span.name,
                        calls: 0,
                        total_ms: 0.0,
                        self_ms: 0.0,
                    });
                    out.len() - 1
                }
            };
            out[slot].calls += 1;
            out[slot].total_ms += span.dur_us / 1e3;
            out[slot].self_ms += (span.dur_us - child) / 1e3;
        }
        out
    }

    /// Write the Chrome trace. Every event carries its parent's index and
    /// the workload/sample identifiers; the per-name self-time table rides
    /// along under `selfTime` (trace viewers ignore unknown keys).
    pub fn write_chrome(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let events = self
            .spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Value::Str(s.name.into())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::F64(s.start_us)),
                    ("dur", Value::F64(s.dur_us)),
                    ("pid", Value::U64(1)),
                    ("tid", Value::U64(1)),
                    (
                        "args",
                        obj(vec![
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                            ),
                            ("workload", Value::Str(workload.into())),
                            ("seed", Value::U64(seed)),
                        ]),
                    ),
                ])
            })
            .collect();
        let self_time = self
            .self_times()
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Value::Str(s.name.into())),
                    ("calls", Value::U64(s.calls)),
                    ("total_ms", Value::F64(s.total_ms)),
                    ("self_ms", Value::F64(s.self_ms)),
                ])
            })
            .collect();
        let doc = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
            ("selfTime", Value::Array(self_time)),
        ]);
        let text = serde_json::to_string(&doc).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let outer = t.begin("outer");
        let (_, inner_s) = t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let outer_s = t.end(outer);
        let table = t.self_times();
        let outer_row = table.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer_row.calls, 1);
        assert!((outer_row.self_ms - (outer_s - inner_s) * 1e3).abs() < 1e-6);
        assert!(outer_row.total_ms >= 5.0);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let (_, secs) = t.span("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.self_times().is_empty());
    }
}
