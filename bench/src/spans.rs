//! The benchmark's own spans: recorded around the calls into each layer
//! during the traced pass, kept in memory, written out once at exit.
//!
//! A span's self time is its duration minus the part its children cover.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`setup.gen`, `rep`, `op.conn`, `batch.apply`, `probe.bsp`, …).
    pub name: String,
    /// Microseconds since the recorder was created.
    pub start_us: u64,
    /// End, same clock.
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder. Disabled recorders (the timed pass) record
/// nothing, so end-to-end numbers are measured with tracing off.
pub struct Spans {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            t0: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording recorder; its clock starts now.
    pub fn recording() -> Spans {
        Spans {
            on: true,
            ..Spans::off()
        }
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// The recorded spans as the `trace-<workload>.json` document.
    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", Json::Str(s.name.clone()))
                        .with("start_us", Json::Num(s.start_us as f64))
                        .with("end_us", Json::Num(s.end_us as f64))
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        )
                        .with("workload", Json::Str(workload.to_string()))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_off_records_nothing() {
        let mut s = Spans::recording();
        s.scope("run", |s| {
            s.scope("rep", |s| s.scope("op.conn", |_| ()));
            s.scope("verify", |_| ());
        });
        let names: Vec<_> = s
            .spans
            .iter()
            .map(|x| (x.name.as_str(), x.parent))
            .collect();
        assert_eq!(
            names,
            [
                ("run", None),
                ("rep", Some(0)),
                ("op.conn", Some(1)),
                ("verify", Some(0))
            ]
        );
        assert!(s.spans.iter().all(|x| x.end_us >= x.start_us));
        let mut off = Spans::off();
        off.scope("run", |_| ());
        assert!(off.spans.is_empty());
    }
}
