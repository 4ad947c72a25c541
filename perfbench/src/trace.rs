//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the benchmark's own calls into each layer of the
//! repository (`isa.*`, `inject.*`, `ace.*`, `analyze.*`, `core.*`,
//! `cpu.*`): a name, a start, an end and the span that was open when it
//! started.  They are kept in memory and written out once, at exit.  When
//! tracing is off, [`span`] records nothing and costs one thread-local
//! flag read.
//!
//! A span's self time is its duration minus the part of its interval that
//! its children cover; summing self time by layer (the name up to the
//! first `.`) shows where a run's time went.

use crate::util::json_str;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for this thread (the benchmark's main
/// thread; the library's own worker threads never open spans).
pub fn set_enabled(enabled: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = enabled);
}

/// Closes its span when dropped.
pub struct Guard {
    id: Option<usize>,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return Guard { id: None };
        }
        let id = t.spans.len();
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        let parent = t.open.last().copied();
        t.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        t.open.push(id);
        Guard { id: Some(id) }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.elapsed().as_nanos() as u64;
            t.spans[id].end_ns = end;
            if t.open.last() == Some(&id) {
                t.open.pop();
            } else {
                t.open.retain(|&o| o != id);
            }
        });
    }
}

/// Every span recorded so far, in opening order.
pub fn spans() -> Vec<Span> {
    TRACER.with(|t| t.borrow().spans.clone())
}

/// Self time of every span in nanoseconds, indexed like `spans`: duration
/// minus the union of its children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer().to_string()).or_insert(0.0) += ns as f64 * 1e-9;
    }
    by_layer
}

/// Total duration in seconds of the spans called `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(self_ns)
        .map(|(s, own)| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                own
            )
        })
        .collect();
    format!("[\n  {}\n]", rows.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_but_not_grandchildren_twice() {
        // root [0,100) holds a [10,40) and b [50,90); a holds a grandchild
        // [20,30) that must not be subtracted from root a second time.
        let spans = vec![
            s(0, None, "bench.round", 0, 100),
            s(1, Some(0), "inject.campaign", 10, 40),
            s(2, Some(1), "cpu.run", 20, 30),
            s(3, Some(0), "ace.profile", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let layers = self_seconds_by_layer(&spans);
        assert!((layers["bench"] - 30e-9).abs() < 1e-15);
        assert!((layers["inject"] - 20e-9).abs() < 1e-15);
        assert!((layers["cpu"] - 10e-9).abs() < 1e-15);
        // The layers' self times add up to the root's duration.
        let total: f64 = layers.values().sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            s(0, None, "bench.round", 0, 100),
            s(1, Some(0), "x.a", 10, 60),
            s(2, Some(0), "x.b", 40, 120),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        set_enabled(true);
        {
            let _outer = span("bench.outer");
            let _inner = span("core.inner");
        }
        set_enabled(false);
        drop(span("bench.ignored"));
        let spans = spans();
        let outer = spans.iter().find(|s| s.name == "bench.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "core.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.name != "bench.ignored"));
    }
}
