//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` indexes the span whose layer calls this one
/// on the same request (`req`); the paired replay runs the nested calls
/// one after another rather than inside each other, so a layer's self
/// time is its duration minus its children's.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its result and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, parent, req, start, end);
        (out, self.spans.len() - 1)
    }

    /// Records that span `parent`'s layer calls span `child`'s.
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent,
            req,
        });
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self times (ns) of every span named `name`: its duration minus
    /// the durations of its child spans.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns() as f64 - c as f64)
            .collect()
    }

    /// Nearest-rank `q`-quantile (ns) of the durations of spans named
    /// `name`; 0 when there are none.
    pub fn quantile_ns(&self, name: &str, q: f64) -> f64 {
        let mut v = self.durations(name);
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            crate::stats::quantile_sorted(&v, q)
        }
    }

    /// Median self time (ns) of spans named `name`; 0 when there are none.
    pub fn self_median_ns(&self, name: &str) -> f64 {
        let v = self.self_times(name);
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }

    /// Total duration (ns) of spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as CSV (`name,start_ns,end_ns,parent,req`; a root
    /// span's parent is -1).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,req")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let at = |ns| Span {
            name: "",
            start_ns: 0,
            end_ns: ns,
            parent: None,
            req: 0,
        };
        t.spans.push(Span {
            name: "client",
            ..at(100)
        });
        t.spans.push(Span {
            name: "rr",
            parent: Some(0),
            ..at(60)
        });
        t.spans.push(Span {
            name: "physical",
            parent: Some(1),
            ..at(45)
        });
        assert_eq!(t.self_times("client"), vec![40.0]);
        assert_eq!(t.self_times("rr"), vec![15.0]);
        assert_eq!(t.self_times("physical"), vec![45.0]);
    }
}
