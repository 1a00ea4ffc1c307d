//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and the operation it
//! belongs to (a stream or a submission).  Spans stay in memory while the
//! workload runs; [`Tracer::write_tsv`] writes them out once it has ended.
//! A layer's *self time* is the summed duration of its spans minus the time
//! their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `core.pd.on_arrivals`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The stream or submission this call served.
    pub op: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Number of spans.
    pub count: usize,
    /// Summed span durations, in ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), in ns.
    pub self_ns: u64,
    /// Each span's duration, in ns, in recording order.
    pub durations_ns: Vec<u64>,
}

impl Layer {
    /// Summed span durations in ms.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Nearest-rank percentile of the span durations, in µs.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let us: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
        crate::stats::percentile(&us, p)
    }

    /// The longest span, in µs.
    pub fn max_us(&self) -> f64 {
        self.durations_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that starts now, nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.ns(Instant::now());
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Records a span the caller timed itself, nested in the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op,
        };
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name aggregates with self times.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += span.duration_ns();
            layer.self_ns += span.duration_ns().saturating_sub(children);
            layer.durations_ns.push(span.duration_ns());
        }
        layers
    }

    /// Writes one tab-separated line per span: name, start ns, end ns,
    /// parent index (`-` for a root) and operation id.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\top")?;
        for span in &self.spans {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns, parent, span.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Tracer::new();
        let base = Instant::now();
        t.enter("root", 0);
        let ms = std::time::Duration::from_millis;
        t.record("child", 0, base, base + ms(2));
        t.record("child", 0, base + ms(3), base + ms(4));
        t.exit();
        let layers = t.layers();
        let root = &layers["root"];
        let child = &layers["child"];
        assert_eq!(child.count, 2);
        assert_eq!(child.total_ns, 3_000_000);
        assert_eq!(child.self_ns, child.total_ns);
        assert_eq!(root.self_ns, root.total_ns.saturating_sub(3_000_000));
    }
}
