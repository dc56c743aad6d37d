//! Spans recorded by the ledger around its own calls into each layer's
//! public functions. Kept in memory; written as JSON-lines when the run
//! ends (`--spans <file>`).

use std::io::Write;
use std::time::Instant;

/// One recorded call: `parent` indexes the span that was open when this
/// one started; spans of one benchmark operation share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record `work` as a span named `name` of operation `op`; spans opened
    /// inside it become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        work: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let result = work(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Durations in microseconds of every span named `name`, in order.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
    }

    /// Fastest span named `name`, microseconds.
    pub fn best_micros(&self, name: &str) -> f64 {
        self.micros(name).into_iter().fold(f64::INFINITY, f64::min)
    }

    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent() {
        let mut t = Tracer::default();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("inner", 7, |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!((t.spans[1].parent, t.spans[2].parent), (Some(0), Some(0)));
        assert!(t.spans[0].ns() >= t.spans[1].ns() + t.spans[2].ns());
        assert_eq!(t.micros("inner").len(), 2);
        assert!(t.best_micros("inner") <= t.micros("inner")[0]);
    }
}
