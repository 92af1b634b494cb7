//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (`obs::trace::now_ns`, the clock the
//! program's own `sw.worker.<i>` rings use), its parent, and the phase
//! of the run it belongs to. Spans nest strictly because one driver
//! thread opens and closes them in order. A span's self time is its
//! duration minus that of its children.

use std::io::{self, Write};
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub phase: &'static str,
}

pub struct Tracer {
    on: bool,
    workload: &'static str,
    phase: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool, workload: &'static str) -> Self {
        Self {
            on,
            workload,
            phase: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: obs::trace::now_ns(),
            end: 0,
            parent: self.open.last().copied(),
            phase: self.phase,
        });
        self.open.push(id);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("end matches a begin");
        self.spans[id].end = obs::trace::now_ns();
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn matching<'a>(&'a self, name: &'a str, phase: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.phase == phase)
    }

    /// Summed duration of the spans `name` in `phase`, in seconds.
    pub fn total_s(&self, name: &str, phase: &str) -> f64 {
        self.matching(name, phase)
            .map(|s| s.end - s.start)
            .sum::<u64>() as f64
            * 1e-9
    }

    pub fn count(&self, name: &str, phase: &str) -> u64 {
        self.matching(name, phase).count() as u64
    }

    /// `[start, end]` of the first span `name` in `phase`.
    pub fn window(&self, name: &str, phase: &str) -> Option<(u64, u64)> {
        self.matching(name, phase).next().map(|s| (s.start, s.end))
    }

    /// Each span's duration minus its children's, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.end - s.start;
            }
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"workload\":\"{}\",\"phase\":\"{}\"}}",
                s.name, s.start, s.end, self_ns, parent, self.workload, s.phase
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use crate::workloads::{run, Mode, Workload};

    /// Spans from a traced smoke run nest inside their parents, and the
    /// self times sum to no more than the wall time they cover.
    #[test]
    fn spans_nest_and_self_times_fit_the_wall_time() {
        let report = run(
            Workload::FanoutQueries.spec().scaled_down(),
            3,
            0.2,
            Mode::Traced,
        )
        .expect("smoke run passes");
        let spans = report.tracer.spans();
        assert!(spans.len() > 10, "the traced run records spans");
        assert!(spans.iter().any(|s| s.parent.is_some()), "some spans nest");
        for s in spans {
            assert!(s.start <= s.end, "{s:?}");
            if let Some(p) = s.parent {
                let p = &spans[p];
                assert!(p.start <= s.start && s.end <= p.end, "{s:?} escapes {p:?}");
            }
        }
        let first = spans.iter().map(|s| s.start).min().expect("spans exist");
        let last = spans.iter().map(|s| s.end).max().expect("spans exist");
        let self_total: u64 = report.tracer.self_ns().iter().sum();
        assert!(
            self_total <= last - first,
            "{self_total} > {}",
            last - first
        );
        // Roots do not overlap, so self times sum to the roots' time.
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum();
        assert_eq!(self_total, roots);
    }
}
