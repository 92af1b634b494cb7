//! The three workloads and the single driver thread that runs them.
//!
//! The driver feeds the program through public entry points only:
//! `SplitJoin::{spawn, process_batch, drain_results, shutdown}` and
//! `QueryRuntime::{new, admit, push, poll, take_rows, replan, finish}`.
//! Every engine of a run reads the same input stream from its start, and
//! is set up the same way: spawn, admit, and fill both windows with the
//! first `2W` inputs. A run has these phases, in order:
//!
//! 1. set-up, once per engine below;
//! 2. throughput, on fresh engines: closed loop for half the run time,
//!    a drain after every `round` inputs;
//! 3. latency, on fresh engines: open loop at the workload's fixed rate
//!    for the other half;
//! 4. control (`fanout-queries` only), on the last latency engine:
//!    re-plans between short bursts;
//! 5. traced mode only: another engine with spans on, and for
//!    `fanout-queries` a bare SplitJoin on the same inputs and cadence;
//! 6. the oracle, over every prefix some engine consumed.

use std::time::{Duration, Instant};

use joinsw::prelude::{JoinError, JoinOutcome, SplitJoin, SplitJoinConfig};
use joinsw::{JoinConfig, Kernel, Partitioning, Transport};
use query::prelude::{EngineKind, Objective, QueryReport, QueryRuntime, RuntimeConfig};
use streamcore::{MatchPair, StreamTag, Tuple};

use crate::gen::{Inputs, Keys};
use crate::hist::{Hist, Schedule};
use crate::oracle::{self, pair_row, Digest, Digests};
use crate::queries;
use crate::spans::Tracer;

/// Join workers: one per CPU of the 2-CPU reference host.
pub const WORKERS: usize = 2;
/// Distribution batch, pinned rather than read from `ACCEL_SW_BATCH`.
pub const BATCH: usize = 256;
/// Timed phases are cut into segments, and each reports the median (or,
/// for latency, the interquartile mean) over its segments, so a host
/// stall that hits a few segments does not move the result.
const SEGMENT_S: f64 = 1.0;
/// Latency segments are short, so that most of them miss the host's
/// millisecond stalls, yet long enough for hundreds of inputs to set
/// each segment's p99.
const LATENCY_SEGMENT_S: f64 = 0.1;
/// Fresh engines the throughput and the latency phase are split over.
const THROUGHPUT_ENGINES: usize = 10;
const LATENCY_ENGINES: usize = 12;

fn segments(secs: f64, segment: f64) -> usize {
    ((secs / segment).round() as usize).max(1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProbeBroadcast,
    FanoutQueries,
    HashRouted,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ProbeBroadcast,
        Workload::FanoutQueries,
        Workload::HashRouted,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProbeBroadcast => "probe-broadcast",
            Workload::FanoutQueries => "fanout-queries",
            Workload::HashRouted => "hash-routed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            // Broadcast dispatch: every input is compared against a
            // 32k-key sub-window on each worker, about 1 match each.
            // Runnable but not gated: see NOTES.md.
            Workload::ProbeBroadcast => Spec {
                workload: self,
                window: 1 << 16,
                keys: Keys::Uniform { domain: 1 << 16 },
                pool: 1 << 20,
                round: 4096,
                rate: 15_000.0,
                p99_limit_ms: 5.0,
                replans: 0,
                replan_gap: 0,
            },
            // Tiny probes, about 37 matches per input per joined query:
            // gather, fan-out and the post pipelines do the work. An
            // open-loop pass (push, poll, take_rows) takes about 0.1 ms.
            // At 12000/s inputs queued behind unfinished passes and p99
            // followed the host's load; at 3000/s they are 0.33 ms apart.
            Workload::FanoutQueries => Spec {
                workload: self,
                window: 512,
                keys: Keys::Zipf { domain: 64, s: 1.0 },
                pool: 1 << 16,
                round: 1024,
                rate: 3_000.0,
                p99_limit_ms: 5.0,
                replans: 8,
                replan_gap: 2048,
            },
            // Per-key routing over a large skewed domain, about 2
            // matches per input: router, sketch and sub-batching work,
            // probes are O(chain). Open loop at 5000/s: the workers and
            // the collector are in their idle sleeps whenever an input
            // comes due, so every result pays the same wake-up chain. At
            // 50000-400000/s only some passes met a sleeping thread, and
            // how many moved with the host's load: p50 or p99 jumped by
            // up to 2x from run to run.
            Workload::HashRouted => Spec {
                workload: self,
                window: 1 << 16,
                keys: Keys::Zipf {
                    domain: 1 << 22,
                    s: 0.7,
                },
                pool: 1 << 20,
                round: 16_384,
                rate: 5_000.0,
                p99_limit_ms: 5.0,
                replans: 0,
                replan_gap: 0,
            },
        }
    }
}

/// Everything that defines a workload's inputs and driving.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    /// Window per stream, in tuples.
    pub window: usize,
    pub keys: Keys,
    /// Length of the seeded key pool the inputs cycle through.
    pub pool: usize,
    /// Closed loop: inputs pushed between two drains.
    pub round: usize,
    /// Open loop: inputs per second.
    pub rate: f64,
    /// The p99 above which the open-loop rate counts as unsustainable.
    pub p99_limit_ms: f64,
    /// Control phase: re-plans, each after `replan_gap` inputs.
    pub replans: usize,
    pub replan_gap: usize,
}

impl Spec {
    pub fn tagged(&self) -> bool {
        self.workload == Workload::FanoutQueries
    }

    fn queries(&self) -> bool {
        self.workload == Workload::FanoutQueries
    }

    /// The same workload at a size the tests can afford.
    #[cfg(test)]
    pub fn scaled_down(self) -> Spec {
        let keys = match self.keys {
            Keys::Uniform { .. } => Keys::Uniform { domain: 256 },
            Keys::Zipf { domain, s } => Keys::Zipf {
                domain: domain.min(4096),
                s,
            },
        };
        Spec {
            window: self.window.min(256),
            keys,
            pool: 4096,
            round: 100,
            rate: 50_000.0,
            replans: self.replans.min(2),
            replan_gap: 300,
            ..self
        }
    }

    fn split_config(&self) -> SplitJoinConfig {
        let partitioning = match self.workload {
            Workload::HashRouted => Partitioning::Hash,
            _ => Partitioning::Broadcast,
        };
        SplitJoinConfig::new(WORKERS, self.window)
            .with_transport(Transport::Ring)
            .with_kernel(Kernel::Blocked)
            .with_batch_size(BATCH)
            .with_partitioning(partitioning)
    }

    /// The engine configuration the run resolves to, for the record.
    pub fn resolved_config(&self) -> String {
        if self.queries() {
            // `QueryRuntime` spawns its engines through `JoinConfig::new`
            // with no override; the environment check in `main` is what
            // pins them.
            format!(
                "query runtime engines: {:?}",
                JoinConfig::new(WORKERS, self.window)
            )
        } else {
            format!("{:?}", self.split_config())
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics only.
    Plain,
    /// Adds the traced engine and the per-layer metrics.
    Traced,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable facts about the run (samples, lag, config).
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// A failed program call, with the counts so far.
#[derive(Debug)]
pub struct Failure {
    pub message: String,
    pub attempted: u64,
}

/// What the sink keeps: digests of every delivered row and, during the
/// open loop, latency samples.
#[derive(Default)]
struct Sink {
    digests: Digests,
    latency: Option<(Schedule, Hist)>,
}

impl Sink {
    fn pairs(&mut self, matches: &[MatchPair], returned: Instant, inputs: &Inputs) {
        for &m in matches {
            self.digests.pairs.add(&pair_row(m));
        }
        if let Some((schedule, hist)) = self.latency.as_mut() {
            for m in matches {
                let a = inputs.index_of(StreamTag::R, u64::from(m.r.payload()));
                let b = inputs.index_of(StreamTag::S, u64::from(m.s.payload()));
                if let Some(d) = schedule.latency(a, b, returned) {
                    hist.record(d.as_nanos() as u64);
                }
            }
        }
    }

    fn rows(&mut self, query: usize, rows: &[Vec<u64>], returned: Instant, inputs: &Inputs) {
        let digest = &mut self.digests.queries[query];
        for row in rows {
            digest.add(row);
        }
        // The all-pairs rows are [sym, qty, sym, px]: both payloads.
        if query == 0 {
            if let Some((schedule, hist)) = self.latency.as_mut() {
                for row in rows {
                    let a = inputs.index_of(StreamTag::R, row[1]);
                    let b = inputs.index_of(StreamTag::S, row[3]);
                    if let Some(d) = schedule.latency(a, b, returned) {
                        hist.record(d.as_nanos() as u64);
                    }
                }
            }
        }
    }
}

enum System {
    Split(Box<SplitJoin>),
    Queries(QueryRuntime),
}

enum Finished {
    Split(Box<JoinOutcome>),
    Queries(Vec<QueryReport>),
}

struct SetupTimes {
    spawn: f64,
    admit: f64,
    warm: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.spawn + self.admit + self.warm
    }
}

enum Until {
    Index(u64),
    Time(Instant),
}

/// The single driver thread's state.
struct Driver<'a> {
    spec: Spec,
    inputs: &'a Inputs,
    calls: u64,
    tracer: Tracer,
    buf: Vec<(StreamTag, Tuple)>,
}

impl Driver<'_> {
    fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Result<T, Failure> {
        self.calls += 1;
        r.map_err(|e| Failure {
            message: format!("{what} failed: {e}"),
            attempted: self.calls,
        })
    }

    fn spawn(&mut self, split: Option<SplitJoinConfig>) -> Result<(System, SetupTimes), Failure> {
        let t0 = Instant::now();
        self.tracer.begin("spawn");
        let system = match split {
            Some(config) => System::Split(Box::new(SplitJoin::spawn(config))),
            None => System::Queries(QueryRuntime::new(
                queries::catalog(),
                RuntimeConfig::new(WORKERS),
            )),
        };
        self.calls += 1;
        self.tracer.end();
        let t1 = Instant::now();
        self.tracer.begin("admit");
        let mut system = system;
        if let System::Queries(rt) = &mut system {
            for (id, plan) in queries::plans(self.spec.window) {
                let kind = rt.admit(id, &plan);
                let kind = self.call("admit", kind)?;
                let want = if id == queries::IDS[4] {
                    EngineKind::Inline
                } else {
                    EngineKind::Split
                };
                if kind != want {
                    return Err(Failure {
                        message: format!("query {id} was placed on {kind}, not {want}"),
                        attempted: self.calls,
                    });
                }
            }
        }
        self.tracer.end();
        let t2 = Instant::now();
        Ok((
            system,
            SetupTimes {
                spawn: (t1 - t0).as_secs_f64(),
                admit: (t2 - t1).as_secs_f64(),
                warm: 0.0,
            },
        ))
    }

    /// Spawn, admit, and fill both windows to steady state.
    fn setup(
        &mut self,
        split: Option<SplitJoinConfig>,
        sink: &mut Sink,
    ) -> Result<(System, SetupTimes), Failure> {
        let (mut system, mut times) = self.spawn(split)?;
        let t = Instant::now();
        self.tracer.begin("warm");
        self.rounds(
            &mut system,
            0,
            Until::Index(2 * self.spec.window as u64),
            sink,
        )?;
        self.tracer.end();
        times.warm = t.elapsed().as_secs_f64();
        Ok((system, times))
    }

    fn push(&mut self, system: &mut System) -> Result<(), Failure> {
        self.tracer.begin("push");
        let buf = std::mem::take(&mut self.buf);
        let mut result = Ok(());
        match system {
            System::Split(join) => {
                for chunk in buf.chunks(BATCH) {
                    let r = join.process_batch(chunk);
                    if let Err(e) = self.call::<(), JoinError>("process_batch", r) {
                        result = Err(e);
                        break;
                    }
                }
            }
            System::Queries(rt) => {
                for &(tag, t) in &buf {
                    let r = rt.push(queries::stream(tag), t);
                    if let Err(e) = self.call("push", r) {
                        result = Err(e);
                        break;
                    }
                }
            }
        }
        self.buf = buf;
        self.tracer.end();
        result
    }

    /// Harvests everything delivered so far into `sink`.
    fn collect(&mut self, system: &mut System, sink: &mut Sink) -> Result<(), Failure> {
        match system {
            System::Split(join) => {
                self.tracer.begin("drain");
                let r = join.drain_results();
                self.tracer.end();
                let returned = Instant::now();
                let matches = self.call("drain_results", r)?;
                self.tracer.begin("sink");
                sink.pairs(&matches, returned, self.inputs);
                self.tracer.end();
            }
            System::Queries(rt) => {
                self.tracer.begin("poll");
                let r = rt.poll();
                self.tracer.end();
                self.call("poll", r)?;
                for (q, id) in queries::IDS.iter().enumerate() {
                    self.tracer.begin("take_rows");
                    let r = rt.take_rows(id);
                    self.tracer.end();
                    let returned = Instant::now();
                    let rows = self.call("take_rows", r)?;
                    self.tracer.begin("sink");
                    sink.rows(q, &rows, returned, self.inputs);
                    self.tracer.end();
                }
            }
        }
        Ok(())
    }

    /// Closed loop from input `from`: push a round, drain, repeat.
    /// Returns the next input index.
    fn rounds(
        &mut self,
        system: &mut System,
        from: u64,
        until: Until,
        sink: &mut Sink,
    ) -> Result<u64, Failure> {
        let mut next = from;
        loop {
            let end = match until {
                Until::Index(stop) if next >= stop => break,
                Until::Index(stop) => stop.min(next + self.spec.round as u64),
                Until::Time(deadline) if Instant::now() >= deadline => break,
                Until::Time(_) => next + self.spec.round as u64,
            };
            self.tracer.begin("round");
            self.inputs.fill(next..end, &mut self.buf);
            self.push(system)?;
            self.collect(system, sink)?;
            self.tracer.end();
            next = end;
        }
        Ok(next)
    }

    /// Closed-loop saturation for `secs`: inputs per second from the
    /// first push until the last row reached the sink.
    fn throughput(
        &mut self,
        system: &mut System,
        from: u64,
        secs: f64,
        sink: &mut Sink,
    ) -> Result<(u64, Vec<f64>), Failure> {
        let mut next = from;
        let mut rates = Vec::new();
        let n = segments(secs, SEGMENT_S);
        let seg = secs / n as f64;
        for _ in 0..n {
            let t0 = Instant::now();
            let end = self.rounds(
                system,
                next,
                Until::Time(t0 + Duration::from_secs_f64(seg)),
                sink,
            )?;
            rates.push((end - next) as f64 / t0.elapsed().as_secs_f64());
            next = end;
        }
        Ok((next, rates))
    }

    /// Open loop at the workload's rate for `secs`. Each pass pushes
    /// every input that has come due, then drains; with nothing due the
    /// driver sleeps until the next due time, leaving the CPUs to the
    /// workers.
    fn open_loop(
        &mut self,
        system: &mut System,
        from: u64,
        secs: f64,
        sink: &mut Sink,
    ) -> Result<OpenLoop, Failure> {
        let total = (secs * self.spec.rate) as u64;
        let schedule = Schedule {
            t0: Instant::now(),
            first: from,
            rate: self.spec.rate,
        };
        sink.latency = Some((schedule, Hist::default()));
        let n = segments(secs, LATENCY_SEGMENT_S) as u64;
        let mut quantiles = Vec::new();
        let mut all = Hist::default();
        let mut lag = Hist::default();
        let mut next = from;
        while next < from + total {
            let now = Instant::now();
            let due = (from + schedule.due_by(now)).min(from + total);
            if due <= next {
                std::thread::sleep(schedule.due(next).saturating_duration_since(now));
                continue;
            }
            for i in next..due {
                lag.record(now.saturating_duration_since(schedule.due(i)).as_nanos() as u64);
            }
            self.inputs.fill(next..due, &mut self.buf);
            self.push(system)?;
            self.collect(system, sink)?;
            next = due;
            // Results delivered after the segment's last input was
            // pushed count towards the next segment.
            if (next - from) * n >= (quantiles.len() as u64 + 1) * total {
                let (_, hist) = sink.latency.as_mut().expect("set above");
                let segment = std::mem::take(hist);
                quantiles.push((
                    segment.quantile_ns(0.5) * 1e-6,
                    segment.quantile_ns(0.99) * 1e-6,
                ));
                all.merge(&segment);
            }
        }
        sink.latency = None;
        Ok(OpenLoop {
            next,
            quantiles,
            latency: all,
            lag,
        })
    }

    fn finish(&mut self, system: System, sink: &mut Sink) -> Result<Finished, Failure> {
        self.tracer.begin("shutdown");
        let finished = match system {
            System::Split(join) => {
                let r = join.shutdown();
                self.tracer.end();
                let outcome = self.call("shutdown", r)?;
                sink.pairs(&outcome.results, Instant::now(), self.inputs);
                Finished::Split(Box::new(outcome))
            }
            System::Queries(rt) => {
                let r = rt.finish();
                self.tracer.end();
                let reports = self.call("finish", r)?;
                for report in &reports {
                    let q = queries::IDS
                        .iter()
                        .position(|id| *id == report.id)
                        .expect("reports are for admitted queries");
                    sink.rows(q, &report.rows, Instant::now(), self.inputs);
                }
                Finished::Queries(reports)
            }
        };
        Ok(finished)
    }
}

/// What an open loop returns.
struct OpenLoop {
    /// The next input index.
    next: u64,
    /// Each segment's p50 and p99, in ms. A segment's histogram is
    /// dropped once they are taken, so the benchmark's own memory stays
    /// out of `peak_rss_mb`.
    quantiles: Vec<(f64, f64)>,
    /// Every result latency.
    latency: Hist,
    /// How late each input was pushed.
    lag: Hist,
}

/// The mean of the middle half of `v` (all of it below four values): as
/// robust to a few stalled segments as the median, but it moves smoothly
/// when segments fall into two clusters instead of jumping between them.
fn interquartile_mean(mut v: Vec<f64>) -> f64 {
    if v.len() < 4 {
        return v.iter().sum::<f64>() / v.len().max(1) as f64;
    }
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `n`, min, median and max of per-segment values, for the run's notes.
fn spread_note(v: &[f64]) -> String {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "n {} min {min:.6} median {:.6} max {max:.6}",
        v.len(),
        median(v.to_vec())
    )
}

/// VmHWM of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One digest check: what a system delivered against the oracle.
struct Check {
    what: &'static str,
    queries: bool,
    got: Digests,
    upto: u64,
}

/// Per-layer figures from the traced part of the run.
#[derive(Default)]
struct Traced {
    tput: f64,
    /// The raw SplitJoin whose layers are reported: the traced engine,
    /// or the bare companion for `fanout-queries`.
    outcome: Option<JoinOutcome>,
    /// Phase whose spans the probe/router/gather metrics come from.
    split_phase: &'static str,
    split_inputs: u64,
    /// Matches drained in that phase.
    split_matches: u64,
    /// Inputs the outcome's engine consumed over its whole life.
    split_life_inputs: u64,
    reports: Vec<QueryReport>,
}

/// Runs one workload. `secs` is split between the throughput and the
/// latency phase.
pub fn run(spec: Spec, seed: u64, secs: f64, mode: Mode) -> Result<Report, Failure> {
    let inputs = Inputs::new(spec.keys, spec.pool, seed, spec.tagged());
    let mut d = Driver {
        spec,
        inputs: &inputs,
        calls: 0,
        tracer: Tracer::new(false, spec.workload.name()),
        buf: Vec::with_capacity(spec.round.max(BATCH)),
    };
    let split = (!spec.queries()).then(|| spec.split_config());
    let warm_end = 2 * spec.window as u64;
    let mut checks = Vec::new();
    let mut notes = Vec::new();

    // 1-2. Set-up, then a slice of the closed loop, on each of a few
    // fresh engines: a run's figures then do not hang on how one engine's
    // threads happened to be scheduled.
    let mut setups = Vec::new();
    let mut shutdowns = Vec::new();
    let mut rates = Vec::new();
    for _ in 0..THROUGHPUT_ENGINES {
        let mut sink = Sink::default();
        let (mut system, times) = d.setup(split.clone(), &mut sink)?;
        setups.push(times);
        let secs = secs / 2.0 / THROUGHPUT_ENGINES as f64;
        let (end, engine_rates) = d.throughput(&mut system, warm_end, secs, &mut sink)?;
        rates.extend(engine_rates);
        let t = Instant::now();
        d.finish(system, &mut sink)?;
        shutdowns.push(t.elapsed().as_secs_f64());
        checks.push(Check {
            what: "throughput run",
            queries: spec.queries(),
            got: sink.digests,
            upto: end,
        });
    }
    notes.push(format!(
        "throughput segments (tuples/s): {}",
        spread_note(&rates)
    ));
    let tput = median(rates);

    // 3. Latency, likewise split over fresh engines: each engine's open
    // loop settles into one of a few timing patterns (which thread is
    // asleep when an input arrives), so one engine would make the run's
    // latency a coin toss.
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut latency = Hist::default();
    let mut lag = Hist::default();
    let mut rss = 0.0;
    let (mut replan_ms, mut replayed, mut duplicates) = (Vec::new(), 0u64, 0u64);
    for k in 0..LATENCY_ENGINES {
        let mut sink = Sink::default();
        let (mut system, times) = d.setup(split.clone(), &mut sink)?;
        setups.push(times);
        let secs = secs / 2.0 / LATENCY_ENGINES as f64;
        let open = d.open_loop(&mut system, warm_end, secs, &mut sink)?;
        let mut next = open.next;
        for (p50, p99) in open.quantiles {
            p50s.push(p50);
            p99s.push(p99);
        }
        latency.merge(&open.latency);
        lag.merge(&open.lag);
        rss = peak_rss_mb();

        // 4. Control phase, on the last engine: drain-and-handoff
        // re-plans.
        let replans = if k + 1 == LATENCY_ENGINES {
            spec.replans
        } else {
            0
        };
        for _ in 0..replans {
            next = d.rounds(
                &mut system,
                next,
                Until::Index(next + spec.replan_gap as u64),
                &mut sink,
            )?;
            let System::Queries(rt) = &mut system else {
                unreachable!("only the query workload re-plans")
            };
            let t = Instant::now();
            let r = rt.replan(queries::IDS[0], Objective::MaxThroughput);
            let elapsed = t.elapsed().as_secs_f64();
            let report = d.call("replan", r)?;
            if !report.lossless()
                || report.from != EngineKind::Split
                || report.to != EngineKind::Split
            {
                return Err(Failure {
                    message: format!("re-plan was not a lossless Split -> Split handoff: {report}"),
                    attempted: d.calls,
                });
            }
            replan_ms.push(elapsed * 1e3);
            replayed += (report.prefilled.0 + report.prefilled.1) as u64;
            duplicates += report.duplicates_discarded;
        }
        let t = Instant::now();
        d.finish(system, &mut sink)?;
        shutdowns.push(t.elapsed().as_secs_f64());
        checks.push(Check {
            what: "latency run",
            queries: spec.queries(),
            got: sink.digests,
            upto: next,
        });
    }
    notes.push(format!("latency segments p50 (ms): {}", spread_note(&p50s)));
    notes.push(format!("latency segments p99 (ms): {}", spread_note(&p99s)));

    // 5. Traced engine.
    let mut traced = Traced::default();
    if mode == Mode::Traced {
        obs::trace::set_ring_capacity(1 << 18);
        obs::trace::enable(1);
        d.tracer.set_on(true);
        d.tracer.set_phase("setup");
        let mut sink = Sink::default();
        let (mut system, _) = d.setup(split.clone(), &mut sink)?;
        let warm_matches = sink.digests.pairs.count;
        d.tracer.set_phase("throughput");
        d.tracer.begin("throughput");
        let (end, rates) = d.throughput(&mut system, warm_end, secs / 4.0, &mut sink)?;
        let tput_traced = median(rates);
        d.tracer.end();
        let phase_matches = sink.digests.pairs.count - warm_matches;
        d.tracer.set_phase("shutdown");
        let finished = d.finish(system, &mut sink)?;
        checks.push(Check {
            what: "traced run",
            queries: spec.queries(),
            got: sink.digests,
            upto: end,
        });
        traced.tput = tput_traced;
        match finished {
            Finished::Split(outcome) => {
                traced.outcome = Some(*outcome);
                traced.split_phase = "throughput";
                traced.split_matches = phase_matches;
            }
            Finished::Queries(reports) => {
                traced.reports = reports;
                // The bare SplitJoin companion: same inputs, same cadence,
                // and the configuration the runtime's engine resolves to.
                d.tracer.set_phase("companion.setup");
                let mut sink = Sink::default();
                let (mut system, _) = d.setup(Some(spec.split_config()), &mut sink)?;
                let warm_matches = sink.digests.pairs.count;
                d.tracer.set_phase("companion");
                d.tracer.begin("companion");
                d.rounds(&mut system, warm_end, Until::Index(end), &mut sink)?;
                d.tracer.end();
                traced.split_matches = sink.digests.pairs.count - warm_matches;
                d.tracer.set_phase("companion.shutdown");
                if let Finished::Split(outcome) = d.finish(system, &mut sink)? {
                    traced.outcome = Some(*outcome);
                }
                checks.push(Check {
                    what: "companion",
                    queries: false,
                    got: sink.digests,
                    upto: end,
                });
                traced.split_phase = "companion";
            }
        }
        traced.split_inputs = end - warm_end;
        traced.split_life_inputs = end;
        obs::trace::disable();
        d.tracer.set_on(false);
    }

    // 6. The oracle, outside every timed phase.
    let points: Vec<u64> = checks.iter().map(|c| c.upto).collect();
    let want = oracle::expected(&inputs, spec.window, &points);
    let mut mismatched = 0;
    for (check, want) in checks.iter().zip(&want) {
        let compared: Vec<(&str, Digest, Digest)> = if check.queries {
            (0..queries::IDS.len())
                .map(|q| (queries::IDS[q], check.got.queries[q], want.queries[q]))
                .collect()
        } else {
            vec![("pairs", check.got.pairs, want.pairs)]
        };
        for (what, got, want) in compared {
            let m = got.mismatch(&want);
            if m > 0 {
                notes.push(format!(
                    "MISMATCH {} {}: got {} rows (sum {:#x}), want {} rows (sum {:#x})",
                    check.what, what, got.count, got.sum, want.count, want.sum
                ));
            }
            mismatched += m;
        }
    }

    let samples = latency.count();
    let beyond = latency.beyond(0.99);
    notes.push(format!(
        "latency: {samples} samples at {} inputs/s, {beyond} beyond p99; generator lag p99 {:.3} ms",
        spec.rate,
        lag.quantile_ns(0.99) * 1e-6
    ));
    let p50_ms = interquartile_mean(p50s);
    let p99_ms = interquartile_mean(p99s);
    if p99_ms > spec.p99_limit_ms {
        notes.push(format!(
            "WARNING: p99 {p99_ms:.3} ms is over the {} ms limit for this rate",
            spec.p99_limit_ms
        ));
    }
    if beyond < 10 {
        return Err(Failure {
            message: format!("only {beyond} latency samples beyond p99; at least 10 are needed"),
            attempted: d.calls,
        });
    }

    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    notes.push(format!("set-ups (s): {}", spread_note(&totals)));
    let setup_s = median(totals);
    let end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_tps", tput, "tuples/s"),
        metric("latency_p50_ms", p50_ms, "ms"),
        metric("latency_p99_ms", p99_ms, "ms"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    let attempted = d.calls + checks.len() as u64;
    notes.push(format!(
        "error_rate: {mismatched} of {attempted} (failed calls plus rows missing or extra)"
    ));

    let per_layer = if mode == Mode::Traced {
        let mut m = layer_metrics(&d.tracer, &traced, tput);
        m.extend([
            metric(
                "setup.spawn_s",
                median(setups.iter().map(|s| s.spawn).collect()),
                "s",
            ),
            metric(
                "setup.admit_s",
                median(setups.iter().map(|s| s.admit).collect()),
                "s",
            ),
            metric(
                "setup.warm_s",
                median(setups.iter().map(|s| s.warm).collect()),
                "s",
            ),
            metric("shutdown_s", median(shutdowns.clone()), "s"),
            metric("replan.p50_ms", median(replan_ms.clone()), "ms"),
            metric(
                "replan.max_ms",
                replan_ms.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            metric("handoff.replayed", replayed as f64, "count"),
            metric("handoff.duplicates", duplicates as f64, "count"),
            metric("gen.lag_p99_ms", lag.quantile_ns(0.99) * 1e-6, "ms"),
            metric("latency.samples", samples as f64, "count"),
            metric("latency.beyond_p99", beyond as f64, "count"),
        ]);
        m
    } else {
        Vec::new()
    };

    Ok(Report {
        correct: mismatched == 0,
        attempted,
        failed: mismatched,
        end_to_end,
        per_layer,
        notes,
        tracer: d.tracer,
    })
}

/// Probe, router, gather and query data-plane metrics of the traced run.
fn layer_metrics(tracer: &Tracer, t: &Traced, untraced_tput: f64) -> Vec<Metric> {
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let mut out = Vec::new();
    let phase = t.split_phase;
    let outcome = t
        .outcome
        .as_ref()
        .expect("the traced run keeps a SplitJoin outcome");

    // Probe: the program's own worker span rings, within the phase.
    let (lo, hi) = tracer.window(phase, phase).unwrap_or((0, u64::MAX));
    let (mut probe_ns, mut recv_ns) = (0u64, 0u64);
    for ring in outcome
        .trace
        .iter()
        .filter(|r| r.track().starts_with("sw.worker."))
    {
        for e in ring.events() {
            if e.start < lo || e.start > hi {
                continue;
            }
            match e.name {
                "probe" => probe_ns += e.dur,
                "recv" => recv_ns += e.dur,
                _ => {}
            }
        }
    }
    let ks = outcome.kernel_stats.unwrap_or_default();
    let life = t.split_life_inputs;
    let comparisons: u64 = outcome.worker_stats.iter().map(|w| w.comparisons).sum();
    let matches: u64 = outcome.worker_stats.iter().map(|w| w.matches).sum();
    out.extend([
        metric(
            "kernel.lanes_per_tuple",
            per(ks.lanes as f64, life),
            "lanes/tuple",
        ),
        metric(
            "kernel.match_ratio",
            per(ks.match_bits as f64, ks.lanes),
            "ratio",
        ),
        metric(
            "kernel.scalar_fallbacks",
            ks.scalar_fallbacks as f64,
            "count",
        ),
        metric(
            "worker.comparisons",
            per(comparisons as f64, life),
            "count/tuple",
        ),
        metric("worker.matches", per(matches as f64, life), "count/tuple"),
        metric("worker.probe_s", probe_ns as f64 * 1e-9, "s"),
        metric("worker.recv_wait_s", recv_ns as f64 * 1e-9, "s"),
    ]);

    // Router: time inside process_batch, plus the outcome's ring and
    // partition counts.
    let busy = tracer.total_s("push", phase);
    let (claim_waits, occupancy_peak) = outcome.ring_stats.as_ref().map_or((0, 0), |r| {
        (r.claim_wait_ns.total(), r.peak_occupancy.get())
    });
    let (routed, balance, hot) = outcome.partition_stats.as_ref().map_or((0.0, 0.0, 0), |p| {
        (per(p.routed as f64, life), p.balance(), p.hot_splits)
    });
    out.extend([
        metric("router.busy_s", busy, "s"),
        metric("router.ns_per_tuple", per(busy * 1e9, t.split_inputs), "ns"),
        metric("ring.claim_waits", claim_waits as f64, "count"),
        metric("ring.occupancy_peak", occupancy_peak as f64, "count"),
        metric("partition.routed_per_tuple", routed, "count/tuple"),
        metric("partition.balance", balance, "ratio"),
        metric("partition.hot_splits", hot as f64, "count"),
    ]);

    // Gather: drain_results.
    let drain_s = tracer.total_s("drain", phase);
    let drain_calls = tracer.count("drain", phase);
    out.extend([
        metric("drain.busy_s", drain_s, "s"),
        metric("drain.calls", drain_calls as f64, "count"),
        metric(
            "drain.matches_per_call",
            per(t.split_matches as f64, drain_calls),
            "count",
        ),
    ]);

    // Query data plane.
    let q = "throughput";
    let (push_s, poll_s, take_s) = if t.reports.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            tracer.total_s("push", q),
            tracer.total_s("poll", q),
            tracer.total_s("take_rows", q),
        )
    };
    out.extend([
        metric("query.push_s", push_s, "s"),
        metric("query.poll_s", poll_s, "s"),
        metric("query.take_rows_s", take_s, "s"),
        metric(
            "query.fanout_est_s",
            if t.reports.is_empty() {
                0.0
            } else {
                poll_s - drain_s
            },
            "s",
        ),
    ]);
    for id in queries::IDS {
        let ratio = t
            .reports
            .iter()
            .find(|r| r.id == id)
            .map_or(0.0, |r| per(r.rows_emitted as f64, r.matches_in));
        out.push(metric(format!("query.rows_per_match.{id}"), ratio, "ratio"));
    }

    out.push(metric(
        "trace.overhead_pct",
        (untraced_tput - t.tput) / untraced_tput * 100.0,
        "%",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(vec![]), 0.0);
        assert_eq!(interquartile_mean(vec![1.0, 3.0]), 2.0);
        // Sorted: 1 2 | 3 4 5 6 | 90 100.
        let v = vec![100.0, 3.0, 1.0, 6.0, 90.0, 4.0, 2.0, 5.0];
        assert_eq!(interquartile_mean(v), 4.5);
    }

    /// Every workload, tiny, end to end: the oracle agrees and every
    /// metric is reported.
    #[test]
    fn smoke_every_workload_passes_the_oracle() {
        for w in Workload::ALL {
            let report = run(w.spec().scaled_down(), 11, 0.6, Mode::Traced)
                .unwrap_or_else(|f| panic!("{w:?}: {}", f.message));
            assert!(report.correct, "{w:?}: {:?}", report.notes);
            assert_eq!(report.failed, 0);
            assert_eq!(report.end_to_end.len(), 5);
            for m in &report.end_to_end {
                assert!(m.value > 0.0, "{w:?} {} = {}", m.name, m.value);
            }
            assert!(report.per_layer.len() > 30, "{w:?}");
        }
    }
}
