//! Spans recorded by the benchmark around each call into a layer's
//! public function. The program itself is not instrumented: every span
//! here wraps a library call made from this harness.
//!
//! Set-up calls (`parse_bench`, `FaultUniverse::collapsed`,
//! `TpiEngine::with_registry`) are timed in untraced runs too, because
//! `setup_s` is an end-to-end metric; everything else is timed only when
//! tracing is on.

use std::time::Instant;

/// One closed interval of a job, in nanoseconds since the tracer's
/// origin. `derived` spans are not timed by the harness: their length is
/// read from a program registry histogram that grew during the parent
/// span (candidate scoring and incremental re-simulation inside
/// `engine.optimize`), and they are laid out from the parent's start.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub job: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one pass over the job list.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_job: Option<usize>,
    job_index: usize,
    setup_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open_job: None,
            job_index: 0,
            setup_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of job `job`; layer spans recorded until
    /// [`end_job`](Tracer::end_job) become its children.
    pub fn begin_job(&mut self, job: usize) {
        self.job_index = job;
        if self.enabled {
            let id = self.spans.len();
            let now = self.now_ns();
            self.spans.push(Span {
                id,
                parent: None,
                job,
                name: "job",
                start_ns: now,
                end_ns: now,
                derived: false,
            });
            self.open_job = Some(id);
        }
    }

    pub fn end_job(&mut self) {
        if let Some(id) = self.open_job.take() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, derived: bool) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open_job,
            job: self.job_index,
            name,
            start_ns,
            end_ns,
            derived,
        });
        id
    }

    /// Time `f` as layer span `name` when tracing is on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_id(name, f).0
    }

    /// Like [`span`](Tracer::span), but returns the span id so derived
    /// children can be attached with [`derived`](Tracer::derived).
    pub fn span_id<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let id = self.record(name, start, end, false);
        (out, Some(id))
    }

    /// Time a set-up call: always measured (it feeds `setup_s`), and
    /// recorded as a span when tracing is on.
    pub fn setup<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.setup_ns += elapsed.as_nanos() as u64;
        if self.enabled {
            let end = self.now_ns();
            self.record(name, end - elapsed.as_nanos() as u64, end, false);
        }
        out
    }

    /// Attach a child of `parent` whose length `ns` was read from a
    /// program registry. Children are packed back to back from the
    /// parent's start and clipped to the parent's end.
    pub fn derived(&mut self, parent: Option<usize>, name: &'static str, ns: u64) {
        let Some(parent) = parent else { return };
        let taken: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::duration_ns)
            .sum();
        let p = &self.spans[parent];
        let start = (p.start_ns + taken).min(p.end_ns);
        let end = (start + ns).min(p.end_ns);
        let (job, id) = (p.job, self.spans.len());
        self.spans.push(Span {
            id,
            parent: Some(parent),
            job,
            name,
            start_ns: start,
            end_ns: end,
            derived: true,
        });
    }

    /// Summed set-up time of this pass, in nanoseconds.
    pub fn setup_ns(&self) -> u64 {
        self.setup_ns
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its length minus the part its children
/// cover (children never overlap: calls are sequential and derived
/// children are packed and clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| s.duration_ns().saturating_sub(child_ns[s.id]))
        .collect()
}
