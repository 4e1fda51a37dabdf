//! The fleet profiler: per-worker, per-phase attribution of sweep wall
//! time.
//!
//! A Monte-Carlo sweep runs hundreds of scenarios through a pipeline of
//! phases (adequation, delay-graph synthesis, co-simulation, executive
//! validation, static verification) on a self-scheduling worker pool.
//! This module answers *where the wall time of such a sweep goes* while
//! disturbing neither the pool nor the sweep's deterministic artifacts:
//!
//! * each worker records monotonic-clock [`ProfileSpan`]s into its own
//!   [`WorkerProfile`] buffer — **no shared-state writes on the hot
//!   path**, so profiling cannot serialize the pool;
//! * after the pool joins, the buffers merge **in worker-index order**
//!   into a [`ProfileReport`] with exact per-phase percentiles and
//!   per-worker utilization/idle/claim counters. Memo lookups are not
//!   observed here: the memo tables' own per-digest counts are their
//!   exact record;
//! * wall-clock readings appear **only** here. A sweep's summary, trace
//!   and histogram artifacts carry no profiler state, so they stay
//!   byte-identical whether profiling is on or off and for any worker
//!   count. The report itself is a *sidecar*: its structure (phases,
//!   counts) is deterministic, its nanosecond values are wall-clock
//!   measurements and are not.

use std::time::Instant;

use crate::event::Event;

/// A pipeline phase the profiler attributes wall time to.
///
/// The variants mirror the lifecycle span names of the single-run
/// collector (`adequation`, `delay-graph synthesis`, `co-simulation`)
/// plus the sweep-only stages around them, so a fleet profile reads like
/// the per-run trace it aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Scenario derivation: PRNG draws and the lookup of the scenario's
    /// class in the worker's class table; a scenario served its class's
    /// whole row is this phase alone.
    Derive,
    /// Schedule lookup/computation (the schedule `DigestMemo` + list
    /// scheduler), or the deployed part of a class the worker knows.
    Adequation,
    /// Fault-envelope abstract interpretation (static sweep pruning).
    Envelope,
    /// The stroboscopic reference run the cost ratio is measured against.
    IdealSim,
    /// Deterministic fault-plan generation (faulty scenarios only).
    FaultPlan,
    /// Graph-of-delays synthesis from the schedule.
    Synthesis,
    /// The co-simulation itself (including any fault-free twin replay).
    Cosim,
    /// Latency extraction, histogram filling and outcome assembly.
    Metrics,
    /// Executive generation + virtual-machine cross-validation.
    Validation,
    /// Static verification and soundness-margin measurement.
    Verification,
}

impl Phase {
    /// Every phase, in canonical report order.
    pub const ALL: [Phase; 10] = [
        Phase::Derive,
        Phase::Adequation,
        Phase::Envelope,
        Phase::IdealSim,
        Phase::FaultPlan,
        Phase::Synthesis,
        Phase::Cosim,
        Phase::Metrics,
        Phase::Validation,
        Phase::Verification,
    ];

    /// Stable display name (matches the lifecycle span names where a
    /// counterpart exists).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Derive => "derive",
            Phase::Adequation => "adequation",
            Phase::Envelope => "fault envelope",
            Phase::IdealSim => "ideal co-simulation",
            Phase::FaultPlan => "fault planning",
            Phase::Synthesis => "delay-graph synthesis",
            Phase::Cosim => "co-simulation",
            Phase::Metrics => "metrics",
            Phase::Validation => "executive validation",
            Phase::Verification => "static verify",
        }
    }

    /// One-character glyph used by the Gantt renderer.
    pub fn glyph(self) -> char {
        match self {
            Phase::Derive => 'd',
            Phase::Adequation => 'a',
            Phase::Envelope => 'e',
            Phase::IdealSim => 'i',
            Phase::FaultPlan => 'f',
            Phase::Synthesis => 'g',
            Phase::Cosim => 'c',
            Phase::Metrics => 'm',
            Phase::Validation => 'v',
            Phase::Verification => 's',
        }
    }
}

/// One monotonic-clock phase window a worker recorded, in nanoseconds
/// since the sweep epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Scenario index the window belongs to.
    pub scenario: usize,
    /// Attributed phase.
    pub phase: Phase,
    /// Window start, ns since the sweep epoch.
    pub start_ns: u64,
    /// Window end, ns since the sweep epoch.
    pub end_ns: u64,
}

impl ProfileSpan {
    /// Window length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A worker's private profiling buffer.
///
/// Created once per pool worker (never shared), filled on the worker's
/// own thread, and handed back whole when the pool joins. A disabled
/// buffer records nothing and reads no clock beyond construction, so a
/// profiling-off sweep pays only a branch per instrumentation site.
///
/// A task's phases share their boundaries: [`begin_task`] reads the
/// clock once for the task window's start, which is also the first
/// phase's start, and each [`phase`] reads it once at its end, which is
/// also the next phase's start. A task of `n` back-to-back phases thus
/// reads the clock `n + 2` times (the extra one is [`end_task`]), and its
/// spans tile the window up to the last phase's end; a last phase marked
/// with [`last_phase`] shares [`end_task`]'s read instead, so the task
/// reads the clock `n + 1` times and its spans tile the whole window.
/// Work between two phases that no phase names must call [`boundary`]
/// before the next phase, or that phase absorbs it.
///
/// [`begin_task`]: WorkerProfile::begin_task
/// [`phase`]: WorkerProfile::phase
/// [`end_task`]: WorkerProfile::end_task
/// [`last_phase`]: WorkerProfile::last_phase
/// [`boundary`]: WorkerProfile::boundary
#[derive(Debug, Clone)]
pub struct WorkerProfile {
    worker: usize,
    enabled: bool,
    epoch: Instant,
    tasks: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
    /// Start of the open task window.
    task_ns: u64,
    /// The last phase boundary: where the next phase starts.
    mark_ns: u64,
    /// The phase, and its scenario, the open task's closing clock read
    /// also closes ([`last_phase`](WorkerProfile::last_phase)).
    last: Option<(usize, Phase)>,
    spans: Vec<ProfileSpan>,
}

impl WorkerProfile {
    /// A buffer for pool worker `worker`, measuring against the shared
    /// sweep `epoch` (every worker must use the same epoch or the merged
    /// lanes will not line up).
    pub fn new(worker: usize, epoch: Instant, enabled: bool) -> Self {
        WorkerProfile {
            worker,
            enabled,
            epoch,
            tasks: 0,
            busy_ns: 0,
            first_ns: u64::MAX,
            last_ns: 0,
            task_ns: 0,
            mark_ns: 0,
            last: None,
            spans: Vec::new(),
        }
    }

    /// Makes room for `spans` more phase windows, so a worker that knows
    /// its share of a sweep pushes without regrowing (nothing when
    /// disabled).
    pub fn reserve(&mut self, spans: usize) {
        if self.enabled {
            self.spans.reserve(spans);
        }
    }

    /// Whether this buffer records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pool index of the owning worker.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Nanoseconds since the sweep epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Reads the clock once and makes the reading the phase boundary the
    /// next [`phase`](WorkerProfile::phase) starts at; returns it (0 when
    /// disabled).
    pub fn boundary(&mut self) -> u64 {
        self.mark_ns = self.now_ns();
        self.mark_ns
    }

    /// The last phase boundary, without reading the clock.
    pub fn last_boundary(&self) -> u64 {
        self.mark_ns
    }

    /// Opens a claimed task's window with one clock read, which is also
    /// the boundary its first phase starts at.
    pub fn begin_task(&mut self) {
        self.task_ns = self.boundary();
        self.last = None;
    }

    /// Closes the task [`begin_task`](WorkerProfile::begin_task) opened
    /// with one clock read (see [`note_task`](WorkerProfile::note_task)),
    /// which also closes the task's [`last_phase`](WorkerProfile::last_phase)
    /// if it has one.
    pub fn end_task(&mut self) {
        if self.enabled {
            let end = self.now_ns();
            if let Some((scenario, phase)) = self.last.take() {
                self.push_span(scenario, phase, self.mark_ns, end);
                self.mark_ns = end;
            }
            self.note_task(self.task_ns, end);
        }
    }

    /// Attributes the rest of the open task, from the last boundary to
    /// the clock read [`end_task`](WorkerProfile::end_task) closes the
    /// task with, to `phase` of `scenario`: a phase that ends with its
    /// task shares the task's closing read, so a task that is one phase
    /// reads the clock twice and its phase covers the whole window.
    pub fn last_phase(&mut self, scenario: usize, phase: Phase) {
        if self.enabled {
            self.last = Some((scenario, phase));
        }
    }

    /// Records one claimed task's window: counts the task and adds its
    /// wall time to the busy total. Phases recorded inside it nest
    /// within the window.
    pub fn note_task(&mut self, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.tasks += 1;
        self.busy_ns += end_ns.saturating_sub(start_ns);
        self.first_ns = self.first_ns.min(start_ns);
        self.last_ns = self.last_ns.max(end_ns);
    }

    /// Runs `f` and attributes its wall time to `phase` of `scenario`:
    /// the window runs from the last boundary to one clock read after
    /// `f`, which becomes the next boundary.
    pub fn phase<R>(&mut self, scenario: usize, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = self.mark_ns;
        let r = f(self);
        let end = self.boundary();
        self.push_span(scenario, phase, start, end);
        r
    }

    /// Records a pre-measured phase window (used when the callee timed
    /// its own sub-phases, e.g. the split co-simulation).
    pub fn push_span(&mut self, scenario: usize, phase: Phase, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(ProfileSpan {
            scenario,
            phase,
            start_ns,
            end_ns,
        });
    }

    /// Recorded phase windows, in execution order.
    pub fn spans(&self) -> &[ProfileSpan] {
        &self.spans
    }

    /// Tasks claimed from the pool's shared index counter.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Total wall time spent inside claimed tasks.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// Aggregate statistics of one phase across the whole sweep.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Number of recorded windows.
    pub count: u64,
    /// Summed window length, ns.
    pub total_ns: u64,
    /// Median window length, ns.
    pub p50_ns: u64,
    /// 95th-percentile window length, ns.
    pub p95_ns: u64,
    /// 99th-percentile window length, ns.
    pub p99_ns: u64,
    /// Longest window, ns.
    pub max_ns: u64,
}

impl PhaseStat {
    /// The statistics of `phase`'s window lengths `durations` (at least
    /// one). The percentiles are exact nearest-rank ones, so one long
    /// window moves the maximum but not the median of a short phase.
    fn new(phase: Phase, mut durations: Vec<u64>) -> PhaseStat {
        durations.sort_unstable();
        let n = durations.len();
        let rank = |q: f64| durations[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        PhaseStat {
            phase,
            count: n as u64,
            total_ns: durations.iter().sum(),
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            p99_ns: rank(0.99),
            max_ns: durations[n - 1],
        }
    }

    /// Mean window length, ns.
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count as f64
    }
}

/// One worker's merged lane: counters plus its recorded windows.
#[derive(Debug, Clone)]
pub struct WorkerLane {
    /// Pool index.
    pub worker: usize,
    /// Scenarios claimed (self-scheduled/stolen) from the shared counter.
    pub tasks: u64,
    /// Wall time inside claimed tasks.
    pub busy_ns: u64,
    /// Active window: last task end − first task start (0 when idle).
    pub active_ns: u64,
    /// Idle time inside the active window (`active_ns − busy_ns`).
    pub idle_ns: u64,
    /// Phase windows, in execution order.
    pub spans: Vec<ProfileSpan>,
}

/// The merged fleet profile: where every nanosecond of a sweep went.
///
/// Built by [`ProfileReport::from_workers`] after the pool joins, from
/// the per-worker buffers **in worker-index order** — never in completion
/// order — so the report's *structure* (lanes, phase set, counts) is
/// deterministic; only the measured nanoseconds vary run to
/// run. It is a sidecar artifact: nothing in it feeds back into the
/// sweep's deterministic summary/trace/histogram outputs.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Sweep wall time (pool start → join), ns.
    pub wall_ns: u64,
    /// Per-worker lanes, in worker-index order.
    pub workers: Vec<WorkerLane>,
    /// Per-phase aggregates, in [`Phase::ALL`] order (empty phases
    /// omitted).
    pub phases: Vec<PhaseStat>,
}

impl ProfileReport {
    /// Merges the joined pool's buffers (worker-index order) under the
    /// measured sweep wall time.
    pub fn from_workers(wall_ns: u64, buffers: Vec<WorkerProfile>) -> Self {
        let mut workers = Vec::with_capacity(buffers.len());
        for b in buffers {
            let active_ns = if b.first_ns == u64::MAX {
                0
            } else {
                b.last_ns.saturating_sub(b.first_ns)
            };
            workers.push(WorkerLane {
                worker: b.worker,
                tasks: b.tasks,
                busy_ns: b.busy_ns,
                active_ns,
                idle_ns: active_ns.saturating_sub(b.busy_ns),
                spans: b.spans,
            });
        }

        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let durations: Vec<u64> = workers
                .iter()
                .flat_map(|w| w.spans.iter())
                .filter(|s| s.phase == phase)
                .map(ProfileSpan::duration_ns)
                .collect();
            if !durations.is_empty() {
                phases.push(PhaseStat::new(phase, durations));
            }
        }

        ProfileReport {
            wall_ns,
            workers,
            phases,
        }
    }

    /// Wall time attributed to named phases, summed across workers.
    pub fn attributed_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// Wall time workers spent inside claimed tasks.
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Fraction of worker busy time attributed to named phases (1.0 for
    /// an empty sweep). On a single worker, busy time is the sweep wall
    /// time minus pool overhead, so this is also the attributed fraction
    /// of wall time.
    pub fn attributed_fraction(&self) -> f64 {
        let busy = self.busy_ns();
        if busy == 0 {
            1.0
        } else {
            self.attributed_ns() as f64 / busy as f64
        }
    }

    /// Pool utilization: busy time over `workers × wall` (0.0 for an
    /// empty report).
    pub fn utilization(&self) -> f64 {
        let denom = self.workers.len() as u64 * self.wall_ns;
        if denom == 0 {
            0.0
        } else {
            self.busy_ns() as f64 / denom as f64
        }
    }

    /// The profile as worker-lane telemetry events: one [`Event::Slice`]
    /// per phase window on a `worker <i>` track (wall ns since the sweep
    /// epoch in the slice's "simulated" field) — directly consumable by
    /// [`chrome_trace`](crate::trace::chrome_trace) alongside any
    /// sim-derived events of the same sweep.
    pub fn to_events(&self) -> Vec<Event> {
        let mut events = Vec::new();
        for lane in &self.workers {
            let track = format!("worker {}", lane.worker);
            // Chrome-trace viewers expect non-decreasing ts within a
            // (pid, tid) track, so each lane is emitted by start time.
            let mut spans: Vec<&ProfileSpan> = lane.spans.iter().collect();
            spans.sort_by_key(|s| s.start_ns);
            events.extend(spans.into_iter().map(|s| Event::Slice {
                track: track.clone(),
                name: format!("s{} {}", s.scenario, s.phase.name()),
                start_ns: s.start_ns as i64,
                end_ns: s.end_ns as i64,
            }));
        }
        events
    }

    /// A text Gantt chart: one row per worker over `[0, wall_ns]`,
    /// `width` cells wide, each cell showing the glyph of the phase that
    /// last touched it (`.` = idle, `-` = unattributed busy time).
    pub fn gantt(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let width = width.max(1);
        let wall = self.wall_ns.max(1);
        let cell = |ns: u64| ((ns.min(wall)) as usize * width / wall as usize).min(width - 1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gantt over {:.3} ms ({} cells/row; {})",
            self.wall_ns as f64 / 1e6,
            width,
            Phase::ALL
                .iter()
                .map(|p| format!("{}={}", p.glyph(), p.name()))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for lane in &self.workers {
            let mut row = vec!['.'; width];
            for s in &lane.spans {
                let (a, b) = (cell(s.start_ns), cell(s.end_ns));
                for c in row.iter_mut().take(b + 1).skip(a) {
                    *c = s.phase.glyph();
                }
            }
            let _ = writeln!(
                out,
                "w{} |{}|",
                lane.worker,
                row.into_iter().collect::<String>()
            );
        }
        out
    }

    /// Human-readable profile text (wall-clock sidecar; not byte-stable
    /// across runs).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Fleet profile: {:.3} ms wall, {} worker(s), utilization {:.1}%, \
             {:.1}% of busy time attributed",
            self.wall_ns as f64 / 1e6,
            self.workers.len(),
            self.utilization() * 100.0,
            self.attributed_fraction() * 100.0
        );
        let _ = writeln!(out, "\n## Phases");
        let attributed = self.attributed_ns().max(1);
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<22} count {:>5}  total {:>10.3} ms  mean {:>9.1} us  p95 {:>9.1} us  \
                 share {:>5.1}%",
                p.phase.name(),
                p.count,
                p.total_ns as f64 / 1e6,
                p.mean_ns() / 1e3,
                p.p95_ns as f64 / 1e3,
                p.total_ns as f64 * 100.0 / attributed as f64
            );
        }
        let _ = writeln!(out, "\n## Workers");
        for w in &self.workers {
            let util = if w.active_ns == 0 {
                0.0
            } else {
                w.busy_ns as f64 * 100.0 / w.active_ns as f64
            };
            let _ = writeln!(
                out,
                "w{:<3} claimed {:>5}  busy {:>10.3} ms  idle {:>10.3} ms  util {:>5.1}%",
                w.worker,
                w.tasks,
                w.busy_ns as f64 / 1e6,
                w.idle_ns as f64 / 1e6,
                util
            );
        }
        out
    }

    /// The profile as a JSON object (wall-clock sidecar).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"wall_ns\":{},\"attributed_ns\":{},\"busy_ns\":{},\
             \"attributed_fraction\":{:.6},\"utilization\":{:.6}",
            self.wall_ns,
            self.attributed_ns(),
            self.busy_ns(),
            self.attributed_fraction(),
            self.utilization()
        );
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"count\":{},\"total_ns\":{},\"mean_ns\":{:.1},\
                 \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                p.phase.name(),
                p.count,
                p.total_ns,
                p.mean_ns(),
                p.p50_ns,
                p.p95_ns,
                p.p99_ns,
                p.max_ns
            );
        }
        out.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"tasks\":{},\"busy_ns\":{},\"active_ns\":{},\"idle_ns\":{}}}",
                w.worker, w.tasks, w.busy_ns, w.active_ns, w.idle_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker_with(worker: usize, windows: &[(usize, Phase, u64, u64)]) -> WorkerProfile {
        let mut wp = WorkerProfile::new(worker, Instant::now(), true);
        for &(scenario, phase, a, b) in windows {
            wp.push_span(scenario, phase, a, b);
        }
        wp
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut wp = WorkerProfile::new(0, Instant::now(), false);
        assert_eq!(wp.now_ns(), 0);
        let v = wp.phase(0, Phase::Adequation, |wp| {
            wp.push_span(0, Phase::Cosim, 0, 10);
            7
        });
        wp.note_task(0, 10);
        assert_eq!(v, 7);
        assert_eq!(wp.tasks(), 0);
        assert_eq!(wp.busy_ns(), 0);
        assert!(wp.spans().is_empty());
        let report = ProfileReport::from_workers(0, vec![wp]);
        assert!(report.phases.is_empty());
        assert_eq!(report.attributed_fraction(), 1.0);
    }

    #[test]
    fn enabled_buffer_chains_phases_inside_tasks() {
        let mut wp = WorkerProfile::new(0, Instant::now(), true);
        let before = wp.now_ns();
        wp.begin_task();
        let v = wp.phase(3, Phase::Adequation, |_| 1 + 1);
        wp.phase(3, Phase::Cosim, |_| ());
        // Unnamed work between phases: a fresh boundary keeps it out.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let skipped = wp.boundary();
        wp.phase(3, Phase::Metrics, |_| ());
        wp.end_task();
        let after = wp.now_ns();
        assert_eq!(v, 2);
        assert_eq!(wp.tasks(), 1);
        let [a, c, m] = wp.spans() else {
            panic!("three phases, three spans: {:?}", wp.spans());
        };
        assert_eq!((a.scenario, a.phase), (3, Phase::Adequation));
        assert_eq!((c.phase, m.phase), (Phase::Cosim, Phase::Metrics));
        // One clock read per boundary: each phase starts where the
        // previous one ended, except across the skipped work.
        assert_eq!(c.start_ns, a.end_ns);
        assert_eq!(m.start_ns, skipped);
        assert!(skipped >= c.end_ns + 2_000_000);
        assert_eq!(wp.last_boundary(), m.end_ns);
        // The task window holds every span and is no wider than the
        // clock readings around it.
        assert!(before <= a.start_ns && m.end_ns <= after);
        assert!(wp.busy_ns() >= m.end_ns - a.start_ns);
        assert!(wp.busy_ns() <= after - before);
    }

    /// A task's last phase closes with the task: one span from the last
    /// boundary to the task's closing read, so a one-phase task is
    /// attributed whole; a new task forgets an unclosed last phase.
    #[test]
    fn last_phase_closes_with_its_task() {
        let mut wp = WorkerProfile::new(0, Instant::now(), true);
        wp.begin_task();
        wp.last_phase(4, Phase::Derive);
        std::thread::sleep(std::time::Duration::from_millis(1));
        wp.end_task();
        let [d] = wp.spans() else {
            panic!("one phase, one span: {:?}", wp.spans());
        };
        assert_eq!((d.scenario, d.phase), (4, Phase::Derive));
        assert_eq!(d.end_ns - d.start_ns, wp.busy_ns());
        assert_eq!(wp.last_boundary(), d.end_ns);
        let report = ProfileReport::from_workers(wp.busy_ns(), vec![wp.clone()]);
        assert_eq!(report.attributed_fraction(), 1.0);

        wp.last_phase(5, Phase::Derive);
        wp.begin_task();
        wp.phase(6, Phase::Adequation, |_| ());
        wp.end_task();
        let phases: Vec<_> = wp.spans().iter().map(|s| (s.scenario, s.phase)).collect();
        assert_eq!(phases, [(4, Phase::Derive), (6, Phase::Adequation)]);

        let mut off = WorkerProfile::new(0, Instant::now(), false);
        off.begin_task();
        off.last_phase(0, Phase::Derive);
        off.end_task();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn report_merges_index_ordered_and_attributes() {
        let mut w0 = worker_with(
            0,
            &[
                (0, Phase::Adequation, 0, 100),
                (0, Phase::Cosim, 100, 400),
                (2, Phase::Adequation, 500, 550),
            ],
        );
        w0.note_task(0, 450);
        w0.note_task(500, 600);
        let mut w1 = worker_with(1, &[(1, Phase::Cosim, 50, 250)]);
        w1.note_task(50, 300);

        let report = ProfileReport::from_workers(1_000, vec![w0, w1]);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.workers[0].worker, 0);
        assert_eq!(report.workers[0].tasks, 2);
        assert_eq!(report.workers[0].busy_ns, 550);
        assert_eq!(report.workers[0].active_ns, 600);
        assert_eq!(report.workers[0].idle_ns, 50);

        // Phases appear in canonical order with merged statistics.
        let names: Vec<_> = report.phases.iter().map(|p| p.phase).collect();
        assert_eq!(names, vec![Phase::Adequation, Phase::Cosim]);
        let adequation = &report.phases[0];
        assert_eq!(adequation.count, 2);
        assert_eq!(adequation.total_ns, 150);
        assert_eq!((adequation.p50_ns, adequation.max_ns), (50, 100));
        let cosim = &report.phases[1];
        assert_eq!((cosim.count, cosim.total_ns), (2, 500));

        assert_eq!(report.attributed_ns(), 650);
        assert_eq!(report.busy_ns(), 800);
        assert!((report.attributed_fraction() - 650.0 / 800.0).abs() < 1e-12);
        assert!((report.utilization() - 800.0 / 2_000.0).abs() < 1e-12);
    }

    #[test]
    fn merged_phase_totals_equal_single_lane_totals() {
        // The same spans split across two workers or recorded by one
        // worker must aggregate identically (per-phase count, total and
        // percentiles).
        let spans = [
            (0, Phase::Cosim, 0u64, 70u64),
            (1, Phase::Cosim, 10, 90),
            (2, Phase::Metrics, 5, 25),
            (3, Phase::Cosim, 40, 45),
        ];
        let single = ProfileReport::from_workers(100, vec![worker_with(0, &spans)]);
        let split = ProfileReport::from_workers(
            100,
            vec![worker_with(0, &spans[..2]), worker_with(1, &spans[2..])],
        );
        assert_eq!(single.phases.len(), split.phases.len());
        for (a, b) in single.phases.iter().zip(&split.phases) {
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.count, b.count);
            assert_eq!(a.total_ns, b.total_ns);
            let percentiles = |p: &PhaseStat| (p.p50_ns, p.p95_ns, p.p99_ns, p.max_ns);
            assert_eq!(percentiles(a), percentiles(b));
        }
    }

    /// One preempted window moves a short phase's maximum, never its
    /// percentiles: 1 000 windows of 400 ns and one of 400 µs read p95
    /// = 400 ns.
    #[test]
    fn one_long_window_leaves_short_percentiles_exact() {
        let mut windows: Vec<_> = (0..1_000)
            .map(|i| (i, Phase::Derive, 10 * i as u64, 10 * i as u64 + 400))
            .collect();
        windows.push((1_000, Phase::Derive, 0, 400_000));
        let report = ProfileReport::from_workers(1_000_000, vec![worker_with(0, &windows)]);
        let derive = &report.phases[0];
        assert_eq!(derive.count, 1_001);
        assert_eq!(derive.total_ns, 1_000 * 400 + 400_000);
        let percentiles = (derive.p50_ns, derive.p95_ns, derive.p99_ns, derive.max_ns);
        assert_eq!(percentiles, (400, 400, 400, 400_000));
        assert!(
            report.render().contains("p95       0.4 us"),
            "{}",
            report.render()
        );
        assert!(report.to_json().contains("\"p95_ns\":400,"));
    }

    #[test]
    fn events_and_renders_cover_every_lane() {
        let mut w0 = worker_with(
            0,
            &[(0, Phase::Synthesis, 0, 10), (0, Phase::Cosim, 10, 90)],
        );
        w0.note_task(0, 100);
        let mut w1 = worker_with(1, &[(1, Phase::Verification, 20, 60)]);
        w1.note_task(20, 60);
        let report = ProfileReport::from_workers(100, vec![w0, w1]);

        let events = report.to_events();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            &events[0],
            Event::Slice { track, name, .. }
                if track == "worker 0" && name == "s0 delay-graph synthesis"
        ));
        let trace = crate::trace::chrome_trace(&events);
        assert!(crate::json::parse(&trace).is_ok());
        assert!(trace.contains("worker 1"));

        let text = report.render();
        assert!(text.contains("delay-graph synthesis"));
        assert!(text.contains("w0"));
        assert!(text.contains("w1"));

        let gantt = report.gantt(20);
        assert_eq!(gantt.lines().count(), 3);
        assert!(gantt.contains('c'), "cosim glyph missing:\n{gantt}");

        let json = report.to_json();
        let parsed = crate::json::parse(&json).expect("profile JSON parses");
        let workers = parsed
            .get("workers")
            .and_then(|v| v.as_array())
            .map(<[_]>::len);
        assert_eq!(workers, Some(2));
    }
}
